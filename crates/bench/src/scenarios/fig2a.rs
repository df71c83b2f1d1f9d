//! Figure 2a — "The subflow controller detects when the retransmission
//! timer becomes too long and creates the backup subflow at this time."
//!
//! A bulk transfer starts over the primary path; at t = 1 s its loss ratio
//! jumps to 30 %. The §4.2 controller watches `timeout` events and, when
//! the backed-off RTO exceeds 1 s, cuts the primary and opens a subflow
//! over the backup interface. The output is the data-sequence-vs-time
//! trace, coloured by path — the paper's plot.

use std::time::Duration;

use smapp::{controller_of, BackupConfig, BackupController, ControllerRuntime};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2};
use smapp_pm::Host;
use smapp_sim::{LinkCfg, LossModel, SimTime};

use super::{bulk_client, bulk_outcome, checked_run, sink_as, sink_server, Row, Run, Scenario};
use crate::sweep::digest_rows;
use crate::trace::SeqTraceSink;

/// Parameters of the Fig. 2a run.
#[derive(Debug, Clone)]
pub struct Params {
    /// When the primary path degrades.
    pub loss_onset: SimTime,
    /// Loss ratio after onset (paper: 0.30).
    pub loss: f64,
    /// Controller threshold (paper: 1 s).
    pub rto_threshold: Duration,
    /// Transfer size.
    pub transfer: u64,
    /// Simulation horizon.
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            loss_onset: SimTime::from_secs(1),
            loss: 0.30,
            rto_threshold: Duration::from_secs(1),
            transfer: 2_000_000,
            horizon: SimTime::from_secs(60),
        }
    }
}

/// Results of the Fig. 2a run.
#[derive(Debug)]
pub struct Results {
    /// `(seconds, relative data seq, path)` rows; path 0 = primary
    /// ("Master" in the paper), 1 = backup.
    pub rows: Vec<(f64, u64, usize)>,
    /// When the controller switched, if it did.
    pub switch_at: Option<f64>,
    /// Bytes the server received.
    pub delivered: u64,
    /// Simulated completion time (all data acknowledged).
    pub completed_at: Option<f64>,
}

/// The Fig. 2a experiment.
pub struct Fig2a;

impl Scenario for Fig2a {
    const NAME: &'static str = "fig2a";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.026 -> 0.015 full, 0.213 -> 0.140 smoke;
    // ceiling is 2x the higher one.
    // Wire buffers in one allocation, pooled per size class:
    // 0.138 -> 0.120 smoke, 0.013 -> 0.013 full; ceiling is 2x the higher one.
    const ALLOC_CEILING: f64 = 0.25;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = Params {
            transfer: if smoke { 200_000 } else { 2_000_000 },
            ..Default::default()
        };
        vec![Row {
            variant: "backup",
            seeds: if smoke { vec![42] } else { vec![42, 43, 44] },
            workload: format!("{} B transfer, 30% loss onset at 1 s", params.transfer),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let controller = BackupController::new(BackupConfig {
            rto_threshold: p.rto_threshold,
            backup_src: CLIENT_ADDR2,
        });
        let client = Host::new("client", StackConfig::default()).with_user(
            ControllerRuntime::boxed(controller),
            LatencyModel::idle_host(),
        );
        let net = topo::two_path(
            seed,
            bulk_client(client, Some(CLIENT_ADDR1), p.transfer),
            sink_server(),
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        let l1 = net.link1;
        let loss = p.loss;
        sim.at(p.loss_onset, move |core| {
            core.set_loss_both(l1, LossModel::Bernoulli(loss));
        });
        let (summary, sink) = checked_run(
            &mut sim,
            Some(Box::new(SeqTraceSink::new(vec![net.link1, net.link2]))),
            p.horizon,
            Self::NAME,
            seed,
        );

        let ctrl = controller_of::<BackupController>(topo::host(&sim, net.client)).unwrap();
        let switch_at = ctrl.switchovers.first().map(|(t, _, _)| t.as_secs_f64());
        let (delivered, completed_at) = bulk_outcome(&sim, net.server, p.transfer, &summary);
        Run {
            summary,
            results: Results {
                rows: sink_as::<SeqTraceSink>(&sink).relative_rows(),
                switch_at,
                delivered,
                completed_at,
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        format!(
            "rows={} digest={:016x} switch={:?} delivered={} done={:?}",
            r.rows.len(),
            digest_rows(&r.rows),
            r.switch_at,
            r.delivered,
            r.completed_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_backup_switchover() {
        let p = Params {
            transfer: 1_000_000,
            ..Default::default()
        };
        let r = Fig2a::run(&p, 42).results;
        let switch = r.switch_at.expect("controller switched");
        assert!(switch > 1.0, "switch after loss onset, got {switch}");
        assert!(switch < 30.0, "switch within seconds, got {switch}");
        assert_eq!(r.delivered, p.transfer, "transfer completed via backup");
        // Before the switch: only path 0; after (plus a little slack for
        // in-flight packets): new data on path 1 only.
        let before: Vec<_> = r.rows.iter().filter(|(t, _, _)| *t < switch).collect();
        assert!(before.iter().all(|(_, _, path)| *path == 0));
        let after_tail: Vec<_> = r
            .rows
            .iter()
            .filter(|(t, _, _)| *t > switch + 0.1)
            .collect();
        assert!(!after_tail.is_empty());
        assert!(after_tail.iter().all(|(_, _, path)| *path == 1));
        // The sequence trace progresses on the backup path.
        let max_seq_backup = after_tail.iter().map(|(_, s, _)| *s).max().unwrap();
        let max_seq_primary = before.iter().map(|(_, s, _)| *s).max().unwrap();
        assert!(max_seq_backup > max_seq_primary);
    }
}
