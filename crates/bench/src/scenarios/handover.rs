//! Handover — break-before-make WiFi→LTE mobility under the scripted
//! dynamics engine.
//!
//! The §4.2 story taken to its mobile conclusion: a dual-homed smartphone
//! uploads over WiFi; as the user walks away the path first *degrades*
//! (scripted loss onset) and then *disappears* (scripted interface-down —
//! the radio loses its association). The smart-backup controller reacts to
//! whichever signal lands first: the backed-off RTO crossing the 1 s
//! threshold (the paper's soft switch), or the hard `IfaceDown` subflow
//! death (mobility). Either way the cellular subflow — never established
//! beforehand, saving energy and radio resources — is activated and the
//! transfer completes over LTE.
//!
//! Everything that changes mid-run is a [`smapp_sim::NetemScript`]
//! entry executed through the calendar event queue, so per-seed
//! trajectories are bit-identical across reruns and `--jobs N` sweeps.

use std::time::Duration;

use smapp::{controller_of, BackupConfig, BackupController, ControllerRuntime};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2};
use smapp_pm::Host;
use smapp_sim::{InstallPolicy, LinkCfg, LossPct, Netem, NetemScript, SimTime};

use super::{bulk_client, bulk_outcome, checked_run, sink_as, sink_server, Row, Run, Scenario};
use crate::sweep::digest_rows;
use crate::trace::SeqTraceSink;

/// Parameters of one handover run.
#[derive(Debug, Clone)]
pub struct Params {
    /// When the WiFi path starts degrading.
    pub loss_onset: SimTime,
    /// WiFi loss ratio after onset.
    pub loss: f64,
    /// When the WiFi interface goes down entirely (the hard break).
    pub break_at: SimTime,
    /// Controller RTO threshold for the soft switch (paper: 1 s).
    pub rto_threshold: Duration,
    /// Transfer size in bytes.
    pub transfer: u64,
    /// Simulation horizon.
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            loss_onset: SimTime::from_secs(1),
            loss: 0.30,
            break_at: SimTime::from_secs(5),
            rto_threshold: Duration::from_secs(1),
            transfer: 2_000_000,
            horizon: SimTime::from_secs(120),
        }
    }
}

/// Results of one handover run.
#[derive(Debug)]
pub struct Results {
    /// When the controller activated the cellular subflow (seconds).
    pub switch_at: Option<f64>,
    /// Bytes the server received.
    pub delivered: u64,
    /// Completion time, if the transfer finished within the horizon.
    pub completed_at: Option<f64>,
    /// `(seconds, relative data seq, path)` trace rows (path 0 = WiFi,
    /// 1 = LTE).
    pub rows: Vec<(f64, u64, usize)>,
}

/// The WiFi→LTE handover scenario.
pub struct Handover;

impl Scenario for Handover {
    const NAME: &'static str = "handover";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.029 -> 0.014 full, 0.057 -> 0.032 smoke;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.032 -> 0.029 smoke, 0.014 -> 0.013 full; ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.0294 -> 0.0271 smoke, 0.0130 -> 0.0116 full; ceiling is 2x the higher one.
    const ALLOC_CEILING: f64 = 0.055;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = Params {
            transfer: if smoke { 800_000 } else { 2_000_000 },
            ..Default::default()
        };
        vec![Row {
            variant: "backup",
            seeds: if smoke { vec![21] } else { vec![21, 22, 23] },
            workload: format!(
                "{} B transfer, 30% WiFi loss at 1 s, iface down at 5 s, smart backup",
                params.transfer
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let controller = BackupController::new(BackupConfig {
            rto_threshold: p.rto_threshold,
            backup_src: CLIENT_ADDR2, // the cellular interface
        });
        let client = Host::new("smartphone", StackConfig::default()).with_user(
            ControllerRuntime::boxed(controller),
            LatencyModel::idle_host(),
        );
        let net = topo::two_path(
            seed,
            bulk_client(client, Some(CLIENT_ADDR1), p.transfer), // start on WiFi
            sink_server(),
            LinkCfg::mbps_ms(5, 10), // WiFi
            LinkCfg::mbps_ms(5, 40), // LTE: more delay
        );
        let mut sim = net.sim;

        // The mobility script: degrade, then hard-break, the WiFi path.
        sim.install(
            NetemScript::new()
                .at(
                    p.loss_onset,
                    Netem::on(net.link1).loss(LossPct::ratio(p.loss)),
                )
                .at(p.break_at, Netem::iface(net.client_if1).down()),
            InstallPolicy::Sort,
        )
        .unwrap();
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
                switch_at,
                delivered,
                completed_at,
                rows: sink_as::<SeqTraceSink>(&sink).relative_rows(),
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
    fn handover_activates_backup_and_completes() {
        // 2 MB at 5 Mb/s needs >3 s of wire time, so the 1 s loss onset
        // and 5 s hard break both land mid-transfer.
        let p = Params::default();
        let r = Handover::run(&p, 21).results;
        let switch = r.switch_at.expect("controller activated the backup");
        assert!(
            switch > p.loss_onset.as_secs_f64(),
            "switch after onset, got {switch}"
        );
        assert!(switch < 30.0, "switch within seconds, got {switch}");
        assert_eq!(r.delivered, p.transfer, "transfer completed over LTE");
        // After the hard break nothing more flows on the WiFi path.
        let break_s = p.break_at.as_secs_f64();
        assert!(
            r.rows
                .iter()
                .all(|(t, _, path)| *path != 0 || *t <= break_s),
            "no WiFi traffic after the interface went down"
        );
    }

    #[test]
    fn hard_break_before_soft_switch_still_hands_over() {
        // Break the WiFi interface *before* the RTO can cross the 1 s
        // threshold: the controller must react to the IfaceDown subflow
        // death instead of the timeout signal.
        let p = Params {
            loss_onset: SimTime::from_millis(900),
            break_at: SimTime::from_secs(1),
            ..Default::default()
        };
        let r = Handover::run(&p, 21).results;
        assert!(r.switch_at.is_some(), "hard break still activates backup");
        assert_eq!(r.delivered, p.transfer);
    }

    #[test]
    fn handover_is_deterministic_per_seed() {
        let p = Params {
            transfer: 300_000,
            ..Default::default()
        };
        let (a, b) = (Handover::run(&p, 21), Handover::run(&p, 21));
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.results.rows, b.results.rows);
        assert_eq!(a.results.switch_at, b.results.switch_at);
    }
}
