//! §4.2 baseline narrative — what happens *without* SMAPP.
//!
//! "A connection starts over one interface and the second is set as a
//! backup interface. After 1 second, the packet loss ratio over the
//! primary path increases [until the radio is effectively dead]. Multipath
//! TCP tries to retransmit the data over this interface and applies the
//! exponential backoff to its retransmission timer until it reaches the
//! maximum value (15 doublings on Linux). At this point (after 12 minutes
//! in our experiment with the default Linux configuration), TCP eventually
//! terminates the subflow. This triggers Multipath TCP to use the backup
//! subflow since it is the only available one."
//!
//! We drive the primary into a full blackhole (the "region where an IP
//! address is assigned but most packets are lost" in its terminal form) so
//! every retransmission is lost and the doubling runs to completion.

use smapp_mptcp::StackConfig;
use smapp_pm::topo::{self, CLIENT_ADDR1};
use smapp_pm::Host;
use smapp_sim::{LinkCfg, LossModel, SimTime};

use super::{bulk_client, bulk_outcome, checked_run, sink_as, sink_server, Row, Run, Scenario};
use crate::pms::BackupFlagPm;
use crate::trace::SeqTraceSink;

/// Parameters of the baseline run.
#[derive(Debug, Clone)]
pub struct Params {
    /// When the primary path dies.
    pub loss_onset: SimTime,
    /// Transfer size.
    pub transfer: u64,
    /// RTO give-up count (Linux: 15).
    pub max_retries: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            loss_onset: SimTime::from_secs(1),
            transfer: 4_000_000,
            max_retries: 15,
        }
    }
}

/// Results of the baseline run.
#[derive(Debug)]
pub struct Results {
    /// When data first flowed on the backup path (seconds) — i.e. when the
    /// kernel finally gave up on the primary.
    pub switch_at: Option<f64>,
    /// Completion time, if the transfer finished within the horizon.
    pub completed_at: Option<f64>,
    /// Bytes delivered.
    pub delivered: u64,
}

/// The §4.2 no-SMAPP baseline.
pub struct Sec42;

impl Scenario for Sec42 {
    const NAME: &'static str = "sec42";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.011 -> 0.006 full, 0.038 -> 0.022 smoke;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.0220 -> 0.0215 smoke, 0.0061 -> 0.0060 full; ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.0215 -> 0.0180 smoke, 0.0060 -> 0.0049 full; ceiling is 2x the higher one.
    // World storage (simulator, oracle, host tables) spared per thread:
    // 0.0154 -> 0.0064 smoke, 0.0043 -> 0.0019 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.0096;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = Params {
            transfer: if smoke { 1_000_000 } else { 4_000_000 },
            max_retries: if smoke { 6 } else { 15 },
            ..Default::default()
        };
        vec![Row {
            variant: "giveup",
            seeds: vec![11],
            workload: format!(
                "{} B transfer, blackhole at 1 s, {}-doubling give-up",
                params.transfer, params.max_retries
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let mut cfg = StackConfig::default();
        cfg.rto.max_retries = p.max_retries;
        let client =
            Host::new("client", cfg).with_pm(Box::new(BackupFlagPm::new(topo::CLIENT_ADDR2)));
        let net = topo::two_path(
            seed,
            bulk_client(client, Some(CLIENT_ADDR1), p.transfer),
            sink_server(),
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        let l1 = net.link1;
        sim.at(p.loss_onset, move |core| {
            core.set_loss_both(l1, LossModel::Bernoulli(1.0));
        });
        // Horizon: the give-up takes ~13.5 minutes; allow the transfer to
        // finish afterwards.
        let (summary, sink) = checked_run(
            &mut sim,
            Some(Box::new(SeqTraceSink::new(vec![net.link1, net.link2]))),
            SimTime::from_secs(1800),
            Self::NAME,
            seed,
        );
        // First data on the backup link *after* the loss onset is the switch.
        let switch_at = sink_as::<SeqTraceSink>(&sink)
            .relative_rows()
            .iter()
            .find(|(t, _, path)| *path == 1 && *t > p.loss_onset.as_secs_f64())
            .map(|(t, _, _)| *t);
        let (delivered, completed_at) = bulk_outcome(&sim, net.server, p.transfer, &summary);
        Run {
            summary,
            results: Results {
                switch_at,
                completed_at,
                delivered,
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        format!(
            "switch={:?} delivered={} done={:?}",
            r.switch_at, r.delivered, r.completed_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec42_backoff_kill_takes_minutes() {
        let r = Sec42::run(&Params::default(), 11).results;
        let switch = r.switch_at.expect("backup eventually used");
        // The paper: "after 12 minutes". Our RTO policy gives
        // 0.2+0.4+...+102.4 + 5×120 ≈ 805 s ≈ 13.4 min from the moment the
        // backoff run starts. Accept the 10–16 minute band.
        let minutes = switch / 60.0;
        assert!(
            (10.0..16.0).contains(&minutes),
            "kernel gave up after {minutes:.1} minutes"
        );
        assert_eq!(r.delivered, 4_000_000, "backup finished the transfer");
    }

    #[test]
    fn sec42_quick_variant_scales_with_retries() {
        // With 6 retries the give-up shrinks to ~25 s — the mechanism, not
        // the constant, drives the narrative.
        let p = Params {
            max_retries: 6,
            transfer: 1_000_000,
            ..Default::default()
        };
        let r = Sec42::run(&p, 11).results;
        let switch = r.switch_at.expect("switch happened");
        assert!(
            (5.0..90.0).contains(&switch),
            "6-retry give-up after {switch:.1}s"
        );
    }
}
