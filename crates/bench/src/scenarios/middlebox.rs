//! Middlebox — an MPTCP-option-stripping hop and the graceful plain-TCP
//! fallback.
//!
//! The deployment hazard that motivates MPTCP's fallback design (§1 of the
//! paper; RFC 6824 §3.7): a "transparent" middlebox that normalizes TCP by
//! removing options it does not understand. Here the two-path topology's
//! router is toggled into option-stripping mode by a
//! [`smapp_sim::NetemScript`] command: every forwarded TCP segment
//! loses its kind-30 options, the `MP_CAPABLE` handshake degrades to plain
//! TCP, the path manager's join attempts are refused, and the transfer
//! still completes — on exactly one subflow.
//!
//! The `clear` variant runs the identical world with stripping off, as the
//! control: MPTCP negotiates, the backup join succeeds, two subflows live.

use smapp_mptcp::StackConfig;
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2};
use smapp_pm::Host;
use smapp_sim::{InstallPolicy, LinkCfg, Netem, NetemScript, Router, SimTime, Stage};

use super::{bulk_client, bulk_outcome, checked_run, sink_server, Row, Run, Scenario};
use crate::pms::BackupFlagPm;

/// Parameters of one middlebox run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Whether the router strips MPTCP options.
    pub strip: bool,
    /// When stripping switches on (default: before the first SYN).
    pub strip_at: SimTime,
    /// Transfer size in bytes.
    pub transfer: u64,
    /// Simulation horizon.
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            strip: true,
            strip_at: SimTime::ZERO,
            transfer: 2_000_000,
            horizon: SimTime::from_secs(120),
        }
    }
}

/// Results of one middlebox run.
#[derive(Debug)]
pub struct Results {
    /// Did the client connection end up in plain-TCP fallback?
    pub fallback: bool,
    /// Live + ever-created subflows on the client connection.
    pub subflows: usize,
    /// MPTCP options the router removed.
    pub options_stripped: u64,
    /// Bytes the server received.
    pub delivered: u64,
    /// Completion time, if the transfer finished within the horizon.
    pub completed_at: Option<f64>,
}

/// The option-stripping middlebox scenario.
pub struct Middlebox;

impl Scenario for Middlebox {
    const NAME: &'static str = "middlebox";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.015 -> 0.009 full, 0.059 -> 0.035 smoke;
    // ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.035 -> 0.030 smoke, 0.0094 -> 0.0078 full; ceiling is 2x the higher one.
    // World storage (simulator, oracle, host tables) spared per thread:
    // 0.0252 -> 0.0086 smoke, 0.0068 -> 0.0019 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.013;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = Params {
            transfer: if smoke { 500_000 } else { 2_000_000 },
            ..Default::default()
        };
        vec![Row {
            variant: "strip",
            seeds: if smoke { vec![41] } else { vec![41, 42, 43] },
            workload: format!(
                "{} B transfer through an MPTCP-option-stripping router hop",
                params.transfer
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        // The client tries to add a subflow over its second interface as
        // soon as the connection establishes — which a fallback connection
        // refuses.
        let client = Host::new("client", StackConfig::default())
            .with_pm(Box::new(BackupFlagPm::new(CLIENT_ADDR2)));
        let net = topo::two_path(
            seed,
            bulk_client(client, Some(CLIENT_ADDR1), p.transfer),
            sink_server(),
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        if p.strip {
            let strip = Netem::peer(net.router).middlebox(None, Stage::StripMptcp, true);
            let script = NetemScript::new().at(p.strip_at, strip);
            sim.install(script, InstallPolicy::Sort).unwrap();
        }
        let (summary, _) = checked_run(&mut sim, None, p.horizon, Self::NAME, seed);

        let (fallback, subflows) = topo::host(&sim, net.client)
            .stack
            .connections()
            .next()
            .map_or((false, 0), |c| (c.is_fallback(), c.subflow_count()));
        let options_stripped = sim
            .node(net.router)
            .as_any()
            .downcast_ref::<Router>()
            .expect("router node")
            .counters
            .options_stripped;
        let (delivered, completed_at) = bulk_outcome(&sim, net.server, p.transfer, &summary);
        Run {
            summary,
            results: Results {
                fallback,
                subflows,
                options_stripped,
                delivered,
                completed_at,
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        format!(
            "fallback={} subflows={} stripped={} delivered={} done={:?}",
            r.fallback, r.subflows, r.options_stripped, r.delivered, r.completed_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_hop_forces_single_subflow_fallback_that_completes() {
        let p = Params {
            transfer: 500_000,
            ..Default::default()
        };
        let r = Middlebox::run(&p, 41).results;
        assert!(r.fallback, "client fell back to plain TCP");
        assert_eq!(r.subflows, 1, "join refused: one subflow only");
        assert!(r.options_stripped > 0, "the middlebox actually interfered");
        assert_eq!(r.delivered, p.transfer, "graceful fallback completes");
    }

    #[test]
    fn clear_control_negotiates_mptcp_with_two_subflows() {
        let p = Params {
            strip: false,
            transfer: 500_000,
            ..Default::default()
        };
        let r = Middlebox::run(&p, 41).results;
        assert!(!r.fallback, "MPTCP negotiated");
        assert_eq!(r.subflows, 2, "backup join succeeded");
        assert_eq!(r.options_stripped, 0);
        assert_eq!(r.delivered, p.transfer);
    }

    #[test]
    fn middlebox_is_deterministic_per_seed() {
        let p = Params {
            transfer: 300_000,
            ..Default::default()
        };
        assert_eq!(
            Middlebox::run(&p, 41).summary,
            Middlebox::run(&p, 41).summary
        );
    }
}
