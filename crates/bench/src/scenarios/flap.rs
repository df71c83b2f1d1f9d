//! Flap — a periodically failing ECMP bottleneck path under the scripted
//! dynamics engine, routed around by the §4.4 refresh controller.
//!
//! The §4.4 fabric (four parallel paths behind flow-hashing routers), but
//! one path now *flaps*: a [`smapp_sim::NetemScript`] takes the whole
//! link administratively down and back up on a fixed period — a carrier
//! losing and regaining light, invisible to the routers' ECMP hash, which
//! keeps assigning flows onto the dead path. The refresh controller's
//! pacing-rate poll is exactly the defence the paper proposes: every
//! 2.5 s it kills the slowest subflow and redraws a new source port,
//! re-establishing over (with high probability) a healthy path.
//!
//! Because the flaps are calendar-queue events, the whole run — flap
//! instants, refresh decisions, completion time — is bit-identical per
//! seed at any sweep `--jobs` count.

use smapp::{controller_of, ControllerRuntime, RefreshConfig, RefreshController};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo;
use smapp_pm::Host;
use smapp_sim::{InstallPolicy, Netem, NetemScript, SimTime};

use super::fig2c::paper_paths;
use super::{
    bulk_client, bulk_outcome, checked_run, paths_used, sink_server, Row, Run, Scenario,
};
use crate::sweep::digest_f64s;

/// Parameters of one flap run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transfer size in bytes.
    pub transfer: u64,
    /// Subflows the refresh controller maintains (paper: 5).
    pub n: u8,
    /// First instant the flapping path goes down.
    pub first_down: SimTime,
    /// How long the path stays down per flap.
    pub down_for: std::time::Duration,
    /// Flap period (down instant to next down instant).
    pub period: std::time::Duration,
    /// Number of down/up cycles before the path stays up for good.
    pub flaps: u32,
    /// Simulation horizon.
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            transfer: 20_000_000,
            n: 5,
            first_down: SimTime::from_secs(2),
            down_for: std::time::Duration::from_secs(2),
            period: std::time::Duration::from_secs(5),
            flaps: 4,
            horizon: SimTime::from_secs(600),
        }
    }
}

/// Results of one flap run.
#[derive(Debug)]
pub struct Results {
    /// Bytes the server received.
    pub delivered: u64,
    /// Completion time, if the transfer finished within the horizon.
    pub completed_at: Option<f64>,
    /// Subflow refreshes the controller performed: `(seconds, killed
    /// subflow id, its pacing rate)`.
    pub refreshes: Vec<(f64, u8, u64)>,
    /// Distinct bottleneck paths that carried meaningful traffic.
    pub paths_used: usize,
}

/// The flapping-ECMP-path scenario.
pub struct Flap;

impl Scenario for Flap {
    const NAME: &'static str = "flap";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.017 -> 0.002 full, 0.029 -> 0.008 smoke;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.0076 -> 0.0067 smoke, 0.0020 -> 0.0017 full; ceiling is 2x the higher one.
    // Info replies built in per-thread scratch and decoded in place:
    // 0.00725 -> 0.00710 smoke, 0.00135 -> 0.00121 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.011;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = if smoke {
            Params {
                transfer: 4_000_000,
                first_down: SimTime::from_millis(500),
                flaps: 2,
                ..Default::default()
            }
        } else {
            Params::default()
        };
        vec![Row {
            variant: "refresh",
            seeds: if smoke { vec![31] } else { vec![31, 32] },
            workload: format!(
                "{} B transfer, path 0 down {}x for {:?} every {:?}, refresh PM",
                params.transfer, params.flaps, params.down_for, params.period
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let client = Host::new("client", StackConfig::default()).with_user(
            ControllerRuntime::boxed(RefreshController::new(RefreshConfig {
                n: p.n,
                ..Default::default()
            })),
            LatencyModel::idle_host(),
        );
        // The §4.4 fabric: 4 × 8 Mb/s, 10/20/30/40 ms.
        let net = topo::ecmp(
            seed,
            bulk_client(client, None, p.transfer),
            sink_server(),
            &paper_paths(),
        );
        let mut sim = net.sim;

        // Flap the first (fastest) bottleneck path: down for `down_for`
        // every `period`, `flaps` times.
        let victim = net.paths[0];
        let mut script = NetemScript::new();
        for k in 0..p.flaps {
            let down_at = p.first_down + p.period * k;
            script.add(down_at, Netem::on(victim).down());
            script.add(down_at + p.down_for, Netem::on(victim).up());
        }
        sim.install(script, InstallPolicy::Sort).unwrap();
        let (summary, _) = checked_run(&mut sim, None, p.horizon, Self::NAME, seed);

        let ctrl = controller_of::<RefreshController>(topo::host(&sim, net.client)).unwrap();
        let refreshes = ctrl
            .refreshes
            .iter()
            .map(|(t, id, rate)| (t.as_secs_f64(), *id, *rate))
            .collect();
        let (delivered, completed_at) = bulk_outcome(&sim, net.server, p.transfer, &summary);
        Run {
            summary,
            results: Results {
                delivered,
                completed_at,
                refreshes,
                paths_used: paths_used(&sim, &net.paths, p.transfer),
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        let refresh_times: Vec<f64> = r.refreshes.iter().map(|(t, _, _)| *t).collect();
        format!(
            "refreshes={} digest={:016x} paths={} delivered={} done={:?}",
            r.refreshes.len(),
            digest_f64s(&refresh_times),
            r.paths_used,
            r.delivered,
            r.completed_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_completes_with_refresh_reestablishment() {
        // 10 MB needs several seconds on the 32 Mb/s fabric, so the flaps
        // (2 s down every 5 s from t=2 s) land mid-transfer and starve
        // whatever subflows the hash put on the victim path.
        let p = Params {
            transfer: 10_000_000,
            ..Default::default()
        };
        let r = Flap::run(&p, 31).results;
        assert_eq!(r.delivered, p.transfer, "transfer survives the flaps");
        let done = r.completed_at.expect("completed within horizon");
        assert!(
            !r.refreshes.is_empty(),
            "the flapping path forces at least one refresh"
        );
        assert!(
            r.paths_used >= 2,
            "refresh spreads over healthy paths: {} used",
            r.paths_used
        );
        // 10 MB over a >=24 Mb/s healthy residual fabric: well under the
        // horizon even with the flap outages.
        assert!(done < 120.0, "completed in {done:.1}s");
    }

    #[test]
    fn flap_is_deterministic_per_seed() {
        let p = Params {
            transfer: 2_000_000,
            flaps: 2,
            ..Default::default()
        };
        let (a, b) = (Flap::run(&p, 31), Flap::run(&p, 31));
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.results.refreshes, b.results.refreshes);
        assert_eq!(a.results.completed_at, b.results.completed_at);
    }
}
