//! Figure 2c — CDF of 100 MB transfer completion times over a 4-path ECMP
//! fabric: the §4.4 refresh controller versus the in-kernel ndiffports.
//!
//! "The two routers load-balance the flows over four available paths that
//! have a capacity of 8 Mbps and delays of respectively 10, 20, 30 and
//! 40 msec. The client sends a 100 MBytes file and opens 5 subflows."
//! Ndiffports gambles once on its 5 random source ports: runs cluster by
//! how many distinct paths the hash picked (the paper sees ≈28 s with 4
//! paths, ≈37 s with 3, ≈55 s with 2). The refresh controller keeps
//! killing the slowest subflow and redrawing, converging toward all four
//! paths ("the shortest time using the four paths is 27.8 s, and the worst
//! time using only one path is 111.7 s").

use smapp::{ControllerRuntime, NdiffportsController, RefreshConfig, RefreshController};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo;
use smapp_pm::{Host, NdiffportsPm};
use smapp_sim::{LinkCfg, SimTime};

use super::{bulk_client, checked_run, paths_used, sink_server, Row, Run, Scenario};
use crate::perf::FIG2C_SEEDS;

/// Which manager drives the subflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manager {
    /// In-kernel ndiffports (the paper's baseline).
    Ndiffports,
    /// Userspace ndiffports (no refresh) — for ablation.
    NdiffportsUser,
    /// The §4.4 refresh controller.
    Refresh,
}

/// Parameters of one Fig. 2c run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transfer size (paper: 100 MB).
    pub transfer: u64,
    /// Subflows per connection (paper: 5).
    pub n: u8,
    /// Manager under test.
    pub manager: Manager,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            transfer: 100_000_000,
            n: 5,
            manager: Manager::Refresh,
        }
    }
}

/// Path configs of the paper's fabric: 4 × 8 Mb/s, 10/20/30/40 ms.
pub fn paper_paths() -> Vec<LinkCfg> {
    (1..=4).map(|i| LinkCfg::mbps_ms(8, 10 * i)).collect()
}

/// Results of one Fig. 2c run; the completion time is the run's
/// `summary.ended_at`.
#[derive(Debug)]
pub struct Results {
    /// Distinct bottleneck paths that carried meaningful traffic.
    pub paths_used: usize,
}

/// The Fig. 2c experiment.
pub struct Fig2c;

impl Scenario for Fig2c {
    const NAME: &'static str = "fig2c";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.012 -> 0.001 full, 0.039 -> 0.020 smoke;
    // ceiling is 2x the higher one.
    // Wire buffers in one allocation, pooled per size class:
    // 0.0211 -> 0.0124 smoke, 0.0018 -> 0.0009 full (ndiffports; refresh
    // 0.0005 -> 0.0007); ceiling is 2x the higher one.
    const ALLOC_CEILING: f64 = 0.025;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let row = |variant, manager, seeds: &[u64]| {
            let params = Params {
                transfer: if smoke { 5_000_000 } else { 100_000_000 },
                manager,
                ..Default::default()
            };
            Row {
                variant,
                seeds: seeds.to_vec(),
                workload: format!(
                    "{} B transfer, 5 subflows, {variant}, 4 ECMP paths",
                    params.transfer
                ),
                params,
            }
        };
        if smoke {
            vec![row("refresh", Manager::Refresh, &FIG2C_SEEDS[..1])]
        } else {
            vec![
                row("refresh", Manager::Refresh, &FIG2C_SEEDS),
                row("ndiffports", Manager::Ndiffports, &[100, 101]),
            ]
        }
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let client = match p.manager {
            Manager::Ndiffports => Host::new("client", StackConfig::default())
                .with_pm(Box::new(NdiffportsPm::new(p.n))),
            Manager::NdiffportsUser => Host::new("client", StackConfig::default()).with_user(
                ControllerRuntime::boxed(NdiffportsController::new(p.n)),
                LatencyModel::idle_host(),
            ),
            Manager::Refresh => Host::new("client", StackConfig::default()).with_user(
                ControllerRuntime::boxed(RefreshController::new(RefreshConfig {
                    n: p.n,
                    ..Default::default()
                })),
                LatencyModel::idle_host(),
            ),
        };
        let net = topo::ecmp(
            seed,
            bulk_client(client, None, p.transfer),
            sink_server(),
            &paper_paths(),
        );
        let mut sim = net.sim;
        // Generous horizon: worst case (1 path) is ~110 s for 100 MB.
        let horizon = SimTime::from_secs(1200);
        let (summary, _) = checked_run(&mut sim, None, horizon, Self::NAME, seed);
        Run {
            summary,
            results: Results {
                paths_used: paths_used(&sim, &net.paths, p.transfer),
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        format!(
            "end_ns={} paths={}",
            run.summary.ended_at.as_nanos(),
            run.results.paths_used
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    #[test]
    fn fig2c_refresh_beats_ndiffports() {
        // Reduced size for test speed: 20 MB, 6 runs each.
        let series = |manager| -> Vec<Run<Results>> {
            let p = Params {
                transfer: 20_000_000,
                manager,
                ..Default::default()
            };
            (100..106).map(|seed| Fig2c::run(&p, seed)).collect()
        };
        let median = |runs: &[Run<Results>]| {
            Cdf::new(
                runs.iter()
                    .map(|r| r.summary.ended_at.as_secs_f64())
                    .collect(),
            )
            .median()
        };
        let refresh = series(Manager::Refresh);
        let ndiff = series(Manager::Ndiffports);
        // Medians: the refresh controller must win.
        let r = median(&refresh);
        let n = median(&ndiff);
        assert!(
            r < n,
            "refresh median {r:.1}s must beat ndiffports median {n:.1}s"
        );
        // Ndiffports shows spread across path counts; refresh concentrates
        // on high path counts (>= 3 paths in the vast majority of runs).
        let paths: Vec<usize> = refresh.iter().map(|r| r.results.paths_used).collect();
        let refresh_high = paths.iter().filter(|&&k| k >= 3).count();
        assert!(refresh_high >= 5, "refresh mostly uses >=3 paths: {paths:?}");
    }
}
