//! Figure 2b — CDF of the delay to deliver each 64 KB block under packet
//! loss: the default full-mesh path manager versus the §4.3 smart-stream
//! controller.
//!
//! "We consider a simple streaming application that sends one 64 KBytes
//! block every second. [...] two 5 Mbps links between the client and the
//! server. Each link has a 10 msec delay." Losses of 10–40 % hit the
//! initial path. The paper's claim: the default full-mesh manager shows a
//! multi-second tail (reinjection keeps feeding the crippled subflow and
//! its ever-growing RTO), while the smart controller "provides almost the
//! same CDF of the block delays for packet loss ratios in the 10–40 %
//! range".

use std::time::Duration;

use smapp::{ControllerRuntime, StreamConfig, StreamController};
use smapp_mptcp::apps::{Sink, StreamSender};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::{FullMeshPm, Host};
use smapp_sim::{LinkCfg, LossModel, SimTime};

use super::{checked_run, first_app, Row, Run, Scenario};
use crate::sweep::digest_f64s;

/// Which manager drives the subflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manager {
    /// Kernel full-mesh (the paper's baseline).
    FullMesh,
    /// The §4.3 smart-stream controller.
    SmartStream,
}

/// Parameters of one Fig. 2b run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Blocks per run.
    pub blocks: u64,
    /// Loss ratio on the initial path.
    pub loss: f64,
    /// Manager under test.
    pub manager: Manager,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            blocks: 30,
            loss: 0.30,
            manager: Manager::SmartStream,
        }
    }
}

/// The Fig. 2b experiment. One run yields the per-block delivery delays
/// in seconds (completion at the sink minus the block's write time at the
/// sender); the figure's CDF pools them over a seed range.
pub struct Fig2b;

impl Scenario for Fig2b {
    const NAME: &'static str = "fig2b";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.041 -> 0.024 full, 0.107 -> 0.064 smoke;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.067 -> 0.059 smoke, 0.032 -> 0.026 full; ceiling is 2x the higher one.
    // Info replies built in per-thread scratch and decoded in place:
    // 0.0511 -> 0.0434 smoke, 0.0212 -> 0.0115 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.066;
    type Params = Params;
    type Results = Vec<f64>;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        [
            ("smart", Manager::SmartStream),
            ("fullmesh", Manager::FullMesh),
        ]
        .into_iter()
        // Smoke runs the smart row only.
        .filter(|&(_, manager)| !smoke || manager == Manager::SmartStream)
        .map(|(variant, manager)| {
                let params = Params {
                    blocks: if smoke { 8 } else { 25 },
                    loss: 0.30,
                    manager,
                };
                Row {
                    variant,
                    seeds: if smoke { vec![1] } else { vec![1, 2] },
                    workload: format!("{} x 64 KB blocks, 30% loss, {variant}", params.blocks),
                    params,
                }
            })
            .collect()
    }

    fn run(p: &Params, seed: u64) -> Run<Vec<f64>> {
        let block = 64 * 1024u64;
        let mut client = match p.manager {
            Manager::FullMesh => {
                Host::new("client", StackConfig::default()).with_pm(Box::new(FullMeshPm::new()))
            }
            Manager::SmartStream => Host::new("client", StackConfig::default()).with_user(
                ControllerRuntime::boxed(StreamController::new(StreamConfig::paper(CLIENT_ADDR2))),
                LatencyModel::idle_host(),
            ),
        };
        client.connect_at(
            SimTime::from_millis(10),
            Some(CLIENT_ADDR1),
            SERVER_ADDR,
            80,
            Box::new(StreamSender::new(block, Duration::from_secs(1), p.blocks)),
        );
        let mut server = Host::new("server", StackConfig::default());
        server.listen(
            80,
            Box::new(move || {
                Box::new(Sink {
                    close_on_eof: true,
                    stop_on_eof: true,
                    ..Sink::with_blocks(block)
                })
            }),
        );
        let net = topo::two_path(
            seed,
            client,
            server,
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        let l1 = net.link1;
        let loss = p.loss;
        // Loss starts with the stream (after the handshake completes).
        sim.at(SimTime::from_millis(200), move |core| {
            core.set_loss_both(l1, LossModel::Bernoulli(loss));
        });
        let horizon = SimTime::from_secs(p.blocks + 120);
        let (summary, _) = checked_run(&mut sim, None, horizon, Self::NAME, seed);

        // Pair block completions (sink side) with block starts (sender side).
        let starts = first_app::<StreamSender>(&sim, net.client)
            .map(|s| s.block_starts.clone())
            .unwrap_or_default();
        let completions = first_app::<Sink>(&sim, net.server)
            .map(|s| s.block_completions.clone())
            .unwrap_or_default();
        let delays = starts
            .iter()
            .zip(&completions)
            .map(|(s, c)| c.saturating_since(*s).as_secs_f64())
            .collect();
        Run {
            summary,
            results: delays,
        }
    }

    fn trajectory(run: &Run<Vec<f64>>) -> String {
        format!(
            "blocks={} digest={:016x}",
            run.results.len(),
            digest_f64s(&run.results)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    #[test]
    fn fig2b_smart_stream_bounds_tail() {
        let pooled = |manager| {
            let p = Params {
                blocks: 20,
                loss: 0.30,
                manager,
            };
            Cdf::new((1..=2).flat_map(|seed| Fig2b::run(&p, seed).results).collect())
        };
        let smart = pooled(Manager::SmartStream);
        let baseline = pooled(Manager::FullMesh);
        assert!(!smart.is_empty() && !baseline.is_empty());
        // The paper's qualitative claim: the smart controller's tail beats
        // the default full-mesh tail under 30% loss.
        let smart_p90 = smart.quantile(0.9);
        let base_p90 = baseline.quantile(0.9);
        assert!(
            smart_p90 < base_p90,
            "smart p90 {smart_p90:.2}s must beat baseline p90 {base_p90:.2}s"
        );
        // And the bulk of smart blocks arrive within ~1.5 s.
        assert!(
            smart.fraction_at_or_below(1.5) > 0.7,
            "most smart blocks within 1.5s: {}",
            smart.summary("smart")
        );
    }
}
