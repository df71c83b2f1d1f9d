//! CDN — a heavy-tailed, wavy-arrival traffic mix over a multipath edge.
//!
//! The paper's workloads are clean-room shapes (one bulk transfer, chained
//! GETs, a fixed-rate stream). This scenario runs the messier workload a
//! CDN edge actually serves, drawn from [`crate::traffic::TrafficModel`]:
//! flow sizes follow a bounded Pareto (mice dominate counts, elephants
//! dominate bytes), arrivals form a Poisson process modulated by a
//! sinusoidal "diurnal" wave, and the application mix splits short
//! GET-style transfers from paced streaming flows — all bit-deterministic
//! per seed.
//!
//! A dual-homed client plays the user population, opening every sampled
//! flow to one server over the two-path topology with a full-mesh path
//! manager, so short flows and streams share (and compete for) both
//! subflow pools. The run executes under the protocol-invariant oracle
//! like every other scenario.

use std::time::Duration;

use smapp_mptcp::apps::{BulkSender, Sink, StreamSender};
use smapp_mptcp::{App, StackConfig};
use smapp_pm::topo::{self, CLIENT_ADDR1, SERVER_ADDR};
use smapp_pm::{FullMeshPm, Host};
use smapp_sim::{LinkCfg, SimRng, SimTime, StopReason};

use super::{checked_run, sink_server, Row, Run, Scenario};
use crate::traffic::{FlowClass, TrafficModel};

/// Parameters of one CDN-traffic run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Traffic model to sample flows from.
    pub model: TrafficModel,
    /// Cap on sampled flows.
    pub max_flows: usize,
    /// Arrival window end (flows start before this).
    pub window: SimTime,
    /// Simulation horizon.
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            model: TrafficModel::cdn(),
            max_flows: 60,
            window: SimTime::from_secs(20),
            horizon: SimTime::from_secs(120),
        }
    }
}

/// Results of one CDN-traffic run.
#[derive(Debug)]
pub struct Results {
    /// Flows the model scheduled.
    pub flows: usize,
    /// Of which paced streaming flows.
    pub streams: usize,
    /// Total bytes the model asked for.
    pub offered: u64,
    /// Bytes the server applications received.
    pub delivered: u64,
    /// Server-side connections observed (== flows when all arrived).
    pub server_conns: usize,
    /// When the run went idle (all flows drained), if within the horizon.
    pub drained_at: Option<f64>,
}

/// Decorrelates the traffic sample from the world RNG.
const TRAFFIC_SALT: u64 = 0xCD11_7AFF_1C5A_17ED;

/// The CDN traffic-mix scenario; the seed drives both the world and the
/// traffic sample.
pub struct Cdn;

impl Scenario for Cdn {
    const NAME: &'static str = "cdn";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.552 -> 0.280 full, 0.686 -> 0.350 smoke;
    // ceiling is 2x the higher one.
    // Timers re-armed in place, PM events swapped instead of re-grown,
    // `events` counting dispatches only: 0.350 -> 0.282 smoke, 0.280 -> 0.219 full;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.282 -> 0.186 smoke, 0.219 -> 0.115 full; ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.187 -> 0.152 smoke, 0.114 -> 0.097 full; ceiling is 2x the higher one.
    const ALLOC_CEILING: f64 = 0.31;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = Params {
            max_flows: if smoke { 14 } else { 40 },
            model: TrafficModel {
                size_max: if smoke { 150_000 } else { 600_000 },
                ..TrafficModel::cdn()
            },
            window: SimTime::from_secs(if smoke { 8 } else { 15 }),
            ..Default::default()
        };
        vec![Row {
            variant: "traffic",
            seeds: if smoke { vec![47] } else { vec![47, 48] },
            workload: format!(
                "<= {} Pareto-sized GET/stream flows over a {} s wavy-Poisson window",
                params.max_flows,
                params.window.as_secs_f64()
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let mut trng = SimRng::seed_from_u64(seed ^ TRAFFIC_SALT);
        let flows = p
            .model
            .sample(&mut trng, SimTime::from_millis(10), p.window, p.max_flows);

        let mut client =
            Host::new("client", StackConfig::default()).with_pm(Box::new(FullMeshPm::new()));
        let mut offered = 0u64;
        let mut streams = 0usize;
        for f in &flows {
            let app: Box<dyn App> = match f.class {
                FlowClass::ShortGet => {
                    offered += f.size;
                    Box::new(BulkSender::new(f.size).close_when_done())
                }
                FlowClass::Streaming => {
                    streams += 1;
                    // The stream sends whole blocks, so round the sampled
                    // size to what the app will actually write.
                    let blocks = (f.size / 16_384).clamp(1, 60);
                    offered += blocks * 16_384;
                    Box::new(StreamSender::new(16_384, Duration::from_millis(40), blocks))
                }
            };
            client.connect_at(f.start, Some(CLIENT_ADDR1), SERVER_ADDR, 80, app);
        }
        let net = topo::two_path(
            seed,
            client,
            sink_server(),
            LinkCfg::mbps_ms(20, 10),
            LinkCfg::mbps_ms(10, 25),
        );
        let mut sim = net.sim;
        let (summary, _) = checked_run(&mut sim, None, p.horizon, Self::NAME, seed);

        let mut delivered = 0u64;
        let mut server_conns = 0usize;
        for c in topo::host(&sim, net.server).stack.connections() {
            server_conns += 1;
            if let Some(s) = c.app().and_then(|a| a.as_any().downcast_ref::<Sink>()) {
                delivered += s.received;
            }
        }
        let drained_at =
            (summary.reason == StopReason::Idle).then(|| summary.ended_at.as_secs_f64());
        Run {
            summary,
            results: Results {
                flows: flows.len(),
                streams,
                offered,
                delivered,
                server_conns,
                drained_at,
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        format!(
            "flows={} streams={} offered={} delivered={} drained={:?}",
            r.flows, r.streams, r.offered, r.delivered, r.drained_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_params() -> Params {
        Params {
            max_flows: 14,
            // Keep the elephant tail short so the smoke run drains fast.
            model: TrafficModel {
                size_max: 150_000,
                ..TrafficModel::cdn()
            },
            window: SimTime::from_secs(8),
            horizon: SimTime::from_secs(60),
        }
    }

    #[test]
    fn cdn_mix_drains_oracle_clean_with_full_delivery() {
        let p = smoke_params();
        let r = Cdn::run(&p, 47).results;
        assert!(r.flows >= 5, "model scheduled a real mix: {}", r.flows);
        assert_eq!(r.server_conns, r.flows, "every flow arrived");
        assert_eq!(r.delivered, r.offered, "every offered byte delivered");
        assert!(r.drained_at.is_some(), "the mix drained within the horizon");
    }

    #[test]
    fn cdn_mix_contains_both_flow_classes() {
        let p = Params {
            max_flows: 40,
            ..smoke_params()
        };
        let r = Cdn::run(&p, 47).results;
        assert!(r.streams > 0, "some flows stream");
        assert!(r.streams < r.flows, "most flows are GETs");
    }

    #[test]
    fn cdn_is_deterministic_per_seed() {
        let p = smoke_params();
        let (a, b) = (Cdn::run(&p, 47), Cdn::run(&p, 47));
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.results.delivered, b.results.delivered);
        let c = Cdn::run(&p, 48);
        assert!(c.summary != a.summary, "different seed, different trajectory");
    }
}
