//! Figure 3 — "Kernel path manager is slightly faster than user space path
//! manager to open a second subflow."
//!
//! "The client performs one thousand consecutive HTTP/1.0 GET queries for
//! a 512 KB file. [...] We measure the delay between the SYN of the
//! initial subflow (i.e., containing the MP_CAPABLE option) and the SYN of
//! the second subflow (i.e., containing the MP_JOIN option)." Both
//! managers create the second subflow immediately at establishment; the
//! userspace one pays two netlink boundary crossings — "on average, the
//! user space path manager increases the delay by 23 microseconds",
//! staying below 37 µs under CPU stress.

use std::cell::RefCell;
use std::rc::Rc;

use smapp::{ControllerRuntime, NdiffportsController};
use smapp_mptcp::apps::{GetClient, GetProgress, GetServer};
use smapp_mptcp::StackConfig;
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, SERVER_ADDR};
use smapp_pm::{Host, NdiffportsPm};
use smapp_sim::{LinkCfg, SimTime};

use super::{checked_run, sink_as, Row, Run, Scenario};
use crate::stats::Cdf;
use crate::sweep::digest_f64s;
use crate::trace::HandshakeTraceSink;

/// Which path manager creates the second subflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manager {
    /// In-kernel ndiffports.
    Kernel,
    /// Userspace controller behind the netlink boundary.
    Userspace,
}

/// Parameters of one Fig. 3 series.
#[derive(Debug, Clone)]
pub struct Params {
    /// Consecutive GETs (paper: 1000).
    pub gets: u32,
    /// Response size (paper: 512 KB).
    pub response: u64,
    /// Manager under test.
    pub manager: Manager,
    /// Model a CPU-stressed host (the paper's stress experiment).
    pub stressed: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            gets: 1000,
            response: 512 * 1024,
            manager: Manager::Kernel,
            stressed: false,
        }
    }
}

/// Results of one Fig. 3 series.
#[derive(Debug)]
pub struct Results {
    /// CAPA→JOIN deltas, microseconds.
    pub deltas: Cdf,
    /// GET cycles completed.
    pub completed: u32,
}

/// The Fig. 3 experiment.
pub struct Fig3;

impl Scenario for Fig3 {
    const NAME: &'static str = "fig3";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.026 -> 0.015 full, 0.035 -> 0.018 smoke;
    // ceiling is 2x the higher one.
    // Timers re-armed in place, PM events swapped instead of re-grown,
    // `events` counting dispatches only: 0.018 -> 0.016 smoke, 0.016 -> 0.014 full;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.0157 -> 0.0056 smoke, 0.0141 -> 0.0028 full; ceiling is 2x the higher one.
    // World storage (simulator, oracle, host tables) spared per thread:
    // 0.0056 -> 0.0049 smoke, 0.0028 -> 0.0027 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.0074;
    type Params = Params;
    type Results = Results;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        [
            ("kernel", Manager::Kernel),
            ("userspace", Manager::Userspace),
        ]
        .into_iter()
        .map(|(variant, manager)| {
            let params = Params {
                gets: if smoke { 20 } else { 300 },
                manager,
                ..Default::default()
            };
            Row {
                variant,
                seeds: vec![7],
                workload: format!("{} consecutive 512 KB GETs, {variant} PM", params.gets),
                params,
            }
        })
        .collect()
    }

    fn run(p: &Params, seed: u64) -> Run<Results> {
        let latency = if p.stressed {
            LatencyModel::stressed_host()
        } else {
            LatencyModel::idle_host()
        };
        let mut client = match p.manager {
            Manager::Kernel => {
                Host::new("client", StackConfig::default()).with_pm(Box::new(NdiffportsPm::new(2)))
            }
            Manager::Userspace => Host::new("client", StackConfig::default()).with_user(
                ControllerRuntime::boxed(NdiffportsController::new(2)),
                latency,
            ),
        };
        let progress = Rc::new(RefCell::new(GetProgress::default()));
        client.connect_at(
            SimTime::from_millis(1),
            None,
            SERVER_ADDR,
            80,
            Box::new(GetClient {
                remaining: p.gets - 1,
                request_size: 100,
                dst: SERVER_ADDR,
                dst_port: 80,
                progress: Rc::clone(&progress),
                stop_when_done: true,
            }),
        );
        let response = p.response;
        let mut server = Host::new("server", StackConfig::default());
        server.listen(80, Box::new(move || Box::new(GetServer::new(response))));

        // 1 Gb/s lab link, 50 µs one-way (the paper's direct Ethernet cable).
        let lab = LinkCfg::new(1_000_000_000, std::time::Duration::from_micros(50));
        let net = topo::two_path(seed, client, server, lab.clone(), lab);
        let mut sim = net.sim;
        let (summary, sink) = checked_run(
            &mut sim,
            Some(Box::new(HandshakeTraceSink::new(net.client))),
            SimTime::from_secs(3600),
            Self::NAME,
            seed,
        );
        let deltas_us = sink_as::<HandshakeTraceSink>(&sink)
            .deltas
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let completed = progress.borrow().completed;
        Run {
            summary,
            results: Results {
                deltas: Cdf::new(deltas_us),
                completed,
            },
        }
    }

    fn trajectory(run: &Run<Results>) -> String {
        let r = &run.results;
        format!(
            "joins={} digest={:016x} completed={}",
            r.deltas.len(),
            digest_f64s(&r.deltas.samples),
            r.completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(p: Params) -> Results {
        Fig3::run(&p, 7).results
    }

    #[test]
    fn fig3_userspace_penalty_small() {
        let gets = 60;
        let k = series(Params {
            gets,
            response: 128 * 1024,
            manager: Manager::Kernel,
            ..Default::default()
        });
        let u = series(Params {
            gets,
            response: 128 * 1024,
            manager: Manager::Userspace,
            ..Default::default()
        });
        assert_eq!(k.completed, gets);
        assert_eq!(u.completed, gets);
        let (kernel, user) = (k.deltas, u.deltas);
        assert_eq!(kernel.len(), gets as usize, "one JOIN per connection");
        assert_eq!(user.len(), gets as usize);
        let penalty = user.mean() - kernel.mean();
        // The paper: ≈23 µs on an idle host. Accept a 5–60 µs band (our
        // latency model is calibrated, not fitted).
        assert!(
            (5.0..60.0).contains(&penalty),
            "userspace penalty {penalty:.1}us outside the plausible band \
             (kernel {}; user {})",
            kernel.summary("k"),
            user.summary("u")
        );
        // The whole user CDF sits right of the kernel CDF.
        assert!(user.median() > kernel.median());
    }

    #[test]
    fn fig3_stress_increases_penalty_but_bounded() {
        let gets = 40;
        let kernel = series(Params {
            gets,
            response: 64 * 1024,
            manager: Manager::Kernel,
            ..Default::default()
        })
        .deltas;
        let stressed = series(Params {
            gets,
            response: 64 * 1024,
            manager: Manager::Userspace,
            stressed: true,
        })
        .deltas;
        let penalty = stressed.mean() - kernel.mean();
        assert!(
            penalty < 80.0,
            "stressed penalty stays bounded: {penalty:.1}us"
        );
        assert!(penalty > 10.0, "stress costs more: {penalty:.1}us");
    }
}
