//! One repetition of a workload, and what is read from it.
//!
//! Closed loop, one thread: a job starts when the previous one ends.

use std::time::Instant;

use crate::alloc;
use crate::bind::{run_job, Job, Mode, Outcome, Paper, Sizes};
use crate::stats::{mean, quantile};

/// One repetition: every job of the workload, run once in order.
pub struct Rep {
    /// Host seconds of the whole repetition — build worlds, `run_until`,
    /// `verify::conclude`, read results.
    pub wall_s: f64,
    /// Heap allocations made during the repetition.
    pub allocs: u64,
    pub jobs: Vec<Job>,
    pub outcomes: Vec<Outcome>,
}

/// Run every job of `jobs` once. `t0` is the origin of span times.
pub fn run_rep(jobs: &[Job], sizes: &Sizes, mode: Mode, t0: Instant) -> Rep {
    let (started, allocs_before) = (Instant::now(), alloc::count());
    let outcomes: Vec<Outcome> = jobs
        .iter()
        .enumerate()
        .map(|(id, &job)| run_job(job, sizes, mode, id as u32, t0))
        .collect();
    Rep {
        wall_s: started.elapsed().as_secs_f64(),
        allocs: alloc::count() - allocs_before,
        jobs: jobs.to_vec(),
        outcomes,
    }
}

/// The simulated-time outputs of a repetition: deterministic per seed,
/// identical between repetitions of the same code.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutputs {
    /// Mean application goodput over the workload's transfers, Mb/s.
    pub goodput_mbps: f64,
    /// Mean and 95th percentile latency of the workload's transactions.
    pub txn_ms_mean: f64,
    pub txn_ms_p95: f64,
    pub transfers: usize,
    pub txns: usize,
    /// The paper's own figures, concatenated over the jobs.
    pub paper: Paper,
}

impl Rep {
    /// `(kind, seed, simulated time)` and the reason, for each failed job.
    pub fn failures(&self) -> Vec<String> {
        self.jobs
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(job, out)| {
                out.failure.as_ref().map(|why| {
                    format!(
                        "({}, seed {}, t={:.6}s): {why}",
                        job.kind.label(),
                        job.seed,
                        out.summary.ended_ns as f64 / 1e9
                    )
                })
            })
            .collect()
    }

    pub fn sim_outputs(&self) -> SimOutputs {
        let cat = |f: fn(&Outcome) -> &Vec<f64>| -> Vec<f64> {
            self.outcomes
                .iter()
                .flat_map(|o| f(o).iter().copied())
                .collect()
        };
        let goodput = cat(|o| &o.goodput_mbps);
        let txn = cat(|o| &o.txn_ms);
        SimOutputs {
            goodput_mbps: mean(&goodput),
            txn_ms_mean: mean(&txn),
            txn_ms_p95: quantile(&txn, 0.95),
            transfers: goodput.len(),
            txns: txn.len(),
            paper: Paper {
                join_us_user: cat(|o| &o.paper.join_us_user),
                join_us_kernel: cat(|o| &o.paper.join_us_kernel),
                get_ms: cat(|o| &o.paper.get_ms),
                switch_ms: cat(|o| &o.paper.switch_ms),
                block_ms: cat(|o| &o.paper.block_ms),
            },
        }
    }

    /// Host nanoseconds inside the three timed phases of every job
    /// (build, `run_until`, `conclude`) — the part of a repetition that is
    /// the same work on a timed and on a traced run.
    pub fn phase_ns(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.build_ns + o.run_ns + o.conclude_ns)
            .sum()
    }

    /// True when `other` followed exactly the same trajectory: same
    /// `RunSummary` per job, same bytes, same simulated-time outputs.
    /// Joins are only observed on traced runs, so they are left out.
    pub fn same_trajectory(&self, other: &Rep) -> bool {
        let key = |r: &Rep| {
            let mut sim = r.sim_outputs();
            sim.paper.join_us_user.clear();
            sim.paper.join_us_kernel.clear();
            let per_job: Vec<_> = r
                .outcomes
                .iter()
                .map(|o| (o.summary.clone(), o.delivered_bytes))
                .collect();
            (per_job, sim)
        };
        key(self) == key(other)
    }
}
