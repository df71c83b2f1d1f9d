//! The deterministic multi-core sweep engine.
//!
//! Every experiment in this repo is an embarrassingly parallel matrix of
//! `(scenario × seed × parameter override)` runs: each cell builds its own
//! simulation world from a seed and runs it to completion, sharing nothing
//! with any other cell. This module executes that matrix across all cores
//! while keeping the *output* bit-identical to a sequential run:
//!
//! * **Worlds are thread-confined.** A job is a `Send` *builder closure*;
//!   the worker thread that picks it up constructs the world locally, so
//!   single-threaded internals (`Rc<RefCell<…>>` app state, `RefCell`-free
//!   but `!Sync` simulator guts) never cross a thread boundary.
//! * **Results come back in job order.** Workers write each result into
//!   the slot reserved for its job index; the engine returns the slots in
//!   index order. Completion order — which *does* vary with thread count
//!   and machine load — is unobservable in the output.
//! * **No new dependencies.** The pool is `std::thread::scope` over an
//!   atomic work-stealing counter; `--jobs 1` runs inline on the caller's
//!   thread (no pool, identical to a plain `for` loop — this is the mode
//!   used for single-thread perf measurements).
//!
//! [`run_jobs`] is the raw engine; [`Matrix`] is the declarative layer the
//! perf harness feeds: scenario constructors × seed lists, expanded in
//! stable order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use smapp_sim::RunSummary;

use crate::count_alloc;

/// A boxed unit of work: builds a world, runs it, returns its result.
/// The lifetime lets jobs borrow the matrix that spawned them — workers
/// run inside [`std::thread::scope`], which outlives no borrow.
pub type JobFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// How many workers to use by default: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `jobs` on `workers` threads, returning results **in job order**
/// regardless of completion order or worker count.
///
/// `workers <= 1` runs every job inline on the calling thread — byte-for-
/// byte the sequential loop, with zero threading overhead. With more
/// workers, a scoped pool pulls job indices from a shared atomic counter
/// (dynamic load balancing: long jobs don't convoy short ones) and each
/// result lands in its job's dedicated slot.
pub fn run_jobs<'a, T: Send>(jobs: Vec<JobFn<'a, T>>, workers: usize) -> Vec<T> {
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let queue: Vec<Mutex<Option<JobFn<'a, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let n_workers = workers.min(queue.len());
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queue.len() {
                    break;
                }
                let job = queue[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let out = job();
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker died before writing its result")
        })
        .collect()
}

/// What one matrix cell produces: the simulator's run summary plus a
/// deterministic rendering of the scenario's per-seed trajectory. Two runs
/// of the same cell must produce identical `ScenarioRun`s; the parity
/// check compares them byte for byte across `--jobs` settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// The simulator's summary (events, end time, peak queue depth).
    pub summary: RunSummary,
    /// Deterministic trajectory encoding (scenario-specific; includes a
    /// digest of the full metric series, not just aggregates).
    pub trajectory: String,
}

/// One row of the declarative job matrix: a scenario constructor and the
/// seeds to run it under. Parameter overrides are baked into the closure
/// (each variant of a scenario is its own entry with its own label).
pub struct MatrixEntry {
    /// Scenario name (`fig2a`, `fig2c`, `fleet`, …).
    pub scenario: &'static str,
    /// Parameter-override label (`refresh`, `kernel`, `giveup15`, …);
    /// empty when the scenario has a single configuration.
    pub variant: &'static str,
    /// Seeds to run, one job per seed.
    pub seeds: Vec<u64>,
    /// Human-readable workload description, for reports.
    pub workload: String,
    /// Scenario constructor: builds the world for one seed **on the worker
    /// thread** and runs it.
    pub build: Box<dyn Fn(u64) -> ScenarioRun + Send + Sync>,
}

/// One completed matrix cell, in stable `(entry, seed)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Scenario name of the owning entry.
    pub scenario: &'static str,
    /// Variant label of the owning entry.
    pub variant: &'static str,
    /// The seed this cell ran under.
    pub seed: u64,
    /// The deterministic scenario output.
    pub run: ScenarioRun,
    /// Wall-clock seconds this cell took on its worker.
    pub wall_s: f64,
    /// Heap allocations during the cell (meaningful at `--jobs 1`, where
    /// the process-wide counter is not shared with concurrent cells).
    pub allocs: u64,
    /// The most heap the cell held at once beyond what was live when it
    /// started, in bytes (meaningful at `--jobs 1`, like `allocs`).
    pub peak_live_bytes: u64,
}

/// A declarative scenario×seed matrix.
pub struct Matrix {
    /// The rows; expansion and result order follow insertion order.
    pub entries: Vec<MatrixEntry>,
}

impl Matrix {
    /// Total number of jobs the matrix expands to.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|e| e.seeds.len()).sum()
    }

    /// True when no entry has any seed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute the matrix on `workers` threads. Results are in stable
    /// `(entry index, seed index)` order — independent of worker count and
    /// completion order.
    pub fn run(&self, workers: usize) -> Vec<SweepResult> {
        let mut jobs: Vec<JobFn<'_, SweepResult>> = Vec::with_capacity(self.len());
        for entry in &self.entries {
            for &seed in &entry.seeds {
                let build = &entry.build;
                let (scenario, variant) = (entry.scenario, entry.variant);
                jobs.push(Box::new(move || {
                    let allocs0 = count_alloc::allocs();
                    let live0 = count_alloc::live_bytes();
                    count_alloc::reset_peak();
                    let t0 = Instant::now();
                    let run = build(seed);
                    let wall_s = t0.elapsed().as_secs_f64();
                    let allocs = count_alloc::allocs().saturating_sub(allocs0);
                    let peak_live_bytes = count_alloc::peak_live_bytes().saturating_sub(live0);
                    SweepResult {
                        scenario,
                        variant,
                        seed,
                        run,
                        wall_s,
                        allocs,
                        peak_live_bytes,
                    }
                }));
            }
        }
        run_jobs(jobs, workers)
    }
}

/// Do two sweep passes agree bit-for-bit? Compares everything except the
/// wall-clock and allocation measurements (which legitimately vary).
pub fn parity(a: &[SweepResult], b: &[SweepResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.scenario == y.scenario
                && x.variant == y.variant
                && x.seed == y.seed
                // Full structural equality: trajectory string plus every
                // RunSummary field (events, end time, stop reason, peak).
                && x.run == y.run
        })
}

/// FNV-1a over raw bytes — used by scenarios to fold a full metric series
/// into the trajectory string, so parity checks cover every sample, not
/// just aggregates.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest a series of `f64` samples (bit-exact, order-sensitive).
pub fn digest_f64s(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest a `(seconds, data seq, path)` sequence trace (bit-exact,
/// order-sensitive) — the rows [`crate::trace::SeqTraceSink`] collects.
pub(crate) fn digest_rows(rows: &[(f64, u64, usize)]) -> u64 {
    let mut bytes = Vec::with_capacity(rows.len() * 24);
    for (t, seq, path) in rows {
        bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(*path as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_job_order_not_completion_order() {
        // Job 0 sleeps long enough that, with 2+ workers, jobs 1..4 finish
        // first. The result vector must still lead with job 0's output.
        let finished = std::sync::Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobFn<'static, (usize, u64)>> = (0..5)
            .map(|i| {
                let finished = std::sync::Arc::clone(&finished);
                let f: JobFn<'static, (usize, u64)> = Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(120));
                    }
                    let rank = finished.fetch_add(1, Ordering::SeqCst);
                    (i, rank)
                });
                f
            })
            .collect();
        let out = run_jobs(jobs, 2);
        let ids: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "stable job order");
        // Sanity: the sleeper did not finish first, i.e. the stable order
        // was *not* simply completion order.
        assert!(
            out[0].1 > 0,
            "job 0 should complete after at least one other job (completion ranks: {out:?})"
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mk = || -> Vec<JobFn<'static, u64>> {
            (0..16)
                .map(|i| {
                    let f: JobFn<'static, u64> = Box::new(move || {
                        // Deterministic per-job computation.
                        let mut x = i as u64 + 1;
                        for _ in 0..1000 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                        }
                        x
                    });
                    f
                })
                .collect()
        };
        let seq = run_jobs(mk(), 1);
        let par4 = run_jobs(mk(), 4);
        let par9 = run_jobs(mk(), 9);
        assert_eq!(seq, par4);
        assert_eq!(seq, par9);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<JobFn<'static, usize>> = (0..3usize)
            .map(|i| Box::new(move || i) as JobFn<'static, usize>)
            .collect();
        assert_eq!(run_jobs(jobs, 64), vec![0, 1, 2]);
        assert_eq!(
            run_jobs(Vec::<JobFn<'static, usize>>::new(), 4),
            Vec::<usize>::new()
        );
    }

    fn entry(
        scenario: &'static str,
        variant: &'static str,
        seeds: Vec<u64>,
        peak_queue: usize,
    ) -> MatrixEntry {
        MatrixEntry {
            scenario,
            variant,
            seeds,
            workload: String::new(),
            build: Box::new(move |seed| ScenarioRun {
                summary: RunSummary {
                    reason: smapp_sim::StopReason::Idle,
                    ended_at: smapp_sim::SimTime::from_millis(seed),
                    events: seed,
                    stale: 0,
                    requeued: 0,
                    peak_queue,
                },
                trajectory: format!("seed={seed}"),
            }),
        }
    }

    #[test]
    fn matrix_expands_in_stable_order() {
        let m = Matrix {
            entries: vec![entry("a", "x", vec![10, 11], 1), entry("b", "", vec![7], 2)],
        };
        assert_eq!(m.len(), 3);
        let r1 = m.run(1);
        let r4 = m.run(4);
        let keys: Vec<_> = r1.iter().map(|r| (r.scenario, r.variant, r.seed)).collect();
        assert_eq!(keys, vec![("a", "x", 10), ("a", "x", 11), ("b", "", 7)]);
        assert!(parity(&r1, &r4), "jobs=1 and jobs=4 must agree");
    }

    #[test]
    fn digests_are_order_sensitive_and_stable() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
        assert_eq!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[1.0, 2.0]));
        assert_ne!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[2.0, 1.0]));
        // Bit-exact: -0.0 and 0.0 differ.
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
    }
}
