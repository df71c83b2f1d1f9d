//! Fuzz — randomized generated scenarios under the protocol-invariant
//! oracle, as a first-class registered scenario.
//!
//! The generator lives in [`crate::fuzz`]; this module is the thin
//! scenario adapter that puts a slice of the committed fixed-seed corpus
//! into the perf/sweep matrix, so every `perf_report` run and every
//! registry-driven tier-1 test executes generated scenarios with the
//! oracle enabled alongside the hand-written ones. The full corpus runs in
//! the dedicated `fuzz` binary / CI job.

use super::{Row, Run, Scenario};
use crate::fuzz::{default_corpus, run_case, CaseOutcome};

/// The generated-scenario corpus slice. Unlike the hand-written scenarios
/// it goes through [`run_case`] rather than the shared checked runner,
/// because a fuzz case must *report* its violations (in
/// [`CaseOutcome::violations`]; a `viol=` count other than zero fails the
/// tier-1 `oracle_clean` and smoke-report tests) instead of panicking on
/// the first one.
pub struct Fuzz;

impl Scenario for Fuzz {
    const NAME: &'static str = "fuzz";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.462 -> 0.334 full, 0.522 -> 0.411 smoke;
    // ceiling is 2x the higher one.
    // Timers re-armed in place, PM events swapped instead of re-grown,
    // `events` counting dispatches only: 0.357 -> 0.351 smoke, 0.283 -> 0.274 full;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.351 -> 0.338 smoke, 0.274 -> 0.259 full; ceiling is 2x the higher one.
    // Wire buffers in one allocation, pooled per size class:
    // 0.338 -> 0.102 smoke, 0.259 -> 0.114 full; ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.102 -> 0.092 smoke, 0.122 -> 0.105 full; ceiling is 2x the higher one.
    // Info replies built in per-thread scratch and decoded in place:
    // 0.08793 -> 0.08783 smoke, 0.08833 -> 0.08778 full; ceiling is 1.5x the higher one.
    // World storage (simulator, oracle, host tables) spared per thread:
    // 0.0878 -> 0.0609 smoke, 0.0962 -> 0.0522 full; ceiling is 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.092;
    /// A case is derived from its seed alone.
    type Params = ();
    type Results = CaseOutcome;

    /// `n` seeds from the front of the committed corpus (smoke keeps it
    /// small; the `fuzz` bin runs everything).
    fn rows(smoke: bool) -> Vec<Row<()>> {
        let n = if smoke { 4 } else { 12 };
        vec![Row {
            variant: "corpus",
            params: (),
            seeds: default_corpus().into_iter().take(n).collect(),
            workload: format!(
                "{n} generated (topology x dynamics x controller) cases, oracle on"
            ),
        }]
    }

    fn run(_: &(), seed: u64) -> Run<CaseOutcome> {
        let out = run_case(seed);
        Run {
            summary: out.summary,
            results: out,
        }
    }

    fn trajectory(run: &Run<CaseOutcome>) -> String {
        let out = &run.results;
        format!(
            "viol={} delivered={} cov_bits={} {}",
            out.violations.len(),
            out.delivered,
            out.coverage.count(),
            out.desc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_slice_is_a_corpus_prefix() {
        let s = &Fuzz::rows(true)[0].seeds;
        assert_eq!(s.len(), 4);
        assert_eq!(*s, default_corpus()[..4].to_vec());
    }
}
