//! Tier-1 determinism gate for the sweep engine: the same scenario×seed
//! matrix run at `--jobs 1` and `--jobs 4` must produce byte-identical
//! per-seed trajectories and identical `RunSummary`s — thread count and
//! completion order must be unobservable in the results.

use smapp_bench::perf::paper_matrix;
use smapp_bench::sweep::{parity, Matrix};

/// The registry's smoke matrix — every scenario, paper and beyond — widened
/// to at least two seeds per row (same seed + script must be bit-identical
/// at any worker count). Cell runtimes are deliberately uneven (fig2a ~1 k
/// events, fig3 and flap tens of thousands), so parallel completion order
/// differs from job order.
fn mini_matrix() -> Matrix {
    let mut matrix = paper_matrix(true);
    for entry in &mut matrix.entries {
        if entry.seeds.len() < 2 {
            entry.seeds.push(entry.seeds[0] + 1);
        }
    }
    matrix
}

#[test]
fn jobs1_and_jobs4_agree_bit_for_bit() {
    let matrix = mini_matrix();
    let seq = matrix.run(1);
    let par = matrix.run(4);
    assert_eq!(seq.len(), matrix.len());

    // Engine-level verdict…
    assert!(
        parity(&seq, &par),
        "parallel results diverged from sequential"
    );

    // …and the explicit per-cell statement of what that means: identical
    // RunSummary (events, end time, stop reason, peak queue) and
    // byte-identical trajectory strings, in identical order.
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(
            (a.scenario, a.variant, a.seed),
            (b.scenario, b.variant, b.seed),
            "result order must be stable"
        );
        assert_eq!(
            a.run.summary, b.run.summary,
            "{}/{} seed {}: RunSummary differs",
            a.scenario, a.variant, a.seed
        );
        assert_eq!(
            a.run.trajectory.as_bytes(),
            b.run.trajectory.as_bytes(),
            "{}/{} seed {}: trajectory differs",
            a.scenario,
            a.variant,
            a.seed
        );
    }

    // Rerunning parallel again is also stable (no hidden global state).
    let par2 = matrix.run(4);
    assert!(parity(&par, &par2));
}
