//! Tier-1 cross-commit trajectory pin: the smoke matrix, one line per
//! cell, must reproduce `tests/data/smoke_matrix.txt` byte for byte. The
//! jobs-parity suite only compares a build with itself; this compares it
//! with the commit that recorded the file, so a refactor that shifts any
//! scenario's per-seed trajectory fails here. When a change is *meant* to
//! move a trajectory, the failure prints the regenerated file — paste it
//! over the golden.

use smapp_bench::perf::paper_matrix;

#[test]
fn smoke_matrix_matches_the_committed_golden() {
    let mut dump = String::new();
    for r in paper_matrix(true).run(1) {
        let s = &r.run.summary;
        dump.push_str(&format!(
            "{}/{} {} {} {} {} {:?} {}\n",
            r.scenario,
            r.variant,
            r.seed,
            s.events,
            s.ended_at.as_nanos(),
            s.peak_queue,
            s.reason,
            r.run.trajectory
        ));
    }
    assert!(
        dump == include_str!("data/smoke_matrix.txt"),
        "smoke matrix diverged from tests/data/smoke_matrix.txt \
         (scenario/variant seed events ended_at_ns peak_queue stop_reason \
         trajectory); regenerated file follows:\n{dump}"
    );
}
