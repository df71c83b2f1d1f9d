//! The job list one repetition of each workload runs. The workload names
//! (normative; later issues cite them) and the one-line reason each exists
//! are in `BENCHMARK.json`; README.md has the long form.

use crate::bind::{Job, Kind};

fn seeded(kind: Kind, base: u64, count: u64, seed: u64) -> impl Iterator<Item = Job> {
    // 0..8191 extra response bytes for chain worlds; 0 at seed 0, so the
    // default run is the Fig. 3 world exactly.
    let extra_bytes = match kind {
        Kind::ChainKernel | Kind::ChainUser => seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51,
        _ => 0,
    };
    (0..count).map(move |i| Job {
        kind,
        seed: (base + i).wrapping_add(seed),
        extra_bytes,
    })
}

/// The job list of one repetition of `workload`. `seed` is added to every
/// world seed; `quick` keeps the shape and cuts the counts.
pub fn jobs(workload: &str, seed: u64, quick: bool) -> Option<Vec<Job>> {
    let n = |full: u64, small: u64| if quick { small } else { full };
    Some(match workload {
        "bulk_ecmp" => seeded(Kind::Bulk, 100, n(12, 2), seed).collect(),
        "get_chain" => seeded(Kind::ChainKernel, 7, 1, seed)
            .chain(seeded(Kind::ChainUser, 7, 1, seed))
            .collect(),
        "fleet" => seeded(Kind::Fleet, 1, 1, seed).collect(),
        "lossy_sweep" => seeded(Kind::Handover, 21, n(120, 3), seed)
            .chain(seeded(Kind::Stream, 1, n(120, 3), seed))
            .collect(),
        _ => return None,
    })
}
