//! `perf_report` — the perf trajectory's measurement binary.
//!
//! Drives the full scenario×seed matrix (every scenario in
//! `smapp_bench::scenarios::REGISTRY`) through
//! the deterministic multi-core sweep engine, twice: once at `--jobs 1`
//! for single-thread throughput and allocations/event, once at `--jobs N`
//! for aggregate matrix wall-time — asserting the two passes produce
//! bit-identical trajectories. Prints the per-row table; writes the report
//! JSON only when given `--out`.
//!
//! Usage:
//!
//! ```text
//! perf_report [--smoke] [--jobs N] [--out PATH]
//! ```
//!
//! `--jobs` defaults to the machine's available parallelism. `--smoke`
//! runs reduced workloads (seconds, for CI liveness) and skips the
//! baseline comparison; the default full mode is the configuration the
//! PR-3 acceptance numbers come from. Exits non-zero if a full run's fig2c
//! trajectory diverges from the recorded `524cdc6` baseline, or if the
//! parallel pass diverges from the sequential pass in any mode — a speedup
//! that changes simulation results is a bug, not a speedup.

use smapp_bench::count_alloc::CountingAlloc;
use smapp_bench::{perf, sweep};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--jobs takes a number").max(1))
        .unwrap_or_else(sweep::default_jobs);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1));

    let report = perf::run_all(smoke, jobs);
    print!("{}", report.render());

    if let Some(out) = out {
        std::fs::write(out, report.to_json()).expect("write report JSON");
        println!("wrote {out}");
    }

    if !report.parallel_parity {
        eprintln!("FATAL: --jobs {jobs} trajectories diverged from --jobs 1");
        std::process::exit(1);
    }
    if report.fig2c_parity == Some(false) {
        eprintln!("FATAL: fig2c trajectory diverged from the recorded baseline");
        std::process::exit(1);
    }
}
