//! `fuzz` — run the randomized-scenario corpus under the
//! protocol-invariant oracle, or mutate it toward unexplored behavior.
//!
//! Every seed case is derived purely from its seed (topology, link
//! parameters, path-manager mix, adversarial middlebox, traffic mix,
//! dynamics churn — see `smapp_bench::fuzz`), built with the wire oracle
//! and end-host taps enabled, and run to completion. Any invariant
//! violation fails the run with a replayable seed (or, for mutated
//! cases, the full case description) and a shrunken dynamics script
//! printed as copy-pasteable Rust.
//!
//! Usage:
//!
//! ```text
//! fuzz [--corpus PATH] [--cases N --start-seed S] [--jobs N]
//! fuzz --replay SEED            # one case, verbose, shrink on failure
//! fuzz --mutate [--minutes M] [--mutation-seed S]
//! ```
//!
//! With no arguments the committed corpus (`FUZZ_CORPUS.txt`) runs on all
//! cores — exactly what the CI fuzz-smoke job does. `--mutate` seeds the
//! coverage-guided engine from the corpus and mutates cases for the given
//! wall-time budget (default one minute) — exactly what the CI
//! fuzz-mutate job does.

use smapp_bench::count_alloc::CountingAlloc;
use smapp_bench::{fuzz, sweep};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let jobs = flag("--jobs")
        .map(|v| v.parse::<usize>().expect("--jobs takes a number").max(1))
        .unwrap_or_else(sweep::default_jobs);

    if let Some(seed) = flag("--replay") {
        let seed: u64 = seed.parse().expect("--replay takes a decimal seed");
        replay(seed);
        return;
    }

    let seeds: Vec<u64> = if let Some(path) = flag("--corpus") {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        fuzz::parse_corpus(&text)
    } else if let Some(n) = flag("--cases") {
        let n: u64 = n.parse().expect("--cases takes a number");
        let start: u64 = flag("--start-seed")
            .map(|s| s.parse().expect("--start-seed takes a number"))
            .unwrap_or(1);
        (start..start + n).collect()
    } else {
        fuzz::default_corpus()
    };

    if args.iter().any(|a| a == "--mutate") {
        let minutes = flag("--minutes")
            .map(|v| v.parse::<f64>().expect("--minutes takes a number"))
            .unwrap_or(1.0);
        let mutation_seed = flag("--mutation-seed")
            .map(|v| v.parse::<u64>().expect("--mutation-seed takes a number"))
            .unwrap_or(1);
        mutate(&seeds, mutation_seed, minutes);
        return;
    }

    let t0 = std::time::Instant::now();
    let outcomes = fuzz::run_corpus(&seeds, jobs);
    let wall = t0.elapsed().as_secs_f64();

    let total_events: u64 = outcomes.iter().map(|o| o.summary.events).sum();
    let delivered: u64 = outcomes.iter().map(|o| o.delivered).sum();
    let mut coverage = smapp_sim::Coverage::new();
    for o in &outcomes {
        coverage.union(&o.coverage);
    }
    let failing: Vec<&fuzz::CaseOutcome> = outcomes
        .iter()
        .filter(|o| !o.violations.is_empty())
        .collect();
    println!(
        "fuzz: {} cases in {wall:.2}s ({} sim events, {} bytes delivered, \
         {} feature bits, --jobs {jobs})",
        outcomes.len(),
        total_events,
        delivered,
        coverage.count()
    );
    if failing.is_empty() {
        println!("fuzz: oracle clean on every case");
        return;
    }

    for o in &failing {
        eprintln!("\nFAIL seed {} ({})", o.seed, o.desc);
        for v in &o.violations {
            eprintln!("  {v}");
        }
        report_shrunk(
            &fuzz::FuzzCase::derive(o.seed),
            &fuzz::FuzzOptions::default(),
        );
        eprintln!(
            "  replay: cargo run --release -p smapp-bench --bin fuzz -- --replay {}",
            o.seed
        );
    }
    eprintln!(
        "\nfuzz: {} of {} cases violated the oracle",
        failing.len(),
        outcomes.len()
    );
    std::process::exit(1);
}

/// Time-boxed coverage-guided mutation from the seed corpus. Exits
/// nonzero if any case — seed or mutant — violates the oracle.
fn mutate(seeds: &[u64], mutation_seed: u64, minutes: f64) {
    let t0 = std::time::Instant::now();
    let budget = std::time::Duration::from_secs_f64(minutes * 60.0);
    let mut m = fuzz::Mutator::from_seeds(seeds, mutation_seed, fuzz::FuzzOptions::default());
    println!(
        "mutate: seeded {} cases, {} feature bits, {:.2}s; mutating for {:.0}s",
        seeds.len(),
        m.baseline_coverage.count(),
        t0.elapsed().as_secs_f64(),
        budget.as_secs_f64()
    );
    let mut last_report = std::time::Instant::now();
    while t0.elapsed() < budget {
        m.step();
        if last_report.elapsed().as_secs() >= 10 {
            last_report = std::time::Instant::now();
            println!(
                "mutate: {} cases run, corpus {}, {} feature bits, {} failures",
                m.cases_run,
                m.corpus().len(),
                m.coverage.count(),
                m.failures.len()
            );
        }
    }
    println!(
        "mutate: done — {} cases run, {} interesting, {} -> {} feature bits, {} failures",
        m.cases_run,
        m.interesting,
        m.baseline_coverage.count(),
        m.coverage.count(),
        m.failures.len()
    );
    if m.failures.is_empty() {
        println!("mutate: oracle clean on every case");
        return;
    }
    let opts = fuzz::FuzzOptions::default();
    for f in &m.failures {
        eprintln!("\nFAIL (mutated case) {}", f.case.describe());
        eprintln!("  case: {:?}", f.case);
        for v in &f.violations {
            eprintln!("  {v}");
        }
        report_shrunk(&f.case, &opts);
    }
    eprintln!(
        "\nmutate: {} of {} cases violated the oracle",
        m.failures.len(),
        m.cases_run
    );
    std::process::exit(1);
}

/// Shrink a failing case's dynamics and print the kept entries as a
/// copy-pasteable Rust `NetemScript` snippet.
fn report_shrunk(case: &fuzz::FuzzCase, opts: &fuzz::FuzzOptions) {
    match fuzz::shrink_case(case, opts) {
        Some(s) => {
            eprintln!(
                "  shrunk dynamics to {} of {} entries; as Rust:",
                s.kept.len(),
                case.dynamics.len()
            );
            for line in fuzz::dynamics_snippet(case, &s.kept).lines() {
                eprintln!("    {line}");
            }
        }
        None => eprintln!("  (failure did not reproduce during shrinking)"),
    }
}

fn replay(seed: u64) {
    let case = fuzz::FuzzCase::derive(seed);
    println!("seed {seed}: {}", case.describe());
    for (i, d) in case.dynamics.iter().enumerate() {
        println!("  dyn[{i}] {d:?}");
    }
    let out = fuzz::run_case(seed);
    println!(
        "run: {:?} at t={} ({} events, {} bytes delivered, {} feature bits)",
        out.summary.reason,
        out.summary.ended_at,
        out.summary.events,
        out.delivered,
        out.coverage.count()
    );
    if out.violations.is_empty() {
        println!("oracle: clean");
        return;
    }
    for v in &out.violations {
        eprintln!("  {v}");
    }
    report_shrunk(&case, &fuzz::FuzzOptions::default());
    std::process::exit(1);
}
