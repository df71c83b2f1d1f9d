//! Self-tests of the benchmark, all on `--quick` sizes: repetitions and
//! processes repeat exactly, decorators are trajectory-neutral, every
//! printed name is declared in `BENCHMARK.json` (and nothing declared is
//! missing), failed jobs are counted instead of aborting the run.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use smapp_benchmark::bind::{run_job, Job, Kind, Mode, Sizes};
use smapp_benchmark::json::Json;
use smapp_benchmark::ledger::sum_layers;
use smapp_benchmark::measure::{run_rep, Rep};
use smapp_benchmark::metrics::{declared, Decl};
use smapp_benchmark::workloads::jobs;

fn rep(workload: &str, seed: u64, mode: Mode) -> Rep {
    let jobs = jobs(workload, seed, true).expect("a declared workload");
    run_rep(&jobs, &Sizes::quick(), mode, Instant::now())
}

#[test]
fn repetitions_of_one_seed_follow_one_trajectory() {
    for name in &declared().workloads {
        let (a, b) = (rep(name, 0, Mode::Timed), rep(name, 0, Mode::Timed));
        assert_eq!(a.failures(), Vec::<String>::new(), "{name}");
        assert!(a.same_trajectory(&b), "{name}: same seed, same trajectory");
        let sim = a.sim_outputs();
        assert!(sim.goodput_mbps > 0.0 && sim.txn_ms_mean > 0.0 && sim.txn_ms_p95 > 0.0);
        let other = rep(name, 1, Mode::Timed);
        assert_eq!(other.failures(), Vec::<String>::new(), "{name} seed 1");
        assert!(
            !a.same_trajectory(&other),
            "{name}: the seed reaches the worlds"
        );
    }
}

#[test]
fn decorators_and_the_oracle_are_trajectory_neutral() {
    for name in &declared().workloads {
        let timed = rep(name, 0, Mode::Timed);
        let traced = rep(name, 0, Mode::Traced);
        let bare = rep(name, 0, Mode::OracleOff);
        assert_eq!(traced.failures(), Vec::<String>::new(), "{name} traced");
        assert_eq!(bare.failures(), Vec::<String>::new(), "{name} oracle off");
        assert!(
            timed.same_trajectory(&traced),
            "{name}: RunSummary, bytes and simulated outputs equal traced vs untraced"
        );
        assert!(timed.same_trajectory(&bare), "{name}: oracle on vs off");
        for out in &traced.outcomes {
            assert!(out.layers.is_some() && !out.spans.is_empty());
            for s in &out.spans {
                assert!(s.end_ns >= s.start_ns, "span {} closed", s.name);
            }
        }
    }
}

#[test]
fn expected_contrasts_hold() {
    // The two halves of get_chain use the PM layer differently.
    let chain = rep("get_chain", 0, Mode::Traced);
    let [kernel, user] =
        [&chain.outcomes[0], &chain.outcomes[1]].map(|o| o.layers.as_ref().unwrap());
    assert_eq!(kernel.user.busy_ns, 0, "no controller on the kernel half");
    assert!(kernel.pm.busy_ns > 0 && kernel.pm.events > 0);
    assert_eq!(user.pm.busy_ns, 0, "no kernel policy on the userspace half");
    assert!(user.user.busy_ns > 0 && user.user.to_user > 0 && user.user.to_kernel > 0);
    // One join per connection on either half, and the userspace one pays
    // the two boundary crossings.
    let sim = chain.sim_outputs();
    assert_eq!(
        sim.paper.join_us_kernel.len(),
        Sizes::quick().chain_gets as usize
    );
    assert_eq!(
        sim.paper.join_us_user.len(),
        Sizes::quick().chain_gets as usize
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let penalty = mean(&sim.paper.join_us_user) - mean(&sim.paper.join_us_kernel);
    assert!((5.0..60.0).contains(&penalty), "join penalty {penalty} us");

    // Handshake work is what separates get_chain from bulk_ecmp.
    let bulk = sum_layers(&rep("bulk_ecmp", 0, Mode::Traced));
    let chain = sum_layers(&chain);
    assert!(
        chain.syn_capable as f64 / chain.segs as f64
            > 10.0 * bulk.syn_capable as f64 / bulk.segs as f64
    );
    assert_eq!(bulk.pm.busy_ns, 0);

    // Only lossy_sweep loses packets to the loss model and switches over.
    let lossy = rep("lossy_sweep", 0, Mode::Traced);
    assert!(sum_layers(&lossy).drops_loss > 0);
    assert_eq!(lossy.sim_outputs().paper.switch_ms.len(), 3);
    assert_eq!(bulk.drops_loss, 0);
}

#[test]
fn a_failed_job_is_counted_and_named() {
    // An upload that ends before the loss starts never needs the backup
    // path: the job reports a failure instead of a switch time.
    let sizes = Sizes {
        handover_bytes: 1_000,
        ..Sizes::quick()
    };
    let jobs = [
        Job {
            kind: Kind::Handover,
            seed: 21,
            extra_bytes: 0,
        },
        Job {
            kind: Kind::Stream,
            seed: 1,
            extra_bytes: 0,
        },
    ];
    let rep = run_rep(&jobs, &sizes, Mode::Timed, Instant::now());
    let failures = rep.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("(handover, seed 21, t=") && failures[0].contains("never switched"),
        "{failures:?}"
    );
    assert!(rep.outcomes[1].failure.is_none(), "the next job still ran");
}

#[cfg(debug_assertions)]
#[test]
fn a_panicking_job_does_not_abort_the_run() {
    // Zero GETs underflows `gets - 1` in the world builder (debug builds
    // check arithmetic): the panic becomes a failed job.
    let sizes = Sizes {
        chain_gets: 0,
        ..Sizes::quick()
    };
    let job = Job {
        kind: Kind::ChainKernel,
        seed: 7,
        extra_bytes: 0,
    };
    let out = run_job(job, &sizes, Mode::Timed, 0, Instant::now());
    assert!(out
        .failure
        .as_deref()
        .is_some_and(|f| f.starts_with("panic:")));
}

// ---------------------------------------------------------------------
// The binary, as a driver calls it
// ---------------------------------------------------------------------

fn run_binary(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_smapp-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {:?}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(text.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn keys(v: &Json) -> BTreeSet<String> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn check_result(result: &Json, declared: &[Decl], what: &str) {
    let expect = ["attempted", "correct", "failed", "metrics"].map(String::from);
    assert_eq!(keys(result), BTreeSet::from(expect), "{what}");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    let names: BTreeSet<String> = declared.iter().map(|d| d.name.clone()).collect();
    assert_eq!(
        keys(metrics),
        names,
        "{what}: printed names are exactly the declared ones"
    );
    for d in declared {
        assert!(
            !d.name.is_empty()
                && d.name.len() <= 64
                && d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{} is a well-formed name",
            d.name
        );
        let m = metrics.get(&d.name).unwrap();
        assert_eq!(keys(m), BTreeSet::from(["unit", "value"].map(String::from)));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit.as_str()),
            "{}",
            d.name
        );
        let v = m.get("value").and_then(Json::as_f64).expect("a number");
        assert!(v.is_finite(), "{what}: {} is finite", d.name);
    }
}

/// The values that must repeat exactly between two processes.
fn exact(result: &Json, declared: &[Decl]) -> Vec<(String, f64)> {
    declared
        .iter()
        .filter(|d| !d.host_time())
        .map(|d| {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .and_then(|m| m.get("value"));
            (d.name.clone(), v.and_then(Json::as_f64).unwrap())
        })
        .collect()
}

#[test]
fn the_binary_prints_exactly_the_declared_metrics_and_repeats() {
    for name in &declared().workloads {
        let (a, b) = (run_binary(name, false), run_binary(name, false));
        let (end_to_end, per_layer) = (&declared().end_to_end, &declared().per_layer);
        check_result(&a, end_to_end, name);
        for d in end_to_end {
            let v = a.get("metrics").unwrap().get(&d.name).unwrap().get("value");
            assert!(
                v.and_then(Json::as_f64).unwrap() > 0.0,
                "{name}: {} is never 0",
                d.name
            );
        }
        assert_eq!(
            exact(&a, end_to_end),
            exact(&b, end_to_end),
            "{name}: allocs and simulated-time metrics repeat between processes"
        );
        let (a, b) = (run_binary(name, true), run_binary(name, true));
        check_result(&a, per_layer, name);
        assert_eq!(
            exact(&a, per_layer),
            exact(&b, per_layer),
            "{name}: layer counts and paper outputs repeat between processes"
        );
        let spans = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.json"));
        let spans = Json::parse(&std::fs::read_to_string(spans).expect("spans written")).unwrap();
        assert!(spans.get("spans").unwrap().as_arr().len() > 4);
    }
}
