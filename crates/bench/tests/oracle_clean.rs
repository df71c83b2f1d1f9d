//! Tier-1 guard: every registered scenario runs under the
//! protocol-invariant oracle, clean, over its smoke rows.
//!
//! The scenarios' shared checked runner calls
//! `smapp_pm::verify::conclude(...).expect_clean()` after every run, so
//! simply *running* each one at smoke size exercises the wire oracle (time
//! monotonicity, link conservation, TCP/MPTCP wire sanity) and the
//! end-host taps (stream digests, DSS coverage, buffer/sequence bounds) —
//! a violation panics with the replayable `(scenario, seed, time)` triple.
//!
//! The first test runs the registry's smoke matrix, so a new scenario is
//! covered by registering it; the second keeps the per-scenario outcome
//! checks that need typed results.

use smapp_bench::perf::paper_matrix;
use smapp_bench::scenarios::cdn::Cdn;
use smapp_bench::scenarios::fig3::Fig3;
use smapp_bench::scenarios::fleet::Fleet;
use smapp_bench::scenarios::fuzz::Fuzz;
use smapp_bench::scenarios::middlebox::Middlebox;
use smapp_bench::scenarios::{Run, Scenario};

#[test]
fn every_registered_scenario_runs_oracle_clean() {
    // Any oracle violation panics inside the scenario's runner.
    for cell in paper_matrix(true).run(1) {
        let (scenario, variant, seed) = (cell.scenario, cell.variant, cell.seed);
        assert!(
            cell.run.summary.events > 0,
            "{scenario}/{variant} seed {seed} processed no events"
        );
    }
}

/// Every smoke cell of `S`, with the parameters it ran under.
fn smoke<S: Scenario>() -> Vec<(S::Params, Run<S::Results>)> {
    let mut runs = Vec::new();
    for row in S::rows(true) {
        for &seed in &row.seeds {
            runs.push((row.params.clone(), S::run(&row.params, seed)));
        }
    }
    runs
}

#[test]
fn smoke_runs_reach_their_scenario_specific_outcome() {
    for (p, run) in smoke::<Fig3>() {
        assert_eq!(run.results.completed, p.gets, "fig3 workload completes");
    }
    for (_, run) in smoke::<Middlebox>() {
        assert!(run.results.fallback, "stripping forces fallback");
    }
    for (_, run) in smoke::<Cdn>() {
        let r = run.results;
        assert!(r.flows > 0 && r.delivered == r.offered, "{r:?}");
    }
    for (_, run) in smoke::<Fleet>() {
        assert!(run.results.completed > 0, "{:?}", run.results);
    }
    for (_, run) in smoke::<Fuzz>() {
        let v = run.results.violations;
        assert!(v.is_empty(), "seed {}: {v:?}", run.results.seed);
    }
}

/// Every member of the adversarial middlebox family — the four rewriters
/// and the three flood mixes — runs oracle-clean with full delivery on a
/// fixed smoke case. The fuzzer explores these knobs randomly; this pins
/// each one individually so a family member cannot silently break (or
/// silently stop rewriting) outside a fuzz run.
#[test]
fn adversarial_middlebox_family_runs_oracle_clean() {
    use smapp_bench::fuzz::{feat, run_case_opts, FuzzCase, FuzzOptions, Rewrite, Strip};
    use smapp_sim::adversary::FloodMix;
    use smapp_sim::LinkCfg;

    let base = || {
        let mut c = FuzzCase::derive_v1(2);
        assert!(matches!(c.topo, smapp_bench::fuzz::Topo::TwoPath));
        c.dynamics.clear();
        c
    };
    let opts = FuzzOptions::default();

    for (rw, bit) in [
        (Rewrite::SeqNat, feat::SEQ_REWRITTEN),
        (Rewrite::Split, feat::SEGMENTS_SPLIT),
        (Rewrite::Coalesce, feat::SEGMENTS_COALESCED),
        (Rewrite::AckThin(3), feat::ACKS_THINNED),
    ] {
        let mut c = base();
        c.rewrite = rw;
        // The rewriters only touch option-free segments, so run them on a
        // stripped (plain-TCP fallback) path — except SeqNat, which
        // rewrites every segment. Coalescing needs a fast access link to
        // beat the router's flush timer.
        if rw != Rewrite::SeqNat {
            c.strip = Strip::FromStart;
        }
        if rw == Rewrite::Coalesce {
            c.link_cfgs = vec![LinkCfg::mbps_ms(100, 5); 2];
        }
        eprintln!("adversarial smoke: {rw:?}");
        let out = run_case_opts(&c, &opts);
        assert!(out.violations.is_empty(), "{rw:?}: {:?}", out.violations);
        assert!(out.delivered >= c.transfer, "{rw:?} delivered everything");
        assert!(out.coverage.get(bit), "{rw:?} actually fired");
    }

    for (mix, bit) in [
        (FloodMix::PlainSyn, feat::FLOOD_PLAIN),
        (FloodMix::MpJoin, feat::FLOOD_MP_JOIN),
        (FloodMix::Mixed, feat::FLOOD_MIXED),
    ] {
        let mut c = base();
        c.flood = Some(smapp_bench::fuzz::FloodPlan {
            mix,
            count: 25,
            interval_ms: 4,
            start_ms: 30,
        });
        eprintln!("adversarial smoke: flood {mix:?}");
        let out = run_case_opts(&c, &opts);
        assert!(out.violations.is_empty(), "{mix:?}: {:?}", out.violations);
        assert!(out.delivered >= c.transfer, "{mix:?} delivered everything");
        assert!(out.coverage.get(feat::FLOOD_SYNS_SENT), "flood ran");
        assert!(out.coverage.get(bit), "{mix:?} mix bit set");
    }
}
