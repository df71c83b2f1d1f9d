//! The performance measurement harness behind the `perf_report` binary.
//!
//! This harness drives **every registered scenario** — the paper's five
//! artefacts (fig2a, fig2b, fig2c, fig3, §4.2) plus the beyond-paper
//! worlds (`fleet`, `handover`, `flap`, `middlebox`, `cdn`, `fuzz`) — as
//! one scenario×seed [`crate::sweep::Matrix`] built from
//! [`crate::scenarios::REGISTRY`], twice:
//!
//! 1. at `--jobs 1` (inline, no pool) for single-thread throughput and
//!    allocations/event, and
//! 2. at `--jobs N` (scoped worker pool) for the aggregate matrix
//!    wall-time, asserting the results are **bit-identical** to pass 1 —
//!    a parallel run that changes any trajectory is a bug, not a speedup.
//!
//! The fig2c per-seed trajectory is additionally checked against the
//! recorded `524cdc6` baseline ([`FIG2C_BASELINE`], measured at the first
//! tier-1-green commit).

use std::time::Instant;

use crate::scenarios::{fleet::Fleet, Scenario, REGISTRY};
use crate::sweep::{parity, Matrix, SweepResult};

/// fig2c seeds measured into the baseline.
pub const FIG2C_SEEDS: [u64; 3] = [100, 101, 102];

/// Per-seed fig2c trajectory facts at the baseline commit. `events` /
/// `ended_at_ns` must reproduce exactly on every optimized build (same
/// seed ⇒ same simulation).
pub struct Fig2cBaseline {
    /// Commit the baseline was measured at.
    pub commit: &'static str,
    /// `RunSummary.events` (dispatches) per seed, in [`FIG2C_SEEDS`] order.
    pub events: [u64; 3],
    /// Simulated completion time (ns) per seed.
    pub ended_at_ns: [u64; 3],
}

/// Baseline measurement for the fig2c macro scenario (100 MB, 5 subflows,
/// refresh controller). `ended_at_ns` is `524cdc6`'s. `events` counts
/// dispatches, as `RunSummary::events` has since timers re-arm in place;
/// `524cdc6` counted every pop, superseded timer entries included, and
/// recorded 1 011 738, 947 303 and 983 405 — each the dispatch count here
/// plus the 76 851, 71 917 and 74 623 superseded RTO entries that build
/// popped.
pub const FIG2C_BASELINE: Fig2cBaseline = Fig2cBaseline {
    commit: "524cdc6",
    events: [934_887, 875_386, 908_782],
    ended_at_ns: [29_079_104_704, 28_335_975_608, 30_288_957_352],
};

/// The scenario×seed matrix: every [`REGISTRY`] scenario's rows, in
/// registry order. `smoke` shrinks workloads to CI-liveness sizes.
pub fn paper_matrix(smoke: bool) -> Matrix {
    Matrix {
        entries: REGISTRY.iter().flat_map(|s| (s.entries)(smoke)).collect(),
    }
}

/// Parse the `diag=p{probes}/c{conns}/s{subflows}` token of the fleet
/// row's trajectory — the sweep erases the probed run's typed
/// `FleetStats`, and the only typed fleet run [`run_all`] makes itself is
/// the *unprobed* one. A missing or unparseable token reads as zeros —
/// the smoke-report test then fails on `probes == 0` rather than
/// silently passing.
fn fleet_diag_in(trajectory: &str) -> (u64, u64, u64) {
    let Some(tok) = trajectory
        .split_whitespace()
        .find_map(|t| t.strip_prefix("diag="))
    else {
        return (0, 0, 0);
    };
    let mut parts = tok.split('/');
    let mut next = |prefix: char| {
        parts
            .next()
            .and_then(|s| s.strip_prefix(prefix))
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (next('p'), next('c'), next('s'))
}

/// Aggregate measurements of one `(scenario, variant)` matrix row, from
/// the single-threaded pass.
pub struct ScenarioPerf {
    /// `scenario/variant` label.
    pub name: String,
    /// Workload description for the report.
    pub workload: String,
    /// Seeds aggregated.
    pub runs: usize,
    /// Sum of per-cell wall-clock seconds (single-threaded pass).
    pub wall_s: f64,
    /// Total simulator events dispatched.
    pub events: u64,
    /// Cancelled timer entries popped without a dispatch.
    pub stale: u64,
    /// Timer entries popped at an old deadline and requeued at the one
    /// they were re-armed to in place.
    pub requeued: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Heap allocations per simulated event.
    pub allocs_per_event: f64,
    /// Largest heap high-water mark among the row's runs, in bytes above
    /// what was live when the run started.
    pub peak_live_bytes: u64,
    /// Maximum event-queue depth over the row's runs.
    pub peak_queue: usize,
    /// Simulated seconds covered.
    pub sim_s: f64,
}

/// Full report: the matrix at `--jobs 1` vs `--jobs N`, per-row
/// single-thread measurements, and the fig2c baseline verdicts.
pub struct PerfReport {
    /// Smoke mode (reduced sizes; no baseline comparison).
    pub smoke: bool,
    /// Worker threads used for the parallel pass.
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on the measurement machine —
    /// the context needed to interpret `matrix_speedup`.
    pub machine_parallelism: usize,
    /// Matrix cells executed per pass.
    pub matrix_cells: usize,
    /// Aggregate matrix wall-clock at `--jobs 1`.
    pub wall_jobs1_s: f64,
    /// Aggregate matrix wall-clock at `--jobs N`.
    pub wall_jobsn_s: f64,
    /// `wall_jobs1_s / wall_jobsn_s`.
    pub matrix_speedup: f64,
    /// Did the second pass reproduce the first bit-for-bit? With
    /// `jobs > 1` this is the cross-thread parity gate; with `jobs == 1`
    /// (e.g. a single-core machine) both passes run inline and the check
    /// degenerates to rerun determinism — still a real invariant, but it
    /// exercises no parallelism.
    pub parallel_parity: bool,
    /// Per-row single-thread measurements.
    pub scenarios: Vec<ScenarioPerf>,
    /// Peak event-queue depth of the fleet run (vs fig3's 5737).
    pub fleet_peak_queue: usize,
    /// Generated fuzz cases executed (oracle enabled) in the matrix.
    pub fuzz_cases: usize,
    /// Total oracle violations across those cases (0 on a healthy build).
    pub fuzz_violations: u64,
    /// Union feature-coverage bits over the matrix's corpus slice under
    /// the full case derivation (adversarial middleboxes + traffic mix).
    pub fuzz_coverage_bits: u32,
    /// The same union under the frozen PR-5 derivation (dynamics only) —
    /// the floor the current corpus must strictly beat.
    pub fuzz_baseline_bits: u32,
    /// Sockdiag probes the fleet's scripted sweep answered.
    pub diag_probes: u64,
    /// Connections reported across the fleet's sockdiag replies.
    pub diag_conns: u64,
    /// Subflow RTT/cwnd snapshots across the fleet's sockdiag replies.
    pub diag_subflows: u64,
    /// Calendar events the probed fleet run processed beyond an unprobed
    /// run of the same seed — the whole cost of the introspection plane.
    /// Probes are read-only, so this is exactly one event per probe on a
    /// healthy build (the smoke-report test asserts equality).
    pub diag_extra_events: u64,
    /// Whether every fig2c seed reproduced the baseline trajectory
    /// (full mode only).
    pub fig2c_parity: Option<bool>,
    /// Human-readable parity details (mismatches, if any).
    pub parity_notes: Vec<String>,
}

fn aggregate(matrix: &Matrix, seq: &[SweepResult]) -> Vec<ScenarioPerf> {
    let mut rows = Vec::new();
    for entry in &matrix.entries {
        let cells: Vec<&SweepResult> = seq
            .iter()
            .filter(|r| r.scenario == entry.scenario && r.variant == entry.variant)
            .collect();
        if cells.is_empty() {
            continue;
        }
        let wall_s: f64 = cells.iter().map(|c| c.wall_s).sum();
        let events: u64 = cells.iter().map(|c| c.run.summary.events).sum();
        let stale: u64 = cells.iter().map(|c| c.run.summary.stale).sum();
        let requeued: u64 = cells.iter().map(|c| c.run.summary.requeued).sum();
        let allocs: u64 = cells.iter().map(|c| c.allocs).sum();
        rows.push(ScenarioPerf {
            name: format!("{}/{}", entry.scenario, entry.variant),
            workload: entry.workload.clone(),
            runs: cells.len(),
            wall_s,
            events,
            stale,
            requeued,
            events_per_sec: events as f64 / wall_s,
            allocs_per_event: allocs as f64 / events.max(1) as f64,
            peak_live_bytes: cells.iter().map(|c| c.peak_live_bytes).max().unwrap_or(0),
            peak_queue: cells
                .iter()
                .map(|c| c.run.summary.peak_queue)
                .max()
                .unwrap_or(0),
            sim_s: cells
                .iter()
                .map(|c| c.run.summary.ended_at.as_secs_f64())
                .sum(),
        });
    }
    rows
}

/// Run the whole matrix at `--jobs 1` and `--jobs N` and assemble the
/// report. The second pass always runs, even when `jobs == 1`: there it
/// verifies rerun determinism instead of cross-thread parity (see
/// [`PerfReport::parallel_parity`]) — a measurement binary can afford the
/// second pass, and a silent skip would make the parity flag meaningless.
pub fn run_all(smoke: bool, jobs: usize) -> PerfReport {
    let matrix = paper_matrix(smoke);

    let t0 = Instant::now();
    let seq = matrix.run(1);
    let wall_jobs1_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let par = matrix.run(jobs);
    let wall_jobsn_s = t0.elapsed().as_secs_f64();

    let parallel_parity = parity(&seq, &par);
    let mut parity_notes = Vec::new();
    if !parallel_parity {
        for (a, b) in seq.iter().zip(&par) {
            if a != b {
                parity_notes.push(format!(
                    "{}/{} seed {}: jobs=1 {:?} != jobs={jobs} {:?}",
                    a.scenario, a.variant, a.seed, a.run.trajectory, b.run.trajectory
                ));
            }
        }
    }

    // fig2c refresh: baseline trajectory parity (full mode).
    let fig2c_cells: Vec<&SweepResult> = seq
        .iter()
        .filter(|r| r.scenario == "fig2c" && r.variant == "refresh")
        .collect();
    let mut fig2c_parity = None;
    if !smoke {
        let mut ok = true;
        for (i, &seed) in FIG2C_SEEDS.iter().enumerate() {
            let Some(cell) = fig2c_cells.iter().find(|c| c.seed == seed) else {
                ok = false;
                parity_notes.push(format!("fig2c seed {seed}: missing from matrix"));
                continue;
            };
            if cell.run.summary.events != FIG2C_BASELINE.events[i] {
                ok = false;
                parity_notes.push(format!(
                    "fig2c seed {seed}: events {} != baseline {}",
                    cell.run.summary.events, FIG2C_BASELINE.events[i]
                ));
            }
            if cell.run.summary.ended_at.as_nanos() != FIG2C_BASELINE.ended_at_ns[i] {
                ok = false;
                parity_notes.push(format!(
                    "fig2c seed {seed}: ended_at {} ns != baseline {} ns",
                    cell.run.summary.ended_at.as_nanos(),
                    FIG2C_BASELINE.ended_at_ns[i]
                ));
            }
        }
        fig2c_parity = Some(ok);
    }

    // The fleet cell: its queue depth, and the sockdiag plane — counters
    // from the cell, plus the probe overhead measured as extra calendar
    // events vs an unprobed rerun of the same seed (probes are read-only,
    // so the protocol trajectory is identical and the difference is
    // purely the probe events).
    let fleet_row = seq.iter().find(|r| r.scenario == "fleet");
    let fleet_peak_queue = fleet_row.map_or(0, |r| r.run.summary.peak_queue);
    let (diag_probes, diag_conns, diag_subflows) = fleet_row
        .map(|r| fleet_diag_in(&r.run.trajectory))
        .unwrap_or((0, 0, 0));
    let diag_extra_events = fleet_row
        .map(|r| {
            let mut unprobed = Fleet::rows(smoke).remove(0).params;
            unprobed.probe_after = None;
            let summary = Fleet::run(&unprobed, r.seed).summary;
            r.run.summary.events.saturating_sub(summary.events)
        })
        .unwrap_or(0);

    // Corpus violations and feature coverage vs the frozen PR-5
    // derivation over the same seeds: the current derivation (middlebox
    // rewriters, floods, traffic mix) must strictly widen the explored
    // feature space.
    let fuzz_seeds: Vec<u64> = seq
        .iter()
        .filter(|r| r.scenario == "fuzz")
        .map(|r| r.seed)
        .collect();
    let mut fuzz_violations = 0u64;
    let mut cov = smapp_sim::Coverage::new();
    let mut base_cov = smapp_sim::Coverage::new();
    let opts = crate::fuzz::FuzzOptions::default();
    for &seed in &fuzz_seeds {
        let out = crate::fuzz::run_case(seed);
        fuzz_violations += out.violations.len() as u64;
        cov.union(&out.coverage);
        let v1 = crate::fuzz::FuzzCase::derive_v1(seed);
        base_cov.union(&crate::fuzz::run_case_opts(&v1, &opts).coverage);
    }

    PerfReport {
        smoke,
        jobs,
        machine_parallelism: crate::sweep::default_jobs(),
        matrix_cells: seq.len(),
        wall_jobs1_s,
        wall_jobsn_s,
        matrix_speedup: wall_jobs1_s / wall_jobsn_s,
        parallel_parity,
        scenarios: aggregate(&matrix, &seq),
        fleet_peak_queue,
        fuzz_cases: fuzz_seeds.len(),
        fuzz_violations,
        fuzz_coverage_bits: cov.count(),
        fuzz_baseline_bits: base_cov.count(),
        diag_probes,
        diag_conns,
        diag_subflows,
        diag_extra_events,
        fig2c_parity,
        parity_notes,
    }
}

impl PerfReport {
    /// Serialize to the `BENCH_PR*.json` schema (hand-rolled: the workspace
    /// deliberately carries no serde dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!(
            "  \"baseline\": {{\"commit\": \"{}\"}},\n",
            FIG2C_BASELINE.commit
        ));
        s.push_str(&format!(
            "  \"sweep\": {{\"jobs\": {}, \"machine_parallelism\": {}, \"matrix_cells\": {}, \
             \"wall_jobs1_s\": {:.4}, \"wall_jobsn_s\": {:.4}, \"matrix_speedup\": {:.3}, \
             \"parallel_parity\": {}}},\n",
            self.jobs,
            self.machine_parallelism,
            self.matrix_cells,
            self.wall_jobs1_s,
            self.wall_jobsn_s,
            self.matrix_speedup,
            self.parallel_parity
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, p) in self.scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"workload\": \"{}\", \"runs\": {}, \"wall_s\": {:.4}, \
                 \"events\": {}, \"stale\": {}, \"requeued\": {}, \"events_per_sec\": {:.0}, \
                 \"allocs_per_event\": {:.2}, \"peak_live_bytes\": {}, \"peak_queue\": {}, \
                 \"sim_s\": {:.3}}}{}\n",
                p.name,
                p.workload,
                p.runs,
                p.wall_s,
                p.events,
                p.stale,
                p.requeued,
                p.events_per_sec,
                p.allocs_per_event,
                p.peak_live_bytes,
                p.peak_queue,
                p.sim_s,
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"fleet\": {{\"peak_queue\": {}, \"fig3_peak_queue_reference\": 5737}},\n",
            self.fleet_peak_queue
        ));
        s.push_str(&format!(
            "  \"fuzz\": {{\"cases\": {}, \"violations\": {}, \"coverage_bits\": {}, \
             \"baseline_coverage_bits\": {}}},\n",
            self.fuzz_cases, self.fuzz_violations, self.fuzz_coverage_bits, self.fuzz_baseline_bits
        ));
        s.push_str(&format!(
            "  \"diag\": {{\"probes\": {}, \"conns\": {}, \"subflows\": {}, \
             \"extra_events\": {}}},\n",
            self.diag_probes, self.diag_conns, self.diag_subflows, self.diag_extra_events
        ));
        match self.fig2c_parity {
            Some(p) => s.push_str(&format!("  \"fig2c_trajectory_parity\": {p}\n")),
            None => s.push_str("  \"fig2c_trajectory_parity\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Render the human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "perf_report ({} mode, --jobs {}, machine parallelism {})\n",
            if self.smoke { "smoke" } else { "full" },
            self.jobs,
            self.machine_parallelism
        ));
        s.push_str(&format!(
            "matrix: {} cells  jobs=1 {:.2}s  jobs={} {:.2}s  speedup {:.2}x  parity {}\n",
            self.matrix_cells,
            self.wall_jobs1_s,
            self.jobs,
            self.wall_jobsn_s,
            self.matrix_speedup,
            if self.parallel_parity {
                "IDENTICAL"
            } else {
                "MISMATCH"
            }
        ));
        s.push_str(
            "scenario          runs wall_s    events      stale    requeued  events/sec  allocs/ev  live_MB  peak_q  sim_s\n",
        );
        for p in &self.scenarios {
            s.push_str(&format!(
                "{:<17} {:<4} {:<9.3} {:<11} {:<8} {:<9} {:<11.0} {:<10.2} {:<8.1} {:<7} {:.2}\n",
                p.name,
                p.runs,
                p.wall_s,
                p.events,
                p.stale,
                p.requeued,
                p.events_per_sec,
                p.allocs_per_event,
                p.peak_live_bytes as f64 / 1e6,
                p.peak_queue,
                p.sim_s
            ));
        }
        s.push_str(&format!(
            "fuzz: {} generated cases, {} oracle violation(s), \
             {} feature bits (dynamics-only baseline {})\n",
            self.fuzz_cases, self.fuzz_violations, self.fuzz_coverage_bits, self.fuzz_baseline_bits
        ));
        s.push_str(&format!(
            "diag: {} probes -> {} conns / {} subflow snapshots, \
             +{} events vs unprobed run\n",
            self.diag_probes, self.diag_conns, self.diag_subflows, self.diag_extra_events
        ));
        if let Some(parity) = self.fig2c_parity {
            s.push_str(&format!(
                "fig2c trajectory parity: {}\n",
                if parity { "IDENTICAL" } else { "MISMATCH" }
            ));
        }
        for n in &self.parity_notes {
            s.push_str(&format!("  {n}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_runs_and_serializes() {
        let r = run_all(true, 2);
        assert!(r.scenarios.iter().all(|s| s.events > 0));
        assert!(r.scenarios.iter().all(|s| s.peak_queue > 0));
        assert!(
            r.parallel_parity,
            "jobs=1 and jobs=2 must agree bit-for-bit: {:?}",
            r.parity_notes
        );
        assert!(r.fig2c_parity.is_none(), "smoke skips the baseline");
        assert_eq!(r.fuzz_cases, 4, "smoke matrix runs 4 fuzz cases");
        assert_eq!(r.fuzz_violations, 0, "fuzz corpus oracle-clean");
        assert!(
            r.fuzz_coverage_bits > r.fuzz_baseline_bits,
            "full derivation ({} bits) must strictly beat the dynamics-only \
             baseline ({} bits)",
            r.fuzz_coverage_bits,
            r.fuzz_baseline_bits
        );
        // The sockdiag sweep ran over the fleet row and cost exactly one
        // calendar event per probe (probes are read-only).
        assert_eq!(r.diag_probes, 120, "two probes per smoke-fleet client");
        assert!(r.diag_conns > 0 && r.diag_subflows > 0, "dumps carry state");
        assert_eq!(
            r.diag_extra_events, r.diag_probes,
            "probe overhead is one calendar event per probe, nothing else"
        );
        let json = r.to_json();
        assert!(json.contains("\"fig2c_trajectory_parity\": null"));
        assert!(json.contains("\"parallel_parity\": true"));
        assert!(json.contains("\"name\": \"fleet/mixed\""));
        // Each row carries the pops that were not dispatches beside its
        // events; the stack re-arms its RTOs in place, so rows requeue.
        for p in &r.scenarios {
            assert!(json.contains(&format!(
                "\"events\": {}, \"stale\": {}, \"requeued\": {},",
                p.events, p.stale, p.requeued
            )));
        }
        assert!(r.scenarios.iter().any(|p| p.requeued > 0));
        assert!(json.contains(&format!(
            "\"fuzz\": {{\"cases\": 4, \"violations\": 0, \"coverage_bits\": {}, \
             \"baseline_coverage_bits\": {}}}",
            r.fuzz_coverage_bits, r.fuzz_baseline_bits
        )));
        assert!(json.contains(&format!(
            "\"diag\": {{\"probes\": {}, \"conns\": {}, \"subflows\": {}, \
             \"extra_events\": {}}}",
            r.diag_probes, r.diag_conns, r.diag_subflows, r.diag_extra_events
        )));
        // Crude structural check: braces balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "JSON braces balance"
        );
        let _ = r.render();
    }
}
