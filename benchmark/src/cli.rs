//! Command line: one workload run (the shape a driver calls), the whole
//! benchmark (every workload, round-robin, each run a fresh process), and
//! `--compare`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::bind::{self, Job, Mode, Sizes};
use crate::compare;
use crate::json::Json;
use crate::ledger::{self, Probes};
use crate::measure::{run_rep, Rep};
use crate::metrics::{declared, in_declared_order, Decl};
use crate::stats::{median, quartiles};
use crate::workloads;

const USAGE: &str = "\
usage:
  smapp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      one workload: prints every metric, last line is one JSON object
  smapp-benchmark [--seed N] [--quick] [--out FILE]
      every workload, 5 rounds round-robin (2 with --quick), each run a fresh
      process, then one traced run per workload; writes FILE (default
      out/results.json)
  smapp-benchmark --compare A.json B.json
      per (metric, workload): ok / worse / unresolved; exit 1 on worse and,
      at equal seeds, on a changed per-layer count";

/// Untraced runs per workload of the whole benchmark.
const ROUNDS: usize = 5;
const QUICK_ROUNDS: usize = 2;
/// `--seconds` of each of those runs, so every result file has the same
/// shape: three or four timed repetitions per run at this commit.
const ROUND_SECONDS: &str = "5";
/// `--seconds` of the traced run: long enough for every ablation pair (two
/// pairs cannot resolve a cost of a few percent on a shared machine).
const TRACED_SECONDS: &str = "60";
/// Alternating oracle on/off pairs of a traced run (fewer if `--seconds`
/// runs out, never fewer than two).
const ABLATION_PAIRS: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload.is_none() && (a.seconds.is_some() || a.trace) {
        return Err("--seconds and --trace go with --workload".into());
    }
    Ok(a)
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if args.workload.is_some() {
        single(&args)
    } else {
        all(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_json(decl: &Decl, value: f64) -> (String, Json) {
    (
        decl.name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(decl.unit.clone())),
        ]),
    )
}

/// Jobs attempted and failed over the repetitions of a run, and whether
/// every repetition followed the warm-up's trajectory.
struct Tally {
    warm: Rep,
    attempted: u64,
    failed: u64,
    repeatable: bool,
}

impl Tally {
    /// Start from the warm-up repetition, which is counted like any
    /// other: a world that fails there fails the run.
    fn new(warm: Rep) -> Self {
        let (attempted, failed) = Self::jobs(&warm);
        Tally {
            warm,
            attempted,
            failed,
            repeatable: true,
        }
    }

    /// `(attempted, failed)` of one repetition; a failed job prints its
    /// triple and is counted, it never ends the run.
    fn jobs(rep: &Rep) -> (u64, u64) {
        let failures = rep.failures();
        for f in &failures {
            println!("FAILED job {f}");
        }
        (rep.jobs.len() as u64, failures.len() as u64)
    }

    fn count(&mut self, rep: &Rep) {
        let (attempted, failed) = Self::jobs(rep);
        self.attempted += attempted;
        self.failed += failed;
        self.repeatable &= rep.same_trajectory(&self.warm);
    }
}

/// What one run was asked to do.
struct Run<'a> {
    args: &'a Args,
    workload: &'a str,
    jobs: &'a [Job],
    sizes: Sizes,
    budget: Duration,
    t0: Instant,
}

impl Run<'_> {
    fn rep(&self, mode: Mode) -> Rep {
        run_rep(self.jobs, &self.sizes, mode, self.t0)
    }
}

/// One workload, the way a driver calls it. The last line of standard
/// output is the result object.
fn single(args: &Args) -> Result<i32, String> {
    let t0 = Instant::now();
    let workload = args.workload.as_deref().expect("checked by the caller");
    let jobs = workloads::jobs(workload, args.seed, args.quick)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let run = Run {
        args,
        workload,
        jobs: &jobs,
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
        budget: Duration::from_secs_f64(args.seconds.unwrap_or(10.0)),
        t0,
    };
    println!(
        "workload {workload} seed {} jobs/repetition {} trace {}",
        args.seed,
        jobs.len(),
        args.trace as u8
    );
    let values = if args.trace {
        traced(&run)
    } else {
        untraced(&run)
    };
    let (tally, values) = values?;
    let declared = if args.trace {
        &declared().per_layer
    } else {
        &declared().end_to_end
    };
    let values = in_declared_order(declared, &values)?;

    for (d, v) in &values {
        println!("{:<36} {:>18.6} {}", d.name, v, d.unit);
    }
    if !tally.repeatable {
        println!("FAILED repetitions of one seed did not follow one trajectory");
    }
    println!(
        "jobs attempted {} failed {} fail_share {:.6}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let metrics = Json::obj(values.iter().map(|(d, v)| metric_json(d, *v)));
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0 && tally.repeatable)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(0)
}

/// What a run hands back: its job accounting and its metrics by name.
type Measured = (Tally, Vec<(&'static str, f64)>);

/// The untimed repetition that fills the thread-local buffer pool and
/// faults pages in.
fn warm_up(run: &Run<'_>) -> Tally {
    Tally::new(run.rep(Mode::Timed))
}

/// `--trace 0`: warm-up, timed repetitions. The one Rust list of the
/// end-to-end metric names.
fn untraced(run: &Run<'_>) -> Result<Measured, String> {
    let mut tally = warm_up(run);
    // Process start to the first timed repetition: input generation plus
    // the warm-up, cold.
    let setup_s = run.t0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mib();
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || started.elapsed() < run.budget {
        let rep = run.rep(Mode::Timed);
        tally.count(&rep);
        reps.push(rep);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let allocs: Vec<f64> = reps.iter().map(|r| r.allocs as f64).collect();
    let sim = tally.warm.sim_outputs();
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("repetition wall_s {}", each.join(" "));
    println!(
        "repetitions {}; transfers {} transactions {}",
        reps.len(),
        sim.transfers,
        sim.txns
    );
    let values = vec![
        ("setup_s", setup_s),
        ("wall_s", median(&walls)),
        ("allocs", median(&allocs)),
        ("peak_rss_mb", peak_rss_mb),
        ("goodput_mbps", sim.goodput_mbps),
        ("txn_ms_mean", sim.txn_ms_mean),
        ("txn_ms_p95", sim.txn_ms_p95),
    ];
    Ok((tally, values))
}

/// `--trace 1`: warm-up, oracle ablation pairs, one traced repetition,
/// replays and probes, the ledger.
fn traced(run: &Run<'_>) -> Result<Measured, String> {
    let mut tally = warm_up(run);
    // Oracle ablation: the same (workload, seed) with and without the
    // oracle, alternating which side runs first. The "on" side is the
    // untraced reference every share is taken against.
    let started = Instant::now();
    let (mut on, mut pairs) = (Vec::new(), Vec::new());
    while pairs.len() < 2 || (pairs.len() < ABLATION_PAIRS && started.elapsed() < run.budget) {
        let order = if pairs.len() % 2 == 0 {
            [Mode::Timed, Mode::OracleOff]
        } else {
            [Mode::OracleOff, Mode::Timed]
        };
        let mut secs = [0.0; 2];
        for mode in order {
            let rep = run.rep(mode);
            tally.count(&rep);
            secs[(mode == Mode::OracleOff) as usize] = rep.phase_ns() as f64 / 1e9;
            if mode == Mode::Timed {
                on.push(rep);
            }
        }
        pairs.push((secs[0], secs[1]));
    }
    let traced = run.rep(Mode::Traced);
    tally.count(&traced);
    print_identity(&traced);

    let n = if run.args.quick { 20_000 } else { 200_000 };
    let peak = traced
        .outcomes
        .iter()
        .map(|o| o.summary.peak_queue)
        .max()
        .unwrap_or(1);
    let totals = ledger::sum_layers(&traced);
    let (capable_ns, join_ns) = bind::probe_crypto();
    let probes = Probes {
        timer_hold_ns: bind::probe_timer_hold(peak, n),
        timer_cancel_ns: bind::probe_timer_cancel(n),
        link_hop_ns: bind::probe_link_hop(n / 2),
        capable_ns,
        join_ns,
    };
    let rows = ledger::ledger(&ledger::Input {
        on: &on,
        ablation: &pairs,
        traced: &traced,
        probes,
    });
    let spans = write_spans(run.workload, run.args.seed, &traced)?;
    println!(
        "ablation pairs {}; captured {} of {} trace events; timer_hold depth {peak}; spans in {}",
        pairs.len(),
        totals.captured,
        totals.records,
        spans.display()
    );
    let row = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let (by_replay, by_ablation) = (row("sim.oracle.share"), row("sim.oracle.ablation_share"));
    if (by_replay - by_ablation).abs() > 0.1 {
        println!(
            "FLAG oracle cost estimates disagree: replay {by_replay:.3} ablation {by_ablation:.3}"
        );
    }
    Ok((tally, rows))
}

/// World-identity facts: `RunSummary` per job (per kind when there are
/// many), to compare against the scenario the workload names.
fn print_identity(rep: &Rep) {
    if rep.jobs.len() <= 4 {
        for (job, out) in rep.jobs.iter().zip(&rep.outcomes) {
            let s = &out.summary;
            println!(
                "world {} seed {}: events {} ended_at_ns {} peak_queue {} stop {}",
                job.kind.label(),
                job.seed,
                s.events,
                s.ended_ns,
                s.peak_queue,
                s.stop
            );
        }
        return;
    }
    let mut kinds: Vec<&'static str> = Vec::new();
    for job in &rep.jobs {
        if !kinds.contains(&job.kind.label()) {
            kinds.push(job.kind.label());
        }
    }
    for kind in kinds {
        let of_kind = || {
            rep.jobs
                .iter()
                .zip(&rep.outcomes)
                .filter(move |(j, _)| j.kind.label() == kind)
                .map(|(_, o)| &o.summary)
        };
        println!(
            "worlds {kind} x{}: events {} peak_queue {}",
            of_kind().count(),
            of_kind().map(|s| s.events).sum::<u64>(),
            of_kind().map(|s| s.peak_queue).max().unwrap_or(0)
        );
    }
}

/// Write the traced repetition's spans to `out/trace-<workload>.json`.
/// Parent indices are rebased so they index the file's one flat array.
fn write_spans(workload: &str, seed: u64, traced: &Rep) -> Result<PathBuf, String> {
    let mut text = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    let mut base = 0usize;
    let mut first = true;
    for out in &traced.outcomes {
        for s in &out.spans {
            if !first {
                text.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p as usize).to_string());
            write!(
                text,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )
            .expect("writing to a String cannot fail");
        }
        base += out.spans.len();
    }
    text.push_str("\n]}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

// ---------------------------------------------------------------------
// The whole benchmark
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// The machine block recorded with each result.
fn machine(load_start: &str) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("load_start", Json::Str(load_start.into())),
        ("load_end", Json::Str(load_average())),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// This program again, as one run of `workload` on the same inputs.
fn child(args: &Args, workload: &str, seconds: &str, trace: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", seconds, "--trace", trace]);
    if args.quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

/// Run one child to completion and parse the result object off the last
/// line of its standard output.
fn run_child(mut cmd: Command) -> Result<Json, String> {
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("a run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("a run printed nothing")?;
    for line in text
        .lines()
        .filter(|l| l.starts_with("FAILED") || l.starts_with("FLAG"))
    {
        println!("  {line}");
    }
    Json::parse(last).map_err(|e| format!("a run's last line is not JSON: {e}"))
}

/// Every workload: a fixed number of untraced runs each, round-robin so
/// slow periods of a shared machine spread over all workloads, then one
/// traced run each. Every run is a fresh process; load comes from one
/// process and one thread at a time.
fn all(args: &Args) -> Result<i32, String> {
    let (rounds, seconds, traced_seconds) = if args.quick {
        (QUICK_ROUNDS, "0", "0")
    } else {
        (ROUNDS, ROUND_SECONDS, TRACED_SECONDS)
    };
    let load_start = load_average();
    let names = &declared().workloads;
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); names.len()];
    for round in 0..rounds {
        for (i, name) in names.iter().enumerate() {
            eprintln!("round {}/{rounds}: {name}", round + 1);
            runs[i].push(run_child(child(args, name, seconds, "0")?)?);
        }
    }
    let mut traced = Vec::new();
    for name in names {
        eprintln!("traced: {name}");
        traced.push(run_child(child(args, name, traced_seconds, "1")?)?);
    }

    let metric = |run: &Json, name: &str| {
        run.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let count = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut any_failed = false;
    let mut workloads_json = Vec::new();
    for (i, name) in names.iter().enumerate() {
        println!("\n== {name} ==");
        let attempted: f64 = runs[i]
            .iter()
            .chain([&traced[i]])
            .map(|r| count(r, "attempted"))
            .sum();
        let failed: f64 = runs[i]
            .iter()
            .chain([&traced[i]])
            .map(|r| count(r, "failed"))
            .sum();
        let correct = runs[i]
            .iter()
            .chain([&traced[i]])
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        any_failed |= !correct;
        println!(
            "jobs attempted {attempted} failed {failed} fail_share {:.6} correct {correct}",
            failed / attempted.max(1.0)
        );
        println!(
            "{:<36} {:>16} {:>16} {:>16}  n  unit",
            "end-to-end", "median", "q1", "q3"
        );
        let mut e2e = Vec::new();
        for d in &declared().end_to_end {
            let values: Vec<f64> = runs[i].iter().filter_map(|r| metric(r, &d.name)).collect();
            if values.len() != runs[i].len() {
                return Err(format!("a {name} run did not report {}", d.name));
            }
            let (q1, q3) = quartiles(&values);
            println!(
                "{:<36} {:>16.6} {:>16.6} {:>16.6} {:>2}  {}",
                d.name,
                median(&values),
                q1,
                q3,
                values.len(),
                d.unit
            );
            e2e.push((
                d.name.as_str(),
                Json::obj([
                    ("unit", Json::Str(d.unit.clone())),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        println!("{:<36} {:>16}  unit", "per-layer", "value");
        let mut layers = Vec::new();
        for d in &declared().per_layer {
            let v = metric(&traced[i], &d.name)
                .ok_or_else(|| format!("the traced {name} run did not report {}", d.name))?;
            println!("{:<36} {:>16.6}  {}", d.name, v, d.unit);
            layers.push(metric_json(d, v));
        }
        workloads_json.push((
            name.as_str(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("correct", Json::Bool(correct)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        ));
    }
    let results = Json::obj([
        ("machine", machine(&load_start)),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("rounds", Json::Num(rounds as f64)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nmachine {}",
        results.get("machine").expect("just built").render()
    );
    println!("results written to {}", path.display());
    Ok(any_failed as i32)
}
