//! `--compare A.json B.json`: the tool the A/A acceptance check and every
//! later before/after uses. A is the reference (parent), B the candidate.

use std::path::Path;

use crate::json::Json;
use crate::metrics::declared;
use crate::stats::{median, quartiles};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn fail_share(results: &Json, workload: &str) -> f64 {
    let get = |key: &str| {
        results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get("failed") / get("attempted").max(1.0)
}

/// Spread of a sample: interquartile distance as a share of the median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Verdict for one (metric, workload) pair.
pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        "higher" => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
        _ => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if spread(a) > bound || spread(b) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Bounds at equal seeds, where the seed-to-seed variance of the worlds
/// that the declared bounds leave room for is absent (ISSUE 11's bounds).
const SAME_SEED_HOST_BOUND: f64 = 0.10;
const SAME_SEED_EXACT_BOUND: f64 = 0.01;

fn layer_value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("per_layer"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
}

/// Print one line per (end-to-end metric, workload). Exit code 1 on any
/// `worse` or on a higher `fail_share`.
///
/// With both files at the same seed the comparison tightens: host-time
/// metrics get a 10 % bound; metrics that repeat exactly per seed get 1 %
/// and are marked `changed` if they moved at all; and every per-layer
/// count and simulated-time output must be equal — those carry no bound,
/// so each one that differs is listed as `changed` and fails the
/// comparison (a change that means to alter behaviour reads the list).
pub fn run(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    compare(&load(a_path)?, &load(b_path)?)
}

fn compare(a: &Json, b: &Json) -> Result<i32, String> {
    let names: Vec<String> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .ok_or("the first file has no workloads")?;
    let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut bad = false;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for w in &names {
        for d in &declared().end_to_end {
            let (va, vb) = (values(a, w, &d.name), values(b, w, &d.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}/{} is missing from one side", d.name));
            }
            let bound = match (same_seed, d.host_time()) {
                (false, _) => d.bound,
                (true, true) => d.bound.min(SAME_SEED_HOST_BOUND),
                (true, false) => d.bound.min(SAME_SEED_EXACT_BOUND),
            };
            let v = verdict(&va, &vb, &d.better, bound);
            bad |= v == "worse";
            let moved = same_seed && !d.host_time() && median(&va) != median(&vb);
            let note = if moved { " (changed)" } else { "" };
            println!(
                "{:<12} {:<14} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>7.2}  {v}{note}",
                w,
                d.name,
                median(&va),
                median(&vb),
                spread(&va),
                spread(&vb),
                bound
            );
        }
        let (fa, fb) = (fail_share(a, w), fail_share(b, w));
        let v = if fb > fa { "worse" } else { "ok" };
        bad |= fb > fa;
        println!(
            "{w:<12} {:<14} {fa:>14.6} {fb:>14.6} {:>8} {:>8} {:>7}  {v}",
            "fail_share", "-", "-", "0"
        );
    }
    if same_seed {
        let exact = || declared().per_layer.iter().filter(|d| !d.host_time());
        let mut changed = 0;
        for w in &names {
            for d in exact() {
                let (la, lb) = (layer_value(a, w, &d.name), layer_value(b, w, &d.name));
                if la != lb {
                    changed += 1;
                    println!("{w:<12} {:<36} {la:?} -> {lb:?}  changed", d.name);
                }
            }
        }
        println!(
            "per-layer counts and simulated outputs: {changed} of {} changed",
            names.len() * exact().count()
        );
        bad |= changed > 0;
    }
    Ok(bad as i32)
}

#[cfg(test)]
mod tests {
    use super::{compare, verdict};
    use crate::json::Json;
    use crate::metrics::declared;

    /// A result file with one workload: every end-to-end metric 100 on
    /// each of five runs except `allocs`, every per-layer metric 7 except
    /// `sim.world.events`.
    fn results(seed: f64, allocs: f64, events: f64) -> Json {
        let e2e = declared().end_to_end.iter().map(|d| {
            let v = if d.name == "allocs" { allocs } else { 100.0 };
            let values = Json::Arr(vec![Json::Num(v); 5]);
            (d.name.as_str(), Json::obj([("values", values)]))
        });
        let layers = declared().per_layer.iter().map(|d| {
            let v = if d.name == "sim.world.events" {
                events
            } else {
                7.0
            };
            (d.name.as_str(), Json::obj([("value", Json::Num(v))]))
        });
        let workload = Json::obj([
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
        ]);
        Json::obj([
            ("seed", Json::Num(seed)),
            ("workloads", Json::obj([("fleet", workload)])),
        ])
    }

    #[test]
    fn equal_seeds_tighten_the_comparison() {
        let a = results(0.0, 1000.0, 5000.0);
        assert_eq!(compare(&a, &a), Ok(0));
        // 5 % more allocations: inside the declared bound, which leaves
        // room for another seed's worlds; a regression at the same seed.
        assert_eq!(compare(&a, &results(1.0, 1050.0, 5000.0)), Ok(0));
        assert_eq!(compare(&a, &results(0.0, 1050.0, 5000.0)), Ok(1));
        // Fewer allocations are not worse, a moved layer count is a change.
        assert_eq!(compare(&a, &results(0.0, 900.0, 5000.0)), Ok(0));
        assert_eq!(compare(&a, &results(0.0, 1000.0, 5001.0)), Ok(1));
    }

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.05], "lower", 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&a, &[1.25, 1.24, 1.26, 1.25, 1.25], "lower", 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.80], "higher", 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.80], "lower", 0.10),
            "ok"
        );
        // Run-to-run spread wider than the bound: cannot say.
        assert_eq!(
            verdict(&a, &[0.8, 1.3, 1.0, 1.6, 0.7], "lower", 0.10),
            "unresolved"
        );
        // Deterministic metrics: any drift past the bound is worse.
        assert_eq!(verdict(&[5.0; 3], &[5.0; 3], "lower", 0.01), "ok");
        assert_eq!(verdict(&[5.0; 3], &[5.2; 3], "lower", 0.01), "worse");
    }
}
