//! The declared workloads and metrics. `BENCHMARK.json` at the repo root
//! is the one place they are listed with unit, direction and bound; it is
//! compiled in and read here. The program computes values by name
//! (`cli::untraced`, `ledger::ledger`) and a run fails if a declared name
//! has no value or a computed name is not declared.

use std::sync::OnceLock;

use crate::json::Json;

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen;
    /// 0 for per-layer metrics, which carry no bound.
    pub bound: f64,
}

impl Decl {
    /// True for numbers read off the host's clock or memory: noisy, and
    /// comparable only on one machine. Everything else is simulated or
    /// counted and repeats exactly for one seed, so at equal seeds any
    /// difference means behaviour changed.
    pub fn host_time(&self) -> bool {
        matches!(self.unit.as_str(), "ns" | "s" | "1/s" | "ratio" | "MiB")
            && !self.name.ends_with("sim_s")
    }
}

/// What `BENCHMARK.json` declares.
pub struct Declared {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Printed by every workload with `--trace 0`.
    pub end_to_end: Vec<Decl>,
    /// Printed by every workload with `--trace 1`. A layer that did no
    /// work on a workload reports 0, never absent.
    pub per_layer: Vec<Decl>,
}

pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let file = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root is JSON");
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no `{key}`"))
                .to_string()
        };
        let list = |key: &str| file.get(key).map(Json::as_arr).unwrap_or_default();
        let decls = |key: &str| {
            list(key)
                .iter()
                .map(|j| Decl {
                    name: text(j, "name"),
                    unit: text(j, "unit"),
                    better: text(j, "better"),
                    bound: j.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Declared {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: decls("end_to_end"),
            per_layer: decls("per_layer"),
        }
    })
}

/// One value per declared metric, in declaration order, from the
/// `(name, value)` pairs a run computed.
pub fn in_declared_order<'a>(
    declared: &'a [Decl],
    computed: &[(&str, f64)],
) -> Result<Vec<(&'a Decl, f64)>, String> {
    if let Some((name, _)) = computed
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d.name == *n))
    {
        return Err(format!("`{name}` is computed but not in BENCHMARK.json"));
    }
    declared
        .iter()
        .map(|d| {
            computed
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| (d, v))
                .ok_or_else(|| format!("`{}` is in BENCHMARK.json but has no value", d.name))
        })
        .collect()
}
