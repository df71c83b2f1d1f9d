//! Experiment scenarios — one module per paper artifact, plus workloads
//! that go beyond the paper (the many-client [`fleet`], the scripted
//! network-dynamics trio [`handover`], [`flap`], [`middlebox`], the
//! heavy-tailed [`cdn`] traffic mix, and the generated-scenario [`fuzz`]
//! corpus running under the protocol-invariant oracle).
//!
//! Every module describes itself exactly once, as a [`Scenario`] impl:
//! its parameters, its matrix rows, how one seed runs and how that run
//! renders as a trajectory string. The `registry!` invocation at the
//! bottom of this file is the **only** list of scenarios: it declares the
//! modules and builds [`REGISTRY`], which the perf matrix, the
//! alloc-ceiling test, the oracle-clean smoke, the smoke golden and the
//! jobs-parity test all iterate. Adding a scenario is one file plus one
//! registry line.

use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::StackConfig;
use smapp_pm::topo::{self, SERVER_ADDR};
use smapp_pm::Host;
use smapp_sim::{Addr, Dir, LinkId, NodeId, Oracle, RunSummary, SimTime, Simulator, TraceSink};

use crate::sweep::{MatrixEntry, ScenarioRun};

/// One finished run: the simulator's summary plus the scenario's own
/// typed results.
#[derive(Debug)]
pub struct Run<R> {
    /// The simulator's summary (events, end time, stop reason, peak queue).
    pub summary: RunSummary,
    /// What the scenario measured.
    pub results: R,
}

/// One row of a scenario's contribution to the perf matrix.
pub struct Row<P> {
    /// Parameter-override label (`refresh`, `kernel`, …).
    pub variant: &'static str,
    /// The parameters every seed of the row runs under.
    pub params: P,
    /// Seeds to run, one matrix cell per seed.
    pub seeds: Vec<u64>,
    /// Human-readable workload description, for reports.
    pub workload: String,
}

/// The single description of a scenario. The seed is always the runner's
/// argument — no `Params` carries one; a series is a seed range at the
/// call site.
pub trait Scenario {
    /// Module name; the `scenario` half of every `scenario/variant` label
    /// and the label oracle violations are reported under.
    const NAME: &'static str;
    /// Committed `allocs_per_event` ceiling, pinned just above the PR-10
    /// measured values (smoke and full mode, whichever is higher — short
    /// smoke runs amortize setup allocations over fewer events). Every
    /// variant shares it; the tier-1 `alloc_ceilings` test holds each
    /// `scenario/variant` row of the smoke matrix under it.
    const ALLOC_CEILING: f64;
    /// Everything that shapes a run except the seed.
    type Params: Clone + Send + Sync + 'static;
    /// What one run measures.
    type Results;

    /// The scenario's perf-matrix rows. `smoke` shrinks workloads to
    /// CI-liveness sizes (and may drop variants, never the scenario).
    fn rows(smoke: bool) -> Vec<Row<Self::Params>>;

    /// Build the world for `seed`, run it under the protocol-invariant
    /// oracle and return what it measured.
    fn run(p: &Self::Params, seed: u64) -> Run<Self::Results>;

    /// Deterministic rendering of a run for the parity checks — includes
    /// a digest of every measured series, not just aggregates.
    fn trajectory(run: &Run<Self::Results>) -> String;
}

/// A [`Scenario`] with its types erased: what [`REGISTRY`] holds.
pub struct Registered {
    /// [`Scenario::NAME`].
    pub name: &'static str,
    /// [`Scenario::ALLOC_CEILING`].
    pub alloc_ceiling: f64,
    /// [`Scenario::rows`] as ready-to-sweep matrix entries.
    pub entries: fn(bool) -> Vec<MatrixEntry>,
}

impl Registered {
    const fn of<S: Scenario>() -> Registered {
        Registered {
            name: S::NAME,
            alloc_ceiling: S::ALLOC_CEILING,
            entries: entries::<S>,
        }
    }
}

fn entries<S: Scenario>(smoke: bool) -> Vec<MatrixEntry> {
    S::rows(smoke)
        .into_iter()
        .map(|row| {
            let params = row.params;
            let build = move |seed| {
                let run = S::run(&params, seed);
                ScenarioRun {
                    trajectory: S::trajectory(&run),
                    summary: run.summary,
                }
            };
            MatrixEntry {
                scenario: S::NAME,
                variant: row.variant,
                seeds: row.seeds,
                workload: row.workload,
                build: Box::new(build),
            }
        })
        .collect()
}

/// The one checked runner: install the protocol-invariant oracle (around
/// `sink`, when the scenario collects its own trace), run to `horizon`,
/// conclude wire + end-host checks and panic with the replayable
/// `(scenario, seed, time)` triple on any violation. Hands `sink` back.
pub(crate) fn checked_run(
    sim: &mut Simulator,
    sink: Option<Box<dyn TraceSink>>,
    horizon: SimTime,
    scenario: &str,
    seed: u64,
) -> (RunSummary, Option<Box<dyn TraceSink>>) {
    sim.core.set_trace(match sink {
        Some(inner) => Oracle::wrapping(inner),
        None => Box::new(Oracle::new()),
    });
    let summary = sim.run_until(horizon);
    let verdict = smapp_pm::verify::conclude(sim, &summary, scenario, seed);
    verdict.expect_clean();
    (summary, verdict.inner)
}

/// The concrete collector behind the sink [`checked_run`] handed back.
pub(crate) fn sink_as<T: 'static>(sink: &Option<Box<dyn TraceSink>>) -> &T {
    sink.as_deref()
        .and_then(|s| s.as_any().downcast_ref())
        .expect("checked_run hands back the sink it was given")
}

/// Give `client` the upload every single-transfer scenario drives:
/// connect to the server at 10 ms (from `src`, when pinned), send
/// `transfer` bytes, close, and stop the run once all of it is
/// acknowledged.
pub(crate) fn bulk_client(mut client: Host, src: Option<Addr>, transfer: u64) -> Host {
    client.connect_at(
        SimTime::from_millis(10),
        src,
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(transfer)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    client
}

/// The server every upload scenario talks to: a byte sink on port 80
/// that closes when the client does.
pub(crate) fn sink_server() -> Host {
    let mut server = Host::new("server", StackConfig::default());
    server.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );
    server
}

/// The application of `node`'s first connection, as a `T`.
pub(crate) fn first_app<T: 'static>(sim: &Simulator, node: NodeId) -> Option<&T> {
    let conn = topo::host(sim, node).stack.connections().next()?;
    conn.app()?.as_any().downcast_ref()
}

/// `(delivered, completed_at)` of a [`bulk_client`] upload: the bytes
/// the server's sink received, and the end of the run in seconds when
/// that was the whole transfer.
pub(crate) fn bulk_outcome(
    sim: &Simulator,
    server: NodeId,
    transfer: u64,
    summary: &RunSummary,
) -> (u64, Option<f64>) {
    let delivered = first_app::<Sink>(sim, server).map_or(0, |s| s.received);
    let completed_at = (delivered >= transfer).then(|| summary.ended_at.as_secs_f64());
    (delivered, completed_at)
}

/// How many of `paths` carried a meaningful share (> 1 %) of `transfer`
/// toward the server.
pub(crate) fn paths_used(sim: &Simulator, paths: &[LinkId], transfer: u64) -> usize {
    paths
        .iter()
        .filter(|&&l| sim.core.link_stats(l, Dir::AtoB).bytes_delivered > transfer / 100)
        .count()
}

/// Declares the scenario modules and builds [`REGISTRY`] from the same
/// list, so the two cannot drift.
macro_rules! registry {
    ($($module:ident :: $scenario:ident),+ $(,)?) => {
        $(pub mod $module;)+

        /// Every scenario, in matrix (report row) order: the paper's
        /// five artefacts, then the beyond-paper worlds.
        pub const REGISTRY: &[Registered] = &[$(Registered::of::<$module::$scenario>()),+];
    };
}

registry! {
    fig2a::Fig2a,
    fig2b::Fig2b,
    fig2c::Fig2c,
    fig3::Fig3,
    sec42::Sec42,
    fleet::Fleet,
    handover::Handover,
    flap::Flap,
    middlebox::Middlebox,
    cdn::Cdn,
    fuzz::Fuzz,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(smoke: bool) -> usize {
        crate::perf::paper_matrix(smoke).len()
    }

    #[test]
    fn registry_names_are_unique() {
        // Report rows and the ceiling lookups key on `NAME`: two
        // scenarios sharing one would silently merge their rows.
        for (i, s) in REGISTRY.iter().enumerate() {
            assert_eq!(
                REGISTRY.iter().position(|r| r.name == s.name),
                Some(i),
                "scenario name `{}` is registered twice",
                s.name
            );
        }
    }

    #[test]
    fn every_scenario_contributes_a_smoke_cell() {
        for s in REGISTRY {
            assert!(
                (s.entries)(true).iter().any(|e| !e.seeds.is_empty()),
                "scenario `{}` is registered but has no smoke cell — it would \
                 silently skip every registry-driven test",
                s.name
            );
        }
    }

    #[test]
    fn matrix_sizes_are_the_documented_ones() {
        // Tier-1 never runs the full matrix; this at least pins its shape.
        assert_eq!((cells(true), cells(false)), (15, 38));
    }
}
