//! # smapp-bench — the experiment harness
//!
//! Regenerates every figure of the SMAPP paper (the paper has no tables):
//!
//! | Artifact | Scenario | Binary |
//! |---|---|---|
//! | Fig. 2a — backup switchover sequence trace | [`scenarios::fig2a`] | `fig2a` |
//! | Fig. 2b — block-delay CDF, smart stream vs full-mesh | [`scenarios::fig2b`] | `fig2b` |
//! | Fig. 2c — 100 MB completion CDF, refresh vs ndiffports | [`scenarios::fig2c`] | `fig2c` |
//! | Fig. 3 — CAPA→JOIN delay CDF, kernel vs userspace | [`scenarios::fig3`] | `fig3` |
//! | §4.2 narrative — 15-doubling give-up baseline | [`scenarios::sec42`] | `sec42_baseline` |
//!
//! Each binary prints plot-ready series (`label\tx\tF(x)` rows) plus a
//! summary block; Criterion micro-benchmarks live under `benches/`.
//!
//! Beyond the paper, the scripted network-dynamics scenarios (built on
//! `smapp_sim::dynamics`) open the networks-that-change axis:
//! [`scenarios::handover`] (break-before-make WiFi→LTE mobility),
//! [`scenarios::flap`] (a periodically failing ECMP bottleneck routed
//! around by the refresh controller) and [`scenarios::middlebox`] (an
//! MPTCP-option-stripping hop forcing graceful plain-TCP fallback) —
//! plus the many-client [`scenarios::fleet`] workload and the
//! heavy-tailed [`scenarios::cdn`] traffic mix (bounded-Pareto sizes,
//! wavy-Poisson arrivals; [`traffic`]).
//!
//! Every run executes under the protocol-invariant oracle
//! (`smapp_sim::Oracle` + the `smapp-mptcp` end-host taps, concluded by
//! `smapp_pm::verify`), and the [`fuzz`] module turns that oracle into a
//! specification to fuzz against: seed-derived topologies, dynamics
//! scripts, adversarial middleboxes (NAT seq rewriting, segment
//! split/coalesce, ACK thinning, SYN/`MP_JOIN` floods), traffic mixes
//! and controller mixes, **coverage-guided mutation** over a 256-bit
//! feature bitmap (`fuzz --mutate`, the CI fuzz-mutate job), and
//! failing cases shrunk to a minimal dynamics subset and reported as
//! replayable seeds or full case literals (`fuzz` binary; fixed corpus
//! in `FUZZ_CORPUS.txt`).
//!
//! Each scenario is one [`scenarios::Scenario`] impl registered once in
//! [`scenarios::REGISTRY`]; everything below iterates that registry. The
//! `perf_report` binary ([`perf`]) drives the full scenario×seed matrix —
//! every paper artifact above plus the beyond-paper workloads — through
//! the deterministic multi-core [`sweep`] engine (`--jobs N`), measures
//! wall time, events/sec, peak event-queue depth and allocations/event
//! ([`count_alloc`]), and exits non-zero unless parallel execution
//! reproduces the sequential trajectories bit-for-bit and the fig2c
//! per-seed trajectory is identical to the recorded `524cdc6` baseline.
//! Nothing that reads a clock fails a build: allocation ceilings, corpus
//! coverage and probe overhead are asserted by tier-1 tests, host time is
//! measured by the repo benchmark (`benchmark/`).

#![warn(missing_docs)]

pub mod count_alloc;
pub mod fuzz;
pub mod perf;
pub mod pms;
pub mod scenarios;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod traffic;

pub use stats::Cdf;
