//! Coverage-guided scenario fuzzing with the protocol-invariant oracle
//! attached.
//!
//! In the spirit of history-based checkers that exercise *generated*
//! executions against an executable specification (rather than hand-picked
//! cases), this module derives a complete scenario — topology, link
//! parameters, path-manager mix, workload, middlebox/rewriter family,
//! adversarial flood plan and a [`NetemScript`] of mid-run churn — from a
//! `u64` seed, runs it with the wire oracle and the end-host taps
//! enabled, and reports every invariant violation with the replayable
//! `(scenario="fuzz", seed, time)` triple.
//!
//! Beyond pure seed derivation, the module is a **coverage-guided mutation
//! engine** ([`Mutator`]): every run folds what it touched into a 256-bit
//! feature bitmap ([`Coverage`]) — wire-level features recorded by the
//! oracle (bits 0..64, `smapp_sim::coverage::wire`) plus case-shape and
//! outcome features assembled here (bits 64.., [`feat`]). A mutated case
//! that sets a bit no earlier case set is *interesting*: it joins the
//! corpus and becomes a preferred mutation parent, steering the search
//! toward unexplored feature space. Everything stays bit-deterministic:
//! one seeded [`SimRng`] drives parent selection and every mutation
//! operator, so a `(seed corpus, mutation seed)` pair replays identically.
//!
//! * [`FuzzCase::derive`] — seed → scenario description (deterministic; no
//!   state outside the seed). [`FuzzCase::derive_v1`] is the frozen PR-5
//!   derivation (no rewriters, floods or traffic model) kept as the
//!   seed-only coverage baseline.
//! * [`run_case`] / [`run_case_opts`] — build, run,
//!   [`smapp_pm::verify::conclude`], assemble the coverage bitmap; never
//!   panics, so a corpus sweep reports every failure.
//! * [`Mutator`] — the coverage-guided loop: seed the corpus, then
//!   mutate/splice cases toward new feature bits ([`Mutator::step`]).
//! * [`shrink`] / [`shrink_case`] — for a failing case, bisect the
//!   dynamics script down to a minimal still-failing subset;
//!   [`dynamics_snippet`] renders the survivor as a copy-pasteable Rust
//!   [`NetemScript`] snippet.
//! * [`default_corpus`] — the committed fixed-seed corpus
//!   (`FUZZ_CORPUS.txt`) CI runs on every build; failures reproduce
//!   locally with `cargo run --release -p smapp-bench --bin fuzz --
//!   --replay <seed>`.
//!
//! Corpus sweeps parallelize over the same worker pool as the scenario
//! matrix ([`crate::sweep::run_jobs`]); each case is one independent,
//! thread-confined world. The mutation loop is single-threaded by design —
//! its corpus evolution is part of the deterministic trajectory.

use std::time::Duration;

use smapp_mptcp::apps::{BulkSender, Sink, StreamSender};
use smapp_mptcp::{App, NoopPm, StackConfig};
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::{verify, FullMeshPm, Host, NdiffportsPm};
use smapp_sim::adversary::{FloodCfg, FloodMix, FloodSource};
use smapp_sim::{
    Addr, Coverage, Dir, InstallPolicy, LinkCfg, LinkId, LossPct, Netem, NetemScript, OneWayDelay,
    Oracle, QueueLen, RateBps, Router, RunSummary, SimRng, SimTime, Simulator, Stage, StopReason,
};

use crate::pms::BackupFlagPm;
use crate::sweep::{run_jobs, JobFn};
use crate::traffic::{FlowClass, TrafficModel};

/// Topology family of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topo {
    /// Dual-homed client behind one router ([`topo::two_path`]).
    TwoPath,
    /// Single-homed client across an ECMP fan of `n` paths ([`topo::ecmp`]).
    Ecmp(usize),
}

/// Path-manager / controller mix of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmMix {
    /// No path manager: single subflow.
    Noop,
    /// Kernel full-mesh.
    FullMesh,
    /// Kernel ndiffports with `n` subflows.
    Ndiffports(u8),
    /// Immediate backup subflow over the second interface (two-path only).
    BackupFlag,
}

/// Middlebox behaviour of one case (two-path topology only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strip {
    /// Router forwards options untouched.
    Off,
    /// Router strips MPTCP options from the first SYN on: the handshake
    /// itself degrades to plain TCP.
    FromStart,
    /// Stripping switches on *between* the handshake and the first data
    /// segment — the RFC 6824 §3.7 inference case: MPTCP is negotiated,
    /// then the peer's first data arrives DSS-less.
    MidHandshake,
}

/// Adversarial rewriter family on the router forwarding path (two-path
/// topology only; see `smapp_sim::rewrite` and the `Router` knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rewrite {
    /// Router forwards byte-identical segments.
    Off,
    /// NAT-style per-flow sequence/ack shifting (symmetric, stateless).
    SeqNat,
    /// Option-free data segments are split in half.
    Split,
    /// Contiguous option-free data segments are coalesced.
    Coalesce,
    /// Every n-th pure ACK per flow is dropped (FIN exchanges exempt).
    AckThin(u32),
}

/// A planned SYN / `MP_JOIN` flood riding alongside the real workload
/// (two-path topology only; the flood host hangs off its own router leg).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FloodPlan {
    /// Handshake mix the attacker emits.
    pub mix: FloodMix,
    /// Total bogus SYNs.
    pub count: u32,
    /// Gap between SYNs, milliseconds.
    pub interval_ms: u64,
    /// First SYN time, milliseconds.
    pub start_ms: u64,
}

/// Heavy-tailed background traffic from [`TrafficModel`]: up to `flows`
/// extra client connections (Pareto sizes, wavy Poisson arrivals, mixed
/// GET/streaming apps) share the path with the main transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficPlan {
    /// Cap on sampled background flows.
    pub flows: u8,
}

/// One abstract scripted action; links are indices into the case's link
/// table (two-path: `[link1, link2]`, ECMP: the parallel paths) so a case
/// is fully described before the world exists.
#[derive(Clone, Debug)]
pub struct FuzzDyn {
    /// When the action runs.
    pub at: SimTime,
    /// Which table link it targets.
    pub link_idx: usize,
    /// What happens.
    pub action: FuzzAction,
}

/// Abstract dynamics action (resolved to a typed [`Netem`] clause at
/// build time).
#[derive(Clone, Debug)]
pub enum FuzzAction {
    /// Serialization-rate change, bits/s.
    Rate(u64),
    /// Bernoulli loss-ratio change.
    Loss(f64),
    /// One-way delay change.
    Delay(Duration),
    /// Drop-tail queue capacity change, packets.
    Queue(usize),
    /// Link down, back up after the duration.
    FlapDown(Duration),
    /// Netem-style reordering: hold-back probability and extra delay.
    Reorder(f64, Duration),
    /// Netem-style duplication probability.
    Duplicate(f64),
    /// Read-only sockdiag snapshot of the client host (ignores the
    /// entry's `link_idx`; never perturbs the trajectory).
    Probe,
}

/// A fully derived (or mutated) fuzz case.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The world seed (mutated cases draw a fresh one).
    pub seed: u64,
    /// Topology family.
    pub topo: Topo,
    /// Per-link configs: two-path `[cfg1, cfg2]`, ECMP one per path.
    pub link_cfgs: Vec<LinkCfg>,
    /// Path-manager mix.
    pub pm: PmMix,
    /// Transfer size, bytes.
    pub transfer: u64,
    /// Middlebox behaviour.
    pub strip: Strip,
    /// Adversarial rewriter family.
    pub rewrite: Rewrite,
    /// Optional SYN/`MP_JOIN` flood.
    pub flood: Option<FloodPlan>,
    /// Optional heavy-tailed background traffic.
    pub traffic: Option<TrafficPlan>,
    /// Scripted churn.
    pub dynamics: Vec<FuzzDyn>,
    /// Simulation horizon.
    pub horizon: SimTime,
}

/// Time the client workload connects (fixed so [`Strip::MidHandshake`]
/// can place its toggle deterministically inside the handshake window).
const CONNECT_AT_MS: u64 = 10;

/// For [`Strip::MidHandshake`] the two-path access delays are pinned to
/// 10 ms so the strip toggle at 36 ms lands after the router forwarded the
/// SYN/ACK (~22 ms) and before the first data transits it (~42 ms).
const MID_STRIP_AT_MS: u64 = 36;

/// Decorrelates the background-traffic sampler from the world RNG.
const TRAFFIC_SALT: u64 = 0x7AFF_1C0D_E15E_ED42;

impl FuzzCase {
    /// The frozen PR-5 derivation: seed → case with no rewriter family, no
    /// flood and no traffic model. Kept verbatim as the seed-only coverage
    /// baseline the mutation engine must beat (and as the shared RNG draw
    /// prefix of [`FuzzCase::derive`], so the two derivations agree on
    /// every common field).
    pub fn derive_v1(seed: u64) -> FuzzCase {
        Self::derive_base(seed).0
    }

    fn derive_base(seed: u64) -> (FuzzCase, SimRng) {
        // Decorrelate from the world RNG (which also consumes `seed`).
        let mut r = SimRng::seed_from_u64(seed ^ 0x5EED_F0CC_0BAD_CA5E);
        let topo = if r.chance(0.5) {
            Topo::TwoPath
        } else {
            Topo::Ecmp(r.range_u64(2, 5) as usize)
        };
        let n_links = match topo {
            Topo::TwoPath => 2,
            Topo::Ecmp(n) => n,
        };
        let strip = match topo {
            Topo::TwoPath => {
                let x = r.range_u64(0, 100);
                if x < 20 {
                    Strip::FromStart
                } else if x < 35 {
                    Strip::MidHandshake
                } else {
                    Strip::Off
                }
            }
            Topo::Ecmp(_) => Strip::Off,
        };
        let link_cfgs: Vec<LinkCfg> = (0..n_links)
            .map(|_| {
                if strip == Strip::MidHandshake {
                    // Pinned delays: the mid-handshake toggle instant
                    // depends on them.
                    LinkCfg::mbps_ms(5, 10)
                } else {
                    let mbps = r.range_u64(2, 21);
                    let delay_ms = r.range_u64(2, 41);
                    LinkCfg::mbps_ms(mbps, delay_ms).queue(r.range_u64(16, 129) as usize)
                }
            })
            .collect();
        let pm = if strip == Strip::MidHandshake {
            // Joins would add subflows and defeat the single-subflow §3.7
            // inference window; keep the case on one subflow.
            PmMix::Noop
        } else {
            match (topo.clone(), r.range_u64(0, 3)) {
                (_, 0) => PmMix::Noop,
                (Topo::TwoPath, 1) => PmMix::BackupFlag,
                (Topo::TwoPath, _) => PmMix::FullMesh,
                (Topo::Ecmp(_), 1) => PmMix::Ndiffports(r.range_u64(2, 6) as u8),
                (Topo::Ecmp(_), _) => PmMix::FullMesh,
            }
        };
        let transfer = r.range_u64(20_000, 150_001);
        let n_dyn = r.range_u64(0, 5) as usize;
        let mut dynamics = Vec::with_capacity(n_dyn);
        for _ in 0..n_dyn {
            let at = SimTime::from_millis(r.range_u64(200, 30_000));
            let link_idx = r.range_u64(0, n_links as u64) as usize;
            let action = match r.range_u64(0, 5) {
                0 => FuzzAction::Rate(r.range_u64(500_000, 20_000_001)),
                1 => FuzzAction::Loss(r.range_u64(0, 26) as f64 / 100.0),
                2 => FuzzAction::Delay(Duration::from_millis(r.range_u64(1, 61))),
                3 => FuzzAction::Queue(r.range_u64(8, 129) as usize),
                _ => FuzzAction::FlapDown(Duration::from_millis(r.range_u64(100, 2_001))),
            };
            dynamics.push(FuzzDyn {
                at,
                link_idx,
                action,
            });
        }
        (
            FuzzCase {
                seed,
                topo,
                link_cfgs,
                pm,
                transfer,
                strip,
                rewrite: Rewrite::Off,
                flood: None,
                traffic: None,
                dynamics,
                horizon: SimTime::from_secs(60),
            },
            r,
        )
    }

    /// Derive the complete case from `seed` — deterministic, stateless.
    ///
    /// Draws the [`FuzzCase::derive_v1`] prefix first, then appends the
    /// adversarial families: a rewriter pick, a flood plan and a traffic
    /// plan. The appended values are always *drawn* (so the draw sequence
    /// never depends on the prefix) but only *applied* where they are
    /// meaningful: rewriters and floods need the two-path router, and the
    /// pinned [`Strip::MidHandshake`] inference family stays untouched.
    pub fn derive(seed: u64) -> FuzzCase {
        let (mut case, mut r) = Self::derive_base(seed);
        let rw = r.range_u64(0, 100);
        let thin = r.range_u64(2, 5) as u32;
        let rewrite = match rw {
            0..=49 => Rewrite::Off,
            50..=61 => Rewrite::SeqNat,
            62..=73 => Rewrite::Split,
            74..=85 => Rewrite::Coalesce,
            _ => Rewrite::AckThin(thin),
        };
        let flood_on = r.chance(0.25);
        let flood = FloodPlan {
            mix: match r.range_u64(0, 3) {
                0 => FloodMix::PlainSyn,
                1 => FloodMix::MpJoin,
                _ => FloodMix::Mixed,
            },
            count: r.range_u64(20, 121) as u32,
            interval_ms: r.range_u64(1, 20),
            start_ms: r.range_u64(5, 2_000),
        };
        let traffic_on = r.chance(0.3);
        let flows = r.range_u64(1, 5) as u8;
        // Netem-operator draws appended after every older family (so the
        // older draw sequence stays frozen): reorder, duplicate, probe.
        // Always drawn, conditionally applied.
        let n_links = case.link_cfgs.len() as u64;
        let reorder_on = r.chance(0.15);
        let reorder = FuzzDyn {
            at: SimTime::from_millis(r.range_u64(200, 30_000)),
            link_idx: r.range_u64(0, n_links) as usize,
            action: FuzzAction::Reorder(
                r.range_u64(1, 16) as f64 / 100.0,
                Duration::from_millis(r.range_u64(1, 31)),
            ),
        };
        let dup_on = r.chance(0.15);
        let dup = FuzzDyn {
            at: SimTime::from_millis(r.range_u64(200, 30_000)),
            link_idx: r.range_u64(0, n_links) as usize,
            action: FuzzAction::Duplicate(r.range_u64(1, 11) as f64 / 100.0),
        };
        let probe_on = r.chance(0.3);
        let probe = FuzzDyn {
            at: SimTime::from_millis(r.range_u64(500, 20_000)),
            link_idx: 0,
            action: FuzzAction::Probe,
        };

        if case.topo == Topo::TwoPath && case.strip != Strip::MidHandshake {
            case.rewrite = rewrite;
            if matches!(case.rewrite, Rewrite::Split | Rewrite::Coalesce)
                && case.strip == Strip::Off
            {
                // Split/coalesce only touch option-free segments; with
                // MPTCP options intact they would never fire. Stripping
                // from the start makes the whole flow eligible.
                case.strip = Strip::FromStart;
            }
            if flood_on {
                case.flood = Some(flood);
            }
        }
        if case.strip != Strip::MidHandshake && traffic_on {
            case.traffic = Some(TrafficPlan { flows });
        }
        if case.strip != Strip::MidHandshake {
            // The pinned §3.7 inference family stays untouched; everyone
            // else may gain the netem operators.
            if reorder_on {
                case.dynamics.push(reorder);
            }
            if dup_on {
                case.dynamics.push(dup);
            }
            if probe_on {
                case.dynamics.push(probe);
            }
        }
        case
    }

    /// One-line description (stable; part of the sweep trajectory).
    pub fn describe(&self) -> String {
        let topo = match self.topo {
            Topo::TwoPath => "two_path".to_string(),
            Topo::Ecmp(n) => format!("ecmp{n}"),
        };
        format!(
            "{topo} pm={:?} strip={:?} rw={:?} transfer={} dyn={} flood={} bg={}",
            self.pm,
            self.strip,
            self.rewrite,
            self.transfer,
            self.dynamics.len(),
            self.flood.map(|f| f.count).unwrap_or(0),
            self.traffic.map(|t| t.flows).unwrap_or(0),
        )
    }
}

/// Case-shape and outcome feature bits (64..), unioned with the oracle's
/// wire bits (`smapp_sim::coverage::wire`, 0..64) into one [`Coverage`]
/// bitmap per run. Bit numbers are part of the recorded corpus baseline —
/// append, never renumber.
pub mod feat {
    /// Case ran the two-path topology.
    pub const TOPO_TWO_PATH: u32 = 64;
    /// Case ran an ECMP fan.
    pub const TOPO_ECMP: u32 = 65;
    /// Options stripped from the first SYN on.
    pub const STRIP_FROM_START: u32 = 66;
    /// The §3.7 mid-handshake strip family.
    pub const STRIP_MID_HANDSHAKE: u32 = 67;
    /// Path managers.
    pub const PM_NOOP: u32 = 68;
    /// Kernel full-mesh PM ran.
    pub const PM_FULL_MESH: u32 = 69;
    /// Kernel ndiffports PM ran.
    pub const PM_NDIFFPORTS: u32 = 70;
    /// Backup-flag controller ran.
    pub const PM_BACKUP_FLAG: u32 = 71;
    /// Dynamics action kinds that were scheduled.
    pub const DYN_RATE: u32 = 72;
    /// A loss-ratio change was scheduled.
    pub const DYN_LOSS: u32 = 73;
    /// A delay change was scheduled.
    pub const DYN_DELAY: u32 = 74;
    /// A queue-capacity change was scheduled.
    pub const DYN_QUEUE: u32 = 75;
    /// A link flap was scheduled.
    pub const DYN_FLAP: u32 = 76;
    /// Rewriter families.
    pub const REWRITE_SEQ_NAT: u32 = 77;
    /// Split rewriter configured.
    pub const REWRITE_SPLIT: u32 = 78;
    /// Coalesce rewriter configured.
    pub const REWRITE_COALESCE: u32 = 79;
    /// ACK-thinning rewriter configured.
    pub const REWRITE_ACK_THIN: u32 = 80;
    /// Flood mixes.
    pub const FLOOD_PLAIN: u32 = 81;
    /// An `MP_JOIN` flood ran.
    pub const FLOOD_MP_JOIN: u32 = 82;
    /// A mixed flood ran.
    pub const FLOOD_MIXED: u32 = 83;
    /// Background traffic-model flows were scheduled.
    pub const TRAFFIC_MODEL: u32 = 84;
    /// At least one background flow was a paced stream.
    pub const TRAFFIC_STREAMING: u32 = 85;
    /// A netem reorder impairment was scheduled.
    pub const DYN_REORDER: u32 = 86;
    /// A netem duplicate impairment was scheduled.
    pub const DYN_DUPLICATE: u32 = 87;
    /// A scripted sockdiag probe was scheduled.
    pub const DYN_PROBE: u32 = 88;

    /// Run drained to idle.
    pub const STOP_IDLE: u32 = 96;
    /// Run hit the horizon.
    pub const STOP_HORIZON: u32 = 97;
    /// Run stopped for another reason (requested / event limit).
    pub const STOP_OTHER: u32 = 98;
    /// Server received the full main transfer.
    pub const DELIVERED_ALL: u32 = 99;
    /// Server received part of the main transfer.
    pub const DELIVERED_PARTIAL: u32 = 100;
    /// Server received nothing.
    pub const DELIVERED_NONE: u32 = 101;
    /// Some connection inferred a plain-TCP fallback (RFC 6824 §3.7).
    pub const FALLBACK_INFERRED: u32 = 102;
    /// Some connection reinjected data across subflows.
    pub const REINJECTIONS: u32 = 103;
    /// Some connection ran more than one subflow.
    pub const MULTI_SUBFLOW: u32 = 104;
    /// The router actually stripped options.
    pub const OPTIONS_STRIPPED: u32 = 105;
    /// The router actually rewrote sequence numbers.
    pub const SEQ_REWRITTEN: u32 = 106;
    /// The router actually split segments.
    pub const SEGMENTS_SPLIT: u32 = 107;
    /// The router actually coalesced segments.
    pub const SEGMENTS_COALESCED: u32 = 108;
    /// The router actually dropped thinned ACKs.
    pub const ACKS_THINNED: u32 = 109;
    /// The flood source emitted SYNs.
    pub const FLOOD_SYNS_SENT: u32 = 110;
    /// The flood source RST-answered a SYN-ACK.
    pub const FLOOD_RSTS: u32 = 111;
    /// Base of the subflow close-reason block: bit `112 + i` is set when
    /// some connection closed a subflow with `SubflowError` coverage bit
    /// `i` (0 = graceful FIN, then Timeout, Reset, Refused, NetUnreachable,
    /// IfaceDown, PmRequested).
    pub const CLOSE_REASON_BASE: u32 = 112;
    /// Some link actually held a packet back (reorder fired).
    pub const PKTS_REORDERED: u32 = 119;
    /// Some link actually duplicated a packet at admission.
    pub const PKTS_DUPLICATED: u32 = 120;
    /// A scripted sockdiag probe captured at least one live connection.
    pub const DIAG_CONNS: u32 = 121;
    /// The run violated the oracle (wire- or host-level).
    pub const FAILED: u32 = 126;
}

/// Build-time options the corpus never varies — the broken-build detection
/// path flips them to prove the engine notices.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Forwarded into every host's [`StackConfig::fallback_inference`].
    pub fallback_inference: bool,
    /// Arms the router's **test-only** split-rewriter fault (zeroed data
    /// offset on the second half); only observable when a case actually
    /// splits segments.
    pub buggy_split: bool,
    /// Dynamics entries to keep (`None` = all) — the shrinker's lever.
    pub dynamics_keep: Option<Vec<bool>>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            fallback_inference: true,
            buggy_split: false,
            dynamics_keep: None,
        }
    }
}

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The seed (replay key for derived cases).
    pub seed: u64,
    /// [`FuzzCase::describe`] of the case that ran.
    pub desc: String,
    /// The simulator's run summary.
    pub summary: RunSummary,
    /// Oracle violations (wire + end-host), replay-labelled.
    pub violations: Vec<String>,
    /// Bytes the server application received (all flows).
    pub delivered: u64,
    /// The run's feature bitmap: oracle wire bits ∪ case/outcome bits.
    pub coverage: Coverage,
}

/// Derive and run one case with default options.
pub fn run_case(seed: u64) -> CaseOutcome {
    run_case_opts(&FuzzCase::derive(seed), &FuzzOptions::default())
}

/// Run a (possibly mutated) case under explicit options.
pub fn run_case_opts(case: &FuzzCase, opts: &FuzzOptions) -> CaseOutcome {
    let cfg = StackConfig {
        fallback_inference: opts.fallback_inference,
        ..StackConfig::default()
    };
    let mut client = Host::new("client", cfg.clone());
    client.pm = match case.pm {
        PmMix::Noop => Box::new(NoopPm),
        PmMix::FullMesh => Box::new(FullMeshPm::new()),
        PmMix::Ndiffports(n) => Box::new(NdiffportsPm::new(n)),
        PmMix::BackupFlag => Box::new(BackupFlagPm::new(CLIENT_ADDR2)),
    };
    // No `stop_sim_when_acked()`: letting the world drain to a
    // `StopReason::Idle` end keeps the oracle's end-of-run link-
    // conservation *equality* check live for every case that completes
    // (a requested stop would leave packets legitimately in flight and
    // skip it).
    client.connect_at(
        SimTime::from_millis(CONNECT_AT_MS),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(case.transfer).close_when_done()),
    );
    // Heavy-tailed background flows from the traffic model, sampled from a
    // salted RNG so the schedule is part of the case identity.
    let mut any_stream = false;
    if let Some(tp) = case.traffic {
        let model = TrafficModel {
            size_min: 2_000,
            size_max: 120_000,
            rate_hz: 1.5,
            wave_period: SimTime::from_secs(10),
            ..TrafficModel::cdn()
        };
        let mut trng = SimRng::seed_from_u64(case.seed ^ TRAFFIC_SALT);
        let window = case.horizon.min(SimTime::from_secs(20));
        for f in model.sample(
            &mut trng,
            SimTime::from_millis(CONNECT_AT_MS),
            window,
            tp.flows as usize,
        ) {
            let app: Box<dyn App> = match f.class {
                FlowClass::ShortGet => Box::new(BulkSender::new(f.size).close_when_done()),
                FlowClass::Streaming => {
                    any_stream = true;
                    let blocks = (f.size / 8_192).clamp(1, 40);
                    Box::new(StreamSender::new(8_192, Duration::from_millis(50), blocks))
                }
            };
            client.connect_at(f.start, Some(CLIENT_ADDR1), SERVER_ADDR, 80, app);
        }
    }
    let mut server = Host::new("server", cfg);
    server.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );

    // Build the world and the link table the abstract dynamics refer to.
    let (mut sim, links, router, client_node, server_node) = match case.topo {
        Topo::TwoPath => {
            let net = topo::two_path(
                case.seed,
                client,
                server,
                case.link_cfgs[0].clone(),
                case.link_cfgs[1].clone(),
            );
            (
                net.sim,
                vec![net.link1, net.link2],
                Some(net.router),
                net.client,
                net.server,
            )
        }
        Topo::Ecmp(_) => {
            let net = topo::ecmp(case.seed, client, server, &case.link_cfgs);
            (net.sim, net.paths.clone(), None, net.client, net.server)
        }
    };
    sim.core.set_trace(Box::new(Oracle::new()));

    // Rewriter family + test-only fault knob, directly on the router.
    if let Some(router) = router {
        let r = sim
            .node_mut(router)
            .as_any_mut()
            .downcast_mut::<Router>()
            .expect("two-path router node");
        match case.rewrite {
            Rewrite::Off => {}
            Rewrite::SeqNat => r.middlebox(None, Stage::SeqNat, true),
            Rewrite::Split => r.middlebox(None, Stage::Split, true),
            Rewrite::Coalesce => r.middlebox(None, Stage::Coalesce, true),
            Rewrite::AckThin(n) => r.middlebox(None, Stage::AckThin(n.max(2)), true),
        }
        r.buggy_split = opts.buggy_split;
    }

    // The flood host hangs off its own router leg (10.0.3.0/24) so bogus
    // handshakes share the fat link with the real workload.
    let mut flood_node = None;
    if let (Some(fp), Some(router)) = (case.flood, router) {
        let fl = sim.add_node(Box::new(FloodSource::new(FloodCfg {
            target: SERVER_ADDR,
            port: 80,
            start: SimTime::from_millis(fp.start_ms),
            interval: Duration::from_millis(fp.interval_ms.max(1)),
            count: fp.count,
            mix: fp.mix,
        })));
        let fi = sim.add_iface(fl, Addr::new(10, 0, 3, 1), "eth0");
        let ri = sim.add_iface(router, Addr::new(10, 0, 3, 254), "r3");
        sim.node_mut(router)
            .as_any_mut()
            .downcast_mut::<Router>()
            .expect("two-path router node")
            .add_route("10.0.3.0/24".parse().unwrap(), vec![ri]);
        sim.connect(fi, ri, LinkCfg::mbps_ms(100, 1));
        flood_node = Some(fl);
    }

    // The impairment program, in the typed netem grammar. Each abstract
    // action compiles to the same `DynAction`s in the same positional
    // order the hand-rolled script used to push, so per-seed trajectories
    // are unchanged.
    let mut script = NetemScript::new();
    let strip_on = |router| Netem::peer(router).middlebox(None, Stage::StripMptcp, true);
    match (case.strip, router) {
        (Strip::FromStart, Some(router)) => script.add(SimTime::ZERO, strip_on(router)),
        (Strip::MidHandshake, Some(router)) => {
            script.add(SimTime::from_millis(MID_STRIP_AT_MS), strip_on(router))
        }
        _ => {}
    }
    for (i, d) in case.dynamics.iter().enumerate() {
        if let Some(keep) = &opts.dynamics_keep {
            if !keep.get(i).copied().unwrap_or(true) {
                continue;
            }
        }
        let link: LinkId = links[d.link_idx.min(links.len() - 1)];
        match d.action {
            FuzzAction::Rate(bps) => {
                script.add(d.at, Netem::on(link).rate(RateBps::bps(bps)));
            }
            FuzzAction::Loss(p) => {
                script.add(d.at, Netem::on(link).loss(LossPct::ratio(p)));
            }
            FuzzAction::Delay(delay) => {
                script.add(d.at, Netem::on(link).delay(OneWayDelay::from(delay)));
            }
            FuzzAction::Queue(pkts) => {
                script.add(d.at, Netem::on(link).queue(QueueLen::pkts(pkts)));
            }
            FuzzAction::FlapDown(down_for) => {
                script.add(d.at, Netem::on(link).down());
                script.add(d.at + down_for, Netem::on(link).up());
            }
            FuzzAction::Reorder(pct, hold) => {
                script.add(
                    d.at,
                    Netem::on(link).reorder(LossPct::ratio(pct), OneWayDelay::from(hold)),
                );
            }
            FuzzAction::Duplicate(pct) => {
                script.add(d.at, Netem::on(link).duplicate(LossPct::ratio(pct)));
            }
            FuzzAction::Probe => {
                script.add(d.at, Netem::peer(client_node).probe());
            }
        }
    }
    sim.install(script, InstallPolicy::Sort)
        .expect("sort policy never rejects");

    let summary = sim.run_until(case.horizon);
    let verdict = verify::conclude(&mut sim, &summary, "fuzz", case.seed);
    let delivered = server_delivered(&sim, server_node);

    // Assemble the feature bitmap: oracle wire bits ∪ case shape ∪ what
    // the run actually did.
    let mut cov = verdict.wire_coverage;
    match case.topo {
        Topo::TwoPath => cov.set(feat::TOPO_TWO_PATH),
        Topo::Ecmp(_) => cov.set(feat::TOPO_ECMP),
    }
    match case.strip {
        Strip::Off => {}
        Strip::FromStart => cov.set(feat::STRIP_FROM_START),
        Strip::MidHandshake => cov.set(feat::STRIP_MID_HANDSHAKE),
    }
    cov.set(match case.pm {
        PmMix::Noop => feat::PM_NOOP,
        PmMix::FullMesh => feat::PM_FULL_MESH,
        PmMix::Ndiffports(_) => feat::PM_NDIFFPORTS,
        PmMix::BackupFlag => feat::PM_BACKUP_FLAG,
    });
    for d in &case.dynamics {
        cov.set(match d.action {
            FuzzAction::Rate(_) => feat::DYN_RATE,
            FuzzAction::Loss(_) => feat::DYN_LOSS,
            FuzzAction::Delay(_) => feat::DYN_DELAY,
            FuzzAction::Queue(_) => feat::DYN_QUEUE,
            FuzzAction::FlapDown(_) => feat::DYN_FLAP,
            FuzzAction::Reorder(..) => feat::DYN_REORDER,
            FuzzAction::Duplicate(_) => feat::DYN_DUPLICATE,
            FuzzAction::Probe => feat::DYN_PROBE,
        });
    }
    for &link in &links {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let s = sim.core.link_stats(link, dir);
            if s.reordered > 0 {
                cov.set(feat::PKTS_REORDERED);
            }
            if s.duplicated > 0 {
                cov.set(feat::PKTS_DUPLICATED);
            }
        }
    }
    match case.rewrite {
        Rewrite::Off => {}
        Rewrite::SeqNat => cov.set(feat::REWRITE_SEQ_NAT),
        Rewrite::Split => cov.set(feat::REWRITE_SPLIT),
        Rewrite::Coalesce => cov.set(feat::REWRITE_COALESCE),
        Rewrite::AckThin(_) => cov.set(feat::REWRITE_ACK_THIN),
    }
    if let Some(fp) = case.flood {
        cov.set(match fp.mix {
            FloodMix::PlainSyn => feat::FLOOD_PLAIN,
            FloodMix::MpJoin => feat::FLOOD_MP_JOIN,
            FloodMix::Mixed => feat::FLOOD_MIXED,
        });
    }
    if case.traffic.is_some() {
        cov.set(feat::TRAFFIC_MODEL);
        if any_stream {
            cov.set(feat::TRAFFIC_STREAMING);
        }
    }
    cov.set(match summary.reason {
        StopReason::Idle => feat::STOP_IDLE,
        StopReason::Horizon => feat::STOP_HORIZON,
        _ => feat::STOP_OTHER,
    });
    cov.set(if delivered >= case.transfer {
        feat::DELIVERED_ALL
    } else if delivered > 0 {
        feat::DELIVERED_PARTIAL
    } else {
        feat::DELIVERED_NONE
    });
    if let Some(router) = router {
        let r = sim
            .node(router)
            .as_any()
            .downcast_ref::<Router>()
            .expect("two-path router node");
        for (counter, bit) in [
            (r.counters.options_stripped, feat::OPTIONS_STRIPPED),
            (r.counters.seq_rewritten, feat::SEQ_REWRITTEN),
            (r.counters.segments_split, feat::SEGMENTS_SPLIT),
            (r.counters.segments_coalesced, feat::SEGMENTS_COALESCED),
            (r.counters.acks_thinned, feat::ACKS_THINNED),
        ] {
            if counter > 0 {
                cov.set(bit);
            }
        }
    }
    if let Some(fl) = flood_node {
        let f = sim
            .node(fl)
            .as_any()
            .downcast_ref::<FloodSource>()
            .expect("flood node");
        if f.sent > 0 {
            cov.set(feat::FLOOD_SYNS_SENT);
        }
        if f.rst_replies > 0 {
            cov.set(feat::FLOOD_RSTS);
        }
    }
    for id in sim.node_ids() {
        let Some(host) = sim.node(id).as_any().downcast_ref::<Host>() else {
            continue;
        };
        let probed_conns = host.diag.replies.iter().any(|frame| {
            matches!(smapp_netlink::decode(frame),
                     Ok(smapp_netlink::PmNlMessage::DiagReply { conns, .. }) if !conns.is_empty())
        });
        if probed_conns {
            cov.set(feat::DIAG_CONNS);
        }
        for conn in host.stack.connections() {
            if conn.stats.fallback_inferred {
                cov.set(feat::FALLBACK_INFERRED);
            }
            if conn.stats.reinjections > 0 {
                cov.set(feat::REINJECTIONS);
            }
            if conn.subflow_count() > 1 {
                cov.set(feat::MULTI_SUBFLOW);
            }
            for bit in 0..7 {
                if conn.stats.sf_close_reasons & (1 << bit) != 0 {
                    cov.set(feat::CLOSE_REASON_BASE + bit);
                }
            }
        }
    }
    if !verdict.violations.is_empty() {
        cov.set(feat::FAILED);
    }

    CaseOutcome {
        seed: case.seed,
        desc: case.describe(),
        summary,
        violations: verdict.violations,
        delivered,
        coverage: cov,
    }
}

fn server_delivered(sim: &Simulator, server: smapp_sim::NodeId) -> u64 {
    topo::host(sim, server)
        .stack
        .connections()
        .filter_map(|c| c.app())
        .filter_map(|a| a.as_any().downcast_ref::<Sink>())
        .map(|s| s.received)
        .sum()
}

/// A shrunken failing case.
#[derive(Debug)]
pub struct Shrunk {
    /// Indices of the dynamics entries still needed to reproduce.
    pub kept: Vec<usize>,
    /// Violations of the minimized case.
    pub violations: Vec<String>,
}

/// Minimize a failing case's dynamics script: greedily drop entries that
/// are not needed to keep the oracle failing, to a fixed point. Returns
/// `None` when the case does not fail in the first place.
pub fn shrink_case(case: &FuzzCase, opts: &FuzzOptions) -> Option<Shrunk> {
    let n = case.dynamics.len();
    let base = run_case_opts(case, opts);
    if base.violations.is_empty() {
        return None;
    }
    let mut keep = vec![true; n];
    let fails = |keep: &[bool]| {
        let o = run_case_opts(
            case,
            &FuzzOptions {
                dynamics_keep: Some(keep.to_vec()),
                ..opts.clone()
            },
        );
        (!o.violations.is_empty()).then_some(o.violations)
    };
    let mut violations = base.violations;
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            keep[i] = false;
            match fails(&keep) {
                Some(v) => {
                    violations = v;
                    changed = true;
                }
                None => keep[i] = true,
            }
        }
    }
    Some(Shrunk {
        kept: (0..n).filter(|&i| keep[i]).collect(),
        violations,
    })
}

/// [`shrink_case`] for a seed-derived case.
pub fn shrink(seed: u64, opts: &FuzzOptions) -> Option<Shrunk> {
    shrink_case(&FuzzCase::derive(seed), opts)
}

/// Render a case's strip toggle plus the `kept` dynamics entries as a
/// copy-pasteable Rust [`NetemScript`] snippet — exactly what
/// [`run_case_opts`] installs, so a failure report can be replayed in a
/// hand-written test without re-deriving anything. `links[i]` / `router`
/// / `client` refer to the scenario topology's handles in case order.
pub fn dynamics_snippet(case: &FuzzCase, kept: &[usize]) -> String {
    let mut s = String::from("let mut script = NetemScript::new();\n");
    match case.strip {
        Strip::Off => {}
        Strip::FromStart => s.push_str(
            "script.add(SimTime::ZERO, \
             Netem::peer(router).middlebox(None, Stage::StripMptcp, true));\n",
        ),
        Strip::MidHandshake => s.push_str(&format!(
            "script.add(SimTime::from_millis({MID_STRIP_AT_MS}), \
             Netem::peer(router).middlebox(None, Stage::StripMptcp, true));\n"
        )),
    }
    for &i in kept {
        let Some(d) = case.dynamics.get(i) else {
            continue;
        };
        let at = d.at.as_millis();
        let link = format!("links[{}]", d.link_idx);
        match d.action {
            FuzzAction::Rate(bps) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).rate(RateBps::bps({bps})));\n"
            )),
            FuzzAction::Loss(p) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).loss(LossPct::ratio({p:?})));\n"
            )),
            FuzzAction::Delay(delay) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).delay(OneWayDelay::ms({})));\n",
                delay.as_millis()
            )),
            FuzzAction::Queue(pkts) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).queue(QueueLen::pkts({pkts})));\n"
            )),
            FuzzAction::FlapDown(down_for) => {
                s.push_str(&format!(
                    "script.add(SimTime::from_millis({at}), Netem::on({link}).down());\n"
                ));
                s.push_str(&format!(
                    "script.add(SimTime::from_millis({}), Netem::on({link}).up());\n",
                    at + down_for.as_millis() as u64
                ));
            }
            FuzzAction::Reorder(pct, hold) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).reorder(LossPct::ratio({pct:?}), OneWayDelay::ms({})));\n",
                hold.as_millis()
            )),
            FuzzAction::Duplicate(pct) => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), \
                 Netem::on({link}).duplicate(LossPct::ratio({pct:?})));\n"
            )),
            FuzzAction::Probe => s.push_str(&format!(
                "script.add(SimTime::from_millis({at}), Netem::peer(client).probe());\n"
            )),
        }
    }
    s.push_str("sim.install(script, InstallPolicy::Sort).unwrap();\n");
    s
}

/// Decorrelates the mutation RNG from world and derivation RNGs.
const MUT_SALT: u64 = 0xC0FF_EE00_5EED_FACE;

/// One failing case the mutation engine found, with enough to reproduce:
/// the full case description (mutated cases are not seed-derivable).
#[derive(Clone, Debug)]
pub struct MutFailure {
    /// The exact case that failed.
    pub case: FuzzCase,
    /// Its oracle violations.
    pub violations: Vec<String>,
}

/// What one [`Mutator::step`] produced.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Description of the mutated case.
    pub desc: String,
    /// Did the case set feature bits no earlier case set?
    pub interesting: bool,
    /// Oracle violations of the case (0 = clean).
    pub violations: usize,
}

/// The coverage-guided mutation engine. Seed it from corpus seeds
/// ([`Mutator::from_seeds`]), then [`Mutator::step`] mutates corpus
/// entries toward unexplored feature space: a case whose bitmap sets new
/// bits joins the corpus and is preferred as the next parent. Fully
/// deterministic per `(seeds, mutation_seed, opts)`.
pub struct Mutator {
    opts: FuzzOptions,
    rng: SimRng,
    corpus: Vec<FuzzCase>,
    /// Union feature bitmap over every case run so far.
    pub coverage: Coverage,
    /// The union bitmap right after seeding, before any mutation — the
    /// floor the engine must beat to count as exploring.
    pub baseline_coverage: Coverage,
    /// Cases executed (seed corpus + mutations).
    pub cases_run: u64,
    /// Cases that set at least one new feature bit.
    pub interesting: u64,
    /// Every oracle-violating case observed, in discovery order.
    pub failures: Vec<MutFailure>,
    last_interesting: usize,
}

impl Mutator {
    /// Run every seed case, recording coverage and failures, and return
    /// the engine ready to mutate.
    pub fn from_seeds(seeds: &[u64], mutation_seed: u64, opts: FuzzOptions) -> Mutator {
        let mut m = Mutator {
            opts,
            rng: SimRng::seed_from_u64(mutation_seed ^ MUT_SALT),
            corpus: Vec::new(),
            coverage: Coverage::new(),
            baseline_coverage: Coverage::new(),
            cases_run: 0,
            interesting: 0,
            failures: Vec::new(),
            last_interesting: 0,
        };
        for &s in seeds {
            let case = FuzzCase::derive(s);
            let out = run_case_opts(&case, &m.opts);
            m.cases_run += 1;
            if m.coverage.new_bits(&out.coverage) > 0 {
                m.interesting += 1;
                m.last_interesting = m.corpus.len();
            }
            m.coverage.union(&out.coverage);
            if !out.violations.is_empty() {
                m.failures.push(MutFailure {
                    case: case.clone(),
                    violations: out.violations,
                });
            }
            // Seed cases always stay in the corpus: they are the
            // replayable anchors mutation starts from.
            m.corpus.push(case);
        }
        m.baseline_coverage = m.coverage;
        m
    }

    /// The current corpus (seed cases + every interesting mutant).
    pub fn corpus(&self) -> &[FuzzCase] {
        &self.corpus
    }

    /// Mutate one parent, run the child, classify it. Interesting children
    /// join the corpus; violating children are recorded in
    /// [`Mutator::failures`].
    pub fn step(&mut self) -> StepOutcome {
        let mut case = self.pick_parent();
        let ops = 1 + self.rng.range_u64(0, 3);
        for _ in 0..ops {
            self.mutate_once(&mut case);
        }
        // A fresh world seed per child: topology RNG diversity is part of
        // the search space too.
        case.seed = self.rng.next_u64();
        sanitize(&mut case, &mut self.rng);

        let out = run_case_opts(&case, &self.opts);
        self.cases_run += 1;
        let interesting = self.coverage.new_bits(&out.coverage) > 0;
        if interesting {
            self.coverage.union(&out.coverage);
            self.corpus.push(case.clone());
            self.last_interesting = self.corpus.len() - 1;
            self.interesting += 1;
        }
        let violations = out.violations.len();
        if violations > 0 {
            self.failures.push(MutFailure {
                case,
                violations: out.violations,
            });
        }
        StepOutcome {
            desc: out.desc,
            interesting,
            violations,
        }
    }

    fn pick_parent(&mut self) -> FuzzCase {
        if self.corpus.is_empty() {
            // Degenerate engine (no seeds): derive fresh cases instead.
            return FuzzCase::derive(self.rng.next_u64());
        }
        let idx = if self.rng.chance(0.5) {
            self.last_interesting.min(self.corpus.len() - 1)
        } else {
            self.rng.range_u64(0, self.corpus.len() as u64) as usize
        };
        self.corpus[idx].clone()
    }

    fn mutate_once(&mut self, c: &mut FuzzCase) {
        match self.rng.range_u64(0, 12) {
            0 => {
                c.transfer = match self.rng.range_u64(0, 3) {
                    0 => (c.transfer / 2).max(1_000),
                    1 => c.transfer.saturating_mul(2).min(400_000),
                    _ => self.rng.range_u64(5_000, 200_001),
                };
            }
            1 => {
                if !c.link_cfgs.is_empty() {
                    let i = self.rng.range_u64(0, c.link_cfgs.len() as u64) as usize;
                    c.link_cfgs[i] = random_link(&mut self.rng);
                }
            }
            2 => {
                let n_links = c.link_cfgs.len().max(1);
                c.dynamics.push(random_dyn(&mut self.rng, n_links));
            }
            3 => {
                if !c.dynamics.is_empty() {
                    let i = self.rng.range_u64(0, c.dynamics.len() as u64) as usize;
                    c.dynamics.remove(i);
                }
            }
            4 => {
                if !c.dynamics.is_empty() {
                    let i = self.rng.range_u64(0, c.dynamics.len() as u64) as usize;
                    c.dynamics[i].at = SimTime::from_millis(self.rng.range_u64(200, 30_000));
                }
            }
            5 => {
                c.pm = match self.rng.range_u64(0, 4) {
                    0 => PmMix::Noop,
                    1 => PmMix::FullMesh,
                    2 => PmMix::Ndiffports(self.rng.range_u64(2, 6) as u8),
                    _ => PmMix::BackupFlag,
                };
            }
            6 => {
                c.strip = match c.strip {
                    Strip::Off => Strip::FromStart,
                    Strip::FromStart => Strip::MidHandshake,
                    Strip::MidHandshake => Strip::Off,
                };
            }
            7 => {
                c.rewrite = match self.rng.range_u64(0, 5) {
                    0 => Rewrite::Off,
                    1 => Rewrite::SeqNat,
                    2 => Rewrite::Split,
                    3 => Rewrite::Coalesce,
                    _ => Rewrite::AckThin(self.rng.range_u64(2, 5) as u32),
                };
            }
            8 => {
                c.flood = if c.flood.is_some() && self.rng.chance(0.4) {
                    None
                } else {
                    Some(random_flood(&mut self.rng))
                };
            }
            9 => {
                c.traffic = if c.traffic.is_some() {
                    None
                } else {
                    Some(TrafficPlan {
                        flows: self.rng.range_u64(1, 5) as u8,
                    })
                };
            }
            10 => {
                // Splice: steal one dynamics entry from a donor corpus case.
                if !self.corpus.is_empty() {
                    let d = self.rng.range_u64(0, self.corpus.len() as u64) as usize;
                    let n = self.corpus[d].dynamics.len();
                    if n > 0 {
                        let i = self.rng.range_u64(0, n as u64) as usize;
                        let entry = self.corpus[d].dynamics[i].clone();
                        c.dynamics.push(entry);
                    }
                }
            }
            _ => {
                c.topo = match c.topo {
                    Topo::TwoPath => Topo::Ecmp(self.rng.range_u64(2, 5) as usize),
                    Topo::Ecmp(_) => Topo::TwoPath,
                };
            }
        }
    }
}

fn random_link(r: &mut SimRng) -> LinkCfg {
    let mbps = r.range_u64(2, 21);
    let delay_ms = r.range_u64(2, 41);
    LinkCfg::mbps_ms(mbps, delay_ms).queue(r.range_u64(16, 129) as usize)
}

fn random_dyn(r: &mut SimRng, n_links: usize) -> FuzzDyn {
    let at = SimTime::from_millis(r.range_u64(200, 30_000));
    let link_idx = r.range_u64(0, n_links as u64) as usize;
    let action = match r.range_u64(0, 8) {
        0 => FuzzAction::Rate(r.range_u64(500_000, 20_000_001)),
        1 => FuzzAction::Loss(r.range_u64(0, 26) as f64 / 100.0),
        2 => FuzzAction::Delay(Duration::from_millis(r.range_u64(1, 61))),
        3 => FuzzAction::Queue(r.range_u64(8, 129) as usize),
        4 => FuzzAction::Reorder(
            r.range_u64(1, 16) as f64 / 100.0,
            Duration::from_millis(r.range_u64(1, 31)),
        ),
        5 => FuzzAction::Duplicate(r.range_u64(1, 11) as f64 / 100.0),
        6 => FuzzAction::Probe,
        _ => FuzzAction::FlapDown(Duration::from_millis(r.range_u64(100, 2_001))),
    };
    FuzzDyn {
        at,
        link_idx,
        action,
    }
}

fn random_flood(r: &mut SimRng) -> FloodPlan {
    FloodPlan {
        mix: match r.range_u64(0, 3) {
            0 => FloodMix::PlainSyn,
            1 => FloodMix::MpJoin,
            _ => FloodMix::Mixed,
        },
        count: r.range_u64(20, 121) as u32,
        interval_ms: r.range_u64(1, 20),
        start_ms: r.range_u64(5, 2_000),
    }
}

/// Repair a mutated case so it describes a runnable world: link-table
/// arity matches the topology, families stay within the topologies that
/// support them, and the pinned mid-handshake inference family keeps its
/// pinned parameters. Mirrors the constraints [`FuzzCase::derive`]
/// enforces, so mutation can never leave the valid case space.
fn sanitize(c: &mut FuzzCase, rng: &mut SimRng) {
    if let Topo::Ecmp(n) = &mut c.topo {
        *n = (*n).clamp(2, 4);
    }
    let n_links = match c.topo {
        Topo::TwoPath => 2,
        Topo::Ecmp(n) => n,
    };
    while c.link_cfgs.len() < n_links {
        c.link_cfgs.push(random_link(rng));
    }
    c.link_cfgs.truncate(n_links);

    // Family ↔ topology constraints (same as derive's).
    match c.topo {
        Topo::Ecmp(_) => {
            c.strip = Strip::Off;
            c.rewrite = Rewrite::Off;
            c.flood = None;
            if c.pm == PmMix::BackupFlag {
                c.pm = PmMix::FullMesh;
            }
        }
        Topo::TwoPath => {
            if matches!(c.pm, PmMix::Ndiffports(_)) {
                c.pm = PmMix::FullMesh;
            }
        }
    }
    if matches!(c.rewrite, Rewrite::Split | Rewrite::Coalesce) && c.strip == Strip::Off {
        c.strip = Strip::FromStart;
    }
    if let Rewrite::AckThin(n) = &mut c.rewrite {
        *n = (*n).clamp(2, 8);
    }
    if c.strip == Strip::MidHandshake {
        c.pm = PmMix::Noop;
        c.rewrite = Rewrite::Off;
        c.flood = None;
        c.traffic = None;
        for l in &mut c.link_cfgs {
            *l = LinkCfg::mbps_ms(5, 10);
        }
    }

    c.transfer = c.transfer.clamp(1_000, 400_000);
    c.dynamics.truncate(8);
    for d in &mut c.dynamics {
        d.link_idx %= n_links;
        if d.at >= c.horizon {
            d.at = SimTime::from_millis(200);
        }
    }
}

/// The committed fixed-seed corpus (`FUZZ_CORPUS.txt` at the repo root):
/// one decimal seed per line, `#` comments allowed. CI fuzzes exactly this
/// list, so every CI failure reproduces locally by seed.
pub fn default_corpus() -> Vec<u64> {
    parse_corpus(include_str!("../../../FUZZ_CORPUS.txt"))
}

/// Parse a corpus file: one decimal seed per line, `#` comments allowed.
/// The one parser shared by [`default_corpus`] and the `fuzz` bin's
/// `--corpus` flag, so the two can never drift apart.
pub fn parse_corpus(text: &str) -> Vec<u64> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.parse().expect("corpus seeds are decimal u64"))
        .collect()
}

/// Run a list of seeds across `jobs` workers (results in seed-list order).
pub fn run_corpus(seeds: &[u64], jobs: usize) -> Vec<CaseOutcome> {
    let jobs_vec: Vec<JobFn<'_, CaseOutcome>> = seeds
        .iter()
        .map(|&s| {
            let f: JobFn<'_, CaseOutcome> = Box::new(move || run_case(s));
            f
        })
        .collect();
    run_jobs(jobs_vec, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_varied() {
        let a = FuzzCase::derive(1234);
        let b = FuzzCase::derive(1234);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.transfer, b.transfer);
        // Across a seed range, every family appears.
        let cases: Vec<FuzzCase> = (0..60).map(FuzzCase::derive).collect();
        assert!(cases.iter().any(|c| c.topo == Topo::TwoPath));
        assert!(cases.iter().any(|c| matches!(c.topo, Topo::Ecmp(_))));
        assert!(cases.iter().any(|c| c.strip != Strip::Off));
        assert!(cases.iter().any(|c| !c.dynamics.is_empty()));
        assert!(cases.iter().any(|c| c.rewrite != Rewrite::Off));
        assert!(cases.iter().any(|c| c.flood.is_some()));
        assert!(cases.iter().any(|c| c.traffic.is_some()));
    }

    #[test]
    fn derive_v1_is_a_frozen_prefix_of_derive() {
        for seed in 0..200u64 {
            let v1 = FuzzCase::derive_v1(seed);
            let v2 = FuzzCase::derive(seed);
            // The v1 derivation never carries the new families...
            assert_eq!(v1.rewrite, Rewrite::Off);
            assert!(v1.flood.is_none() && v1.traffic.is_none());
            // ...and every shared field agrees (strip may only be
            // upgraded Off → FromStart by the split/coalesce rule).
            assert_eq!(v1.pm, v2.pm, "seed {seed}");
            assert_eq!(v1.transfer, v2.transfer, "seed {seed}");
            // v2 may append netem operators (reorder/duplicate/probe)
            // after the shared prefix, never inside it.
            assert!(v2.dynamics.len() >= v1.dynamics.len(), "seed {seed}");
            for (a, b) in v1.dynamics.iter().zip(&v2.dynamics) {
                assert_eq!(a.at, b.at, "seed {seed}");
                assert_eq!(a.link_idx, b.link_idx, "seed {seed}");
                assert_eq!(
                    std::mem::discriminant(&a.action),
                    std::mem::discriminant(&b.action),
                    "seed {seed}"
                );
            }
            for extra in &v2.dynamics[v1.dynamics.len()..] {
                assert!(
                    matches!(
                        extra.action,
                        FuzzAction::Reorder(..) | FuzzAction::Duplicate(_) | FuzzAction::Probe
                    ),
                    "seed {seed}: appended entry must be a netem operator"
                );
            }
            assert!(
                v1.strip == v2.strip || (v1.strip == Strip::Off && v2.strip == Strip::FromStart),
                "seed {seed}: {:?} vs {:?}",
                v1.strip,
                v2.strip
            );
        }
    }

    #[test]
    fn corpus_file_parses_and_is_large_enough() {
        let corpus = default_corpus();
        assert!(
            corpus.len() >= 100,
            "CI must fuzz at least 100 cases, corpus has {}",
            corpus.len()
        );
        let mut dedup = corpus.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), corpus.len(), "corpus seeds are unique");
    }

    #[test]
    fn a_case_runs_oracle_clean_and_reruns_identically() {
        let a = run_case(default_corpus()[0]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        let b = run_case(default_corpus()[0]);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.delivered, b.delivered);
        // Coverage determinism is a pinned invariant: same seed, same
        // bitmap, bit for bit.
        assert_eq!(a.coverage, b.coverage);
        assert!(a.coverage.count() > 0);
    }

    #[test]
    fn corpus_prefix_reaches_the_recorded_feature_floor() {
        // The committed corpus front-loads family diversity: its first 12
        // seeds alone must reach the recorded feature-coverage floor, so a
        // corpus edit that hollows out coverage fails loudly.
        let mut cov = Coverage::new();
        for &s in default_corpus().iter().take(12) {
            cov.union(&run_case(s).coverage);
        }
        assert!(
            cov.count() >= 50,
            "corpus prefix coverage fell to {} feature bits (the committed \
             corpus head reaches 54): {}",
            cov.count(),
            cov.to_hex()
        );
    }

    #[test]
    fn mid_handshake_strip_cases_exercise_fallback_inference() {
        // At least one corpus seed must land in the §3.7 inference family,
        // and it must run clean on the healthy build.
        let seed = default_corpus()
            .into_iter()
            .find(|&s| FuzzCase::derive(s).strip == Strip::MidHandshake)
            .expect("corpus covers the mid-handshake strip family");
        let out = run_case(seed);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.delivered > 0, "fallback still delivers");
    }

    #[test]
    fn broken_fallback_inference_is_caught_with_a_replayable_seed() {
        // The acceptance-criteria experiment: disable the RFC 6824 §3.7
        // fallback inference (a deliberately broken build) and the oracle
        // must flag the run, naming the seed.
        let seed = default_corpus()
            .into_iter()
            .find(|&s| FuzzCase::derive(s).strip == Strip::MidHandshake)
            .expect("corpus covers the mid-handshake strip family");
        let out = run_case_opts(
            &FuzzCase::derive(seed),
            &FuzzOptions {
                fallback_inference: false,
                ..Default::default()
            },
        );
        assert!(
            !out.violations.is_empty(),
            "oracle must catch the broken build"
        );
        assert!(
            out.violations
                .iter()
                .any(|v| v.contains(&format!("seed={seed}")) && v.contains("DSS mapping")),
            "violation names the replayable seed and the missing mappings: {:?}",
            out.violations
        );
        assert!(out.coverage.get(feat::FAILED));
    }

    #[test]
    fn rewriter_families_run_oracle_clean_and_fire() {
        // Each adversarial rewriter, on an otherwise simple two-path case:
        // the run must stay oracle-clean AND the router must have actually
        // exercised the rewriter (its outcome bit is set).
        for (rewrite, bit) in [
            (Rewrite::SeqNat, feat::SEQ_REWRITTEN),
            (Rewrite::Split, feat::SEGMENTS_SPLIT),
            (Rewrite::Coalesce, feat::SEGMENTS_COALESCED),
            (Rewrite::AckThin(2), feat::ACKS_THINNED),
        ] {
            let mut case = FuzzCase::derive_v1(2);
            assert_eq!(case.topo, Topo::TwoPath, "pick a two-path seed");
            case.dynamics.clear();
            case.transfer = 60_000;
            case.pm = PmMix::Noop;
            case.rewrite = rewrite;
            if rewrite == Rewrite::Coalesce {
                // The coalescer only holds a segment 200 µs; segments
                // arrive back-to-back within that window only on a fast
                // access link.
                case.link_cfgs = vec![LinkCfg::mbps_ms(100, 5); 2];
            }
            case.strip = if rewrite == Rewrite::SeqNat {
                Strip::Off // NAT must coexist with live MPTCP options
            } else {
                Strip::FromStart
            };
            let out = run_case_opts(&case, &FuzzOptions::default());
            assert!(
                out.violations.is_empty(),
                "{rewrite:?}: {:?}",
                out.violations
            );
            assert!(out.delivered >= case.transfer, "{rewrite:?} delivers");
            assert!(out.coverage.get(bit), "{rewrite:?} actually fired");
        }
    }

    #[test]
    fn flood_families_run_oracle_clean_alongside_the_transfer() {
        for mix in [FloodMix::PlainSyn, FloodMix::MpJoin, FloodMix::Mixed] {
            let mut case = FuzzCase::derive_v1(2);
            case.dynamics.clear();
            case.transfer = 40_000;
            case.flood = Some(FloodPlan {
                mix,
                count: 30,
                interval_ms: 3,
                start_ms: 20,
            });
            let out = run_case_opts(&case, &FuzzOptions::default());
            assert!(out.violations.is_empty(), "{mix:?}: {:?}", out.violations);
            assert!(
                out.delivered >= case.transfer,
                "{mix:?}: real flow survives"
            );
            assert!(out.coverage.get(feat::FLOOD_SYNS_SENT), "{mix:?} flooded");
        }
    }

    #[test]
    fn traffic_model_flows_share_the_world_cleanly() {
        let mut case = FuzzCase::derive_v1(2);
        case.dynamics.clear();
        case.transfer = 30_000;
        case.traffic = Some(TrafficPlan { flows: 3 });
        let out = run_case_opts(&case, &FuzzOptions::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.delivered > case.transfer,
            "background flows delivered bytes on top of the main transfer"
        );
        assert!(out.coverage.get(feat::TRAFFIC_MODEL));
    }

    #[test]
    fn mutation_is_deterministic_and_expands_coverage() {
        let seeds: Vec<u64> = default_corpus().into_iter().take(4).collect();
        let run = |n: usize| {
            let mut m = Mutator::from_seeds(&seeds, 7, FuzzOptions::default());
            let descs: Vec<String> = (0..n).map(|_| m.step().desc).collect();
            (m.coverage, m.baseline_coverage, descs)
        };
        let (cov_a, base_a, descs_a) = run(12);
        let (cov_b, _, descs_b) = run(12);
        assert_eq!(descs_a, descs_b, "mutation trajectory replays exactly");
        assert_eq!(cov_a, cov_b);
        assert!(
            cov_a.count() > base_a.count(),
            "12 mutation steps must explore past the 4-seed baseline \
             ({} vs {} bits)",
            cov_a.count(),
            base_a.count()
        );
    }

    #[test]
    fn mutation_engine_finds_broken_fallback_inference() {
        // The acceptance-criteria experiment, mutation edition: the seed
        // slice deliberately EXCLUDES the mid-handshake family, so replay
        // alone cannot catch a build with fallback inference disabled —
        // the engine has to mutate its way into the failing family.
        let seeds: Vec<u64> = default_corpus()
            .into_iter()
            .filter(|&s| FuzzCase::derive(s).strip != Strip::MidHandshake)
            .take(5)
            .collect();
        let opts = FuzzOptions {
            fallback_inference: false,
            ..Default::default()
        };
        let mut m = Mutator::from_seeds(&seeds, 3, opts);
        assert!(
            m.failures.is_empty(),
            "seed replay alone must not catch it: {:?}",
            m.failures
        );
        let mut steps = 0;
        while m.failures.is_empty() && steps < 300 {
            m.step();
            steps += 1;
        }
        assert!(
            !m.failures.is_empty(),
            "mutation must reach the broken family within 300 steps \
             (coverage {} bits over {} cases)",
            m.coverage.count(),
            m.cases_run
        );
        let f = &m.failures[0];
        assert_eq!(f.case.strip, Strip::MidHandshake);
        assert!(
            f.violations.iter().any(|v| v.contains("DSS mapping")),
            "{:?}",
            f.violations
        );
    }

    #[test]
    fn mutation_engine_finds_the_buggy_split_rewriter() {
        // Second broken build: the router's split rewriter corrupts the
        // second half (test-only knob). Only cases that actually split
        // segments can see it — the seed slice has none, mutation must
        // switch a case into the split family.
        let seeds: Vec<u64> = default_corpus()
            .into_iter()
            .filter(|&s| FuzzCase::derive(s).rewrite != Rewrite::Split)
            .take(5)
            .collect();
        let opts = FuzzOptions {
            buggy_split: true,
            ..Default::default()
        };
        let mut m = Mutator::from_seeds(&seeds, 5, opts);
        assert!(
            m.failures.is_empty(),
            "seed replay alone must not catch it: {:?}",
            m.failures
        );
        let mut steps = 0;
        while m.failures.is_empty() && steps < 300 {
            m.step();
            steps += 1;
        }
        assert!(
            !m.failures.is_empty(),
            "mutation must reach the split family within 300 steps"
        );
        assert_eq!(m.failures[0].case.rewrite, Rewrite::Split);
    }

    #[test]
    fn shrinker_returns_none_for_clean_cases() {
        assert!(shrink(default_corpus()[0], &FuzzOptions::default()).is_none());
    }

    /// Corpus regeneration helper (not a test of the build):
    /// `cargo test -p smapp-bench --release --lib fuzz -- --ignored
    /// --nocapture` scans a seed range, keeps oracle-clean seeds, orders
    /// them greedily by marginal feature coverage (so the corpus *prefix*
    /// is maximally diverse — the smoke matrix and the feature-floor test
    /// both run prefixes), fills up with ascending clean seeds, and prints
    /// a ready-to-commit `FUZZ_CORPUS.txt`.
    #[test]
    #[ignore]
    fn regenerate_corpus_scan() {
        let candidates: Vec<u64> = (9000..9800).collect();
        let outs = run_corpus(&candidates, 8);
        let clean: Vec<(u64, Coverage)> = candidates
            .iter()
            .zip(&outs)
            .filter(|(_, o)| o.violations.is_empty())
            .map(|(&s, o)| (s, o.coverage))
            .collect();
        println!("# clean: {}/{}", clean.len(), candidates.len());
        for (s, o) in candidates.iter().zip(&outs) {
            if !o.violations.is_empty() {
                println!("# DIRTY seed={s} {} :: {:?}", o.desc, o.violations);
            }
        }
        // Greedy max-marginal-coverage ordering.
        let mut remaining = clean.clone();
        let mut picked: Vec<u64> = Vec::new();
        let mut union = Coverage::new();
        loop {
            let best = remaining
                .iter()
                .enumerate()
                .map(|(i, (_, c))| (union.new_bits(c), i))
                .max_by_key(|&(gain, i)| (gain, usize::MAX - i));
            match best {
                Some((gain, i)) if gain > 0 => {
                    let (s, c) = remaining.remove(i);
                    union.union(&c);
                    picked.push(s);
                }
                _ => break,
            }
        }
        println!(
            "# greedy head: {} seeds -> {} bits",
            picked.len(),
            union.count()
        );
        for (s, _) in remaining {
            if picked.len() >= 120 {
                break;
            }
            picked.push(s);
        }
        let mut prefix = Coverage::new();
        for &s in picked.iter().take(12) {
            prefix.union(&run_case(s).coverage);
        }
        println!("# first-12 union: {} bits", prefix.count());
        let n_mid = picked
            .iter()
            .filter(|&&s| FuzzCase::derive(s).strip == Strip::MidHandshake)
            .count();
        println!("# mid-handshake cases: {n_mid}");
        for s in &picked {
            println!("{s}");
        }
    }

    #[test]
    fn regression_fallback_never_reinjects_on_rto() {
        // Found by this fuzzer (seed 9611): a fallback connection whose
        // segments the split rewriter doubles will RTO under queue
        // pressure; connection-level reinjection then appended the
        // in-flight bytes at fresh subflow offsets, and the receiver's
        // identity mapping delivered them as duplicate stream bytes past
        // the end of the stream. `add_reinject` is now a no-op in
        // fallback; the transfer must arrive exactly once.
        let mut case = FuzzCase::derive(9611);
        case.dynamics.clear();
        case.flood = None;
        case.traffic = None;
        case.pm = PmMix::Noop;
        assert_eq!(case.strip, Strip::FromStart);
        assert_eq!(case.rewrite, Rewrite::Split);
        let out = run_case_opts(&case, &FuzzOptions::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.delivered, case.transfer, "exactly once, no dup");
    }

    #[test]
    fn snippet_renders_the_kept_dynamics_as_rust() {
        let case = FuzzCase {
            seed: 1,
            topo: Topo::TwoPath,
            link_cfgs: vec![LinkCfg::mbps_ms(5, 10), LinkCfg::mbps_ms(5, 10)],
            pm: PmMix::Noop,
            transfer: 10_000,
            strip: Strip::FromStart,
            rewrite: Rewrite::Off,
            flood: None,
            traffic: None,
            dynamics: vec![
                FuzzDyn {
                    at: SimTime::from_millis(500),
                    link_idx: 1,
                    action: FuzzAction::Loss(0.25),
                },
                FuzzDyn {
                    at: SimTime::from_millis(900),
                    link_idx: 0,
                    action: FuzzAction::FlapDown(Duration::from_millis(300)),
                },
            ],
            horizon: SimTime::from_secs(60),
        };
        let s = dynamics_snippet(&case, &[1]);
        assert!(s.starts_with("let mut script = NetemScript::new();\n"));
        assert!(
            s.contains("Netem::peer(router).middlebox(None, Stage::StripMptcp, true)"),
            "{s}"
        );
        // Only the kept entry is rendered.
        assert!(!s.contains("loss"), "{s}");
        assert!(s.contains("script.add(SimTime::from_millis(900), Netem::on(links[0]).down());"));
        assert!(s.contains("script.add(SimTime::from_millis(1200), Netem::on(links[0]).up());"));
        assert!(s.ends_with("sim.install(script, InstallPolicy::Sort).unwrap();\n"));
    }

    #[test]
    fn snippet_renders_the_netem_operators() {
        let case = FuzzCase {
            seed: 1,
            topo: Topo::TwoPath,
            link_cfgs: vec![LinkCfg::mbps_ms(5, 10), LinkCfg::mbps_ms(5, 10)],
            pm: PmMix::Noop,
            transfer: 10_000,
            strip: Strip::Off,
            rewrite: Rewrite::Off,
            flood: None,
            traffic: None,
            dynamics: vec![
                FuzzDyn {
                    at: SimTime::from_millis(400),
                    link_idx: 0,
                    action: FuzzAction::Reorder(0.1, Duration::from_millis(5)),
                },
                FuzzDyn {
                    at: SimTime::from_millis(600),
                    link_idx: 1,
                    action: FuzzAction::Duplicate(0.02),
                },
                FuzzDyn {
                    at: SimTime::from_millis(800),
                    link_idx: 0,
                    action: FuzzAction::Probe,
                },
            ],
            horizon: SimTime::from_secs(60),
        };
        let s = dynamics_snippet(&case, &[0, 1, 2]);
        assert!(
            s.contains("Netem::on(links[0]).reorder(LossPct::ratio(0.1), OneWayDelay::ms(5))"),
            "{s}"
        );
        assert!(
            s.contains("Netem::on(links[1]).duplicate(LossPct::ratio(0.02))"),
            "{s}"
        );
        assert!(
            s.contains("script.add(SimTime::from_millis(800), Netem::peer(client).probe());"),
            "{s}"
        );
    }
}
