//! The only file of the benchmark that names a workspace item.
//!
//! World builders, the three decorators ([`CaptureSink`], [`SpanUser`],
//! [`SpanPm`]), the replay loops and the bare-substrate probes all live
//! here, so a later refactor of the stack (dropping `as_any`, collapsing
//! the install entry points, an arena world) is re-bound by editing this
//! one file. Everything the rest of the benchmark sees is plain data
//! ([`Outcome`], [`Layers`], [`Summary`]). README.md lists the bound
//! items.
//!
//! The benchmark is a *user program* of the stack: worlds are built from
//! the public surface the `examples/` use, and layers are measured only
//! by wrapping or calling their public functions and traits.

use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use smapp::prelude::*;
use smapp_mptcp::apps::{BulkSender, GetClient, GetProgress, GetServer, Sink, StreamSender};
use smapp_mptcp::options::MpOption;
use smapp_mptcp::scheduler::{self, SchedCandidate};
use smapp_mptcp::{
    idsn_from_key, join_hmac_a, join_hmac_b, token_from_key, NoopPm, PathManagerHook, PmActions,
    StackView,
};
use smapp_netlink::{decode, encode_command, encode_event, PmNlMessage, UserCtx, UserProcess};
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::verify::conclude;
use smapp_sim::{
    AddrPrefix, Ctx, DropReason, FxHashMap, IfaceId, Node, NodeId, Oracle, Packet, Router,
    RunSummary, StopReason, TraceEvent, TraceKind, TraceSink,
};
use smapp_tcp::{OptBytes, Reassembly, TcpSegment};

use crate::alloc;
use crate::spans::{PmCounts, Recorder, Span, UserCounts};

// ---------------------------------------------------------------------
// Plain data the rest of the benchmark works with
// ---------------------------------------------------------------------

/// Which world a job builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 2c: 100 MB bulk over four ECMP paths, refresh controller.
    Bulk,
    /// Fig. 3 chain, in-kernel ndiffports.
    ChainKernel,
    /// Fig. 3 chain, userspace ndiffports behind the netlink boundary.
    ChainUser,
    /// 800 concurrent clients behind a shared bottleneck.
    Fleet,
    /// WiFi→LTE handover with the smart-backup controller.
    Handover,
    /// Fig. 2b stream under 30 % loss with the smart-stream controller.
    Stream,
}

impl Kind {
    /// Label used in failure triples and `verify::conclude` reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Bulk => "bulk",
            Kind::ChainKernel => "chain-kernel",
            Kind::ChainUser => "chain-user",
            Kind::Fleet => "fleet",
            Kind::Handover => "handover",
            Kind::Stream => "stream",
        }
    }
}

/// One world to build and run.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub kind: Kind,
    pub seed: u64,
    /// Bytes added to each response of a chain world. Derived from
    /// `--seed` by the workload, because a loss-free chain's simulated
    /// outputs do not otherwise depend on the world seed at all, and a
    /// metric that is a constant of the workload cannot show that the
    /// seed reached the world.
    pub extra_bytes: u64,
}

/// World sizes: the normative full sizes, or the `--quick` ones the
/// self-tests use.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub bulk_bytes: u64,
    pub chain_gets: u32,
    pub chain_response: u64,
    pub fleet_clients: usize,
    pub fleet_response: u64,
    pub handover_bytes: u64,
    pub stream_blocks: u64,
}

impl Sizes {
    /// The sizes the four workloads run at.
    pub fn full() -> Self {
        Sizes {
            bulk_bytes: 25_000_000,
            chain_gets: 300,
            chain_response: 512 * 1024,
            fleet_clients: 800,
            fleet_response: 128 * 1024,
            handover_bytes: 2_000_000,
            stream_blocks: 25,
        }
    }

    /// Small worlds with the same shape, for the self-tests.
    pub fn quick() -> Self {
        Sizes {
            bulk_bytes: 3_000_000,
            chain_gets: 12,
            chain_response: 64 * 1024,
            fleet_clients: 24,
            fleet_response: 24 * 1024,
            handover_bytes: 2_000_000,
            stream_blocks: 6,
        }
    }
}

/// How a job is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Oracle on, no other sink: the configuration every run in the tree
    /// uses, and the one all end-to-end metrics are measured in.
    Timed,
    /// No trace sink at all — the "off" side of the oracle ablation.
    OracleOff,
    /// Oracle wrapping [`CaptureSink`], decorators installed, spans kept.
    Traced,
}

/// `RunSummary` as plain data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    pub stop: &'static str,
    pub ended_ns: u64,
    pub events: u64,
    pub peak_queue: u64,
}

/// Simulated-time outputs that only some worlds produce (the paper's own
/// figures). Empty where a world does not produce them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Paper {
    /// MP_CAPABLE-SYN → first MP_JOIN-SYN, userspace-managed hosts, µs.
    pub join_us_user: Vec<f64>,
    /// Same, in-kernel path manager.
    pub join_us_kernel: Vec<f64>,
    /// Connect instant → last response byte, ms.
    pub get_ms: Vec<f64>,
    /// Loss onset → first switchover of the backup controller, ms.
    pub switch_ms: Vec<f64>,
    /// Block start at the sender → block complete at the sink, ms.
    pub block_ms: Vec<f64>,
}

/// Everything one finished job reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub summary: Summary,
    /// `Some(reason)` when the job panicked, violated an invariant or
    /// delivered less than asked.
    pub failure: Option<String>,
    pub asked_bytes: u64,
    pub delivered_bytes: u64,
    /// Application goodput of each transfer, Mb/s of simulated time.
    pub goodput_mbps: Vec<f64>,
    /// Simulated latency of each of the workload's transactions, ms.
    pub txn_ms: Vec<f64>,
    pub paper: Paper,
    /// Host nanoseconds of the three phases of a job.
    pub build_ns: u64,
    pub run_ns: u64,
    pub conclude_ns: u64,
    pub build_allocs: u64,
    /// Per-layer raw numbers and spans, traced runs only.
    pub layers: Option<Layers>,
    pub spans: Vec<Span>,
}

/// Nanoseconds spent on `ops` operations of a replay loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub ns: u64,
    pub ops: u64,
}

impl Timed {
    /// Mean nanoseconds per operation (0 when nothing was replayed).
    pub fn per_op(self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }

    /// Sum of two replay measurements.
    pub fn add(&mut self, other: Timed) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// Raw per-layer numbers of one traced job. Counts cover the whole run;
/// replay timings cover the captured prefix (see [`CAPTURE_CAP`]).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub netem_actions: u64,
    // sim.link / sim.oracle, from CaptureSink kinds
    pub records: u64,
    pub captured: u64,
    pub violations: u64,
    pub pkts_sent: u64,
    pub pkts_delivered: u64,
    pub drops_loss: u64,
    pub drops_queue: u64,
    pub wire_bytes: u64,
    // tcp.wire / mptcp.options, from decoding every host transmission
    pub segs: u64,
    pub payload_bytes: u64,
    pub pure_acks: u64,
    pub data_segs: u64,
    pub opt_dss: u64,
    pub opt_capable: u64,
    pub opt_join: u64,
    pub opt_add_addr: u64,
    pub opt_other: u64,
    pub syn_capable: u64,
    pub syn_join: u64,
    // end-of-run state
    pub retrans: u64,
    pub conns: u64,
    pub subflows: u64,
    pub max_subflows: u64,
    pub reinjections: u64,
    pub fallbacks: u64,
    // decorators
    pub user: UserCounts,
    pub pm: PmCounts,
    // replays
    pub oracle_replay: Timed,
    pub wire_decode: Timed,
    pub wire_encode: Timed,
    pub opt_decode: Timed,
    pub opt_encode: Timed,
    pub reassembly: Timed,
    pub ooo_inserts: u64,
    pub lpm_replay: Timed,
    pub sched_replay: Timed,
    pub nl_decode: Timed,
    pub nl_encode: Timed,
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// Trace events kept verbatim for the replay loops; the rest of a run is
/// counted by kind only. A `Packet` clone is an `Arc` bump.
pub const CAPTURE_CAP: usize = 200_000;

/// Host transmissions the codec replays sample from the captured prefix.
const CODEC_SAMPLE: usize = 4096;

/// Leading trace events the oracle replay feeds a fresh oracle.
const ORACLE_SAMPLE: usize = 16_384;

/// State shared by the decorators of one traced job.
struct Shared {
    rec: Recorder,
    to_user: Vec<Bytes>,
    to_kernel: Vec<Bytes>,
}

type Probe = Arc<Mutex<Shared>>;

fn lock(p: &Probe) -> MutexGuard<'_, Shared> {
    p.lock().expect("a decorator panicked while recording")
}

/// The benchmark's trace sink, installed *inside* `Oracle::wrapping` on
/// traced runs. Counts every event by kind, decodes every host
/// transmission once for the wire and option counts, pairs MP_CAPABLE
/// and MP_JOIN SYNs per host, and keeps the first [`CAPTURE_CAP`] events.
/// A pure observer: no RNG, no sends, no timers.
struct CaptureSink {
    is_host: Vec<bool>,
    is_router: Vec<bool>,
    kept: Vec<(SimTime, TraceKind, Packet)>,
    counts: Layers,
    /// Time of the pending MP_CAPABLE SYN per node (hosts run one
    /// connection at a time in every workload).
    capable_at: Vec<Option<SimTime>>,
    /// `(node, µs)` from MP_CAPABLE SYN to the first MP_JOIN SYN.
    joins: Vec<(usize, f64)>,
}

impl CaptureSink {
    fn new(sim: &Simulator) -> Self {
        let n = sim.node_count();
        let mut is_host = vec![false; n];
        let mut is_router = vec![false; n];
        for id in sim.node_ids() {
            let any = sim.node(id).as_any();
            is_host[id.0] = any.is::<Host>();
            is_router[id.0] = any.is::<Router>();
        }
        CaptureSink {
            is_host,
            is_router,
            kept: Vec::new(),
            counts: Layers::default(),
            capable_at: vec![None; n],
            joins: Vec::new(),
        }
    }

    fn on_host_send(&mut self, node: usize, at: SimTime, pkt: &Packet) {
        let Ok(seg) = TcpSegment::decode(&pkt.payload) else {
            return;
        };
        let c = &mut self.counts;
        c.segs += 1;
        c.payload_bytes += seg.payload.len() as u64;
        if seg.payload.is_empty() {
            let f = seg.hdr.flags;
            if f.ack && !f.syn && !f.fin && !f.rst {
                c.pure_acks += 1;
            }
        } else {
            c.data_segs += 1;
        }
        let first_syn = seg.hdr.flags.syn && !seg.hdr.flags.ack;
        for opt in seg.mptcp_opts() {
            match MpOption::decode(opt) {
                Ok(MpOption::Dss(_)) => c.opt_dss += 1,
                Ok(MpOption::Capable { .. }) => {
                    c.opt_capable += 1;
                    if first_syn {
                        c.syn_capable += 1;
                        self.capable_at[node] = Some(at);
                    }
                }
                Ok(
                    MpOption::JoinSyn { .. }
                    | MpOption::JoinSynAck { .. }
                    | MpOption::JoinAck { .. },
                ) => {
                    c.opt_join += 1;
                    if first_syn {
                        c.syn_join += 1;
                        if let Some(t0) = self.capable_at[node].take() {
                            let us = at.saturating_since(t0).as_nanos() as f64 / 1e3;
                            self.joins.push((node, us));
                        }
                    }
                }
                Ok(MpOption::AddAddr { .. }) => c.opt_add_addr += 1,
                _ => c.opt_other += 1,
            }
        }
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, ev: &TraceEvent<'_>) {
        self.counts.records += 1;
        if self.kept.len() < CAPTURE_CAP {
            self.kept.push((ev.at, ev.kind, ev.pkt.clone()));
        }
        match ev.kind {
            TraceKind::Send { node, .. } => {
                if self.is_host[node.0] {
                    self.on_host_send(node.0, ev.at, ev.pkt);
                }
            }
            TraceKind::Enqueue { .. } => self.counts.pkts_sent += 1,
            TraceKind::TxStart { .. } => {}
            TraceKind::Drop { reason, .. } => match reason {
                DropReason::Random => self.counts.drops_loss += 1,
                DropReason::QueueFull => self.counts.drops_queue += 1,
                _ => {}
            },
            TraceKind::Deliver { .. } => {
                self.counts.pkts_delivered += 1;
                self.counts.wire_bytes += ev.pkt.wire_len() as u64;
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Decorator around a userspace process (`ControllerRuntime`): a span and
/// an allocation count per callback, and every netlink frame each way.
/// `as_any` forwards to the inner process so `controller_of` / `user_as`
/// downcasts keep working.
struct SpanUser {
    inner: Box<dyn UserProcess>,
    probe: Probe,
}

impl SpanUser {
    fn call(
        &mut self,
        name: &'static str,
        ctx: &mut UserCtx<'_>,
        f: impl FnOnce(&mut dyn UserProcess, &mut UserCtx<'_>),
    ) {
        let sent_before = ctx.to_kernel.len();
        let span = lock(&self.probe).rec.enter(name);
        let allocs_before = alloc::count();
        f(self.inner.as_mut(), ctx);
        let allocs = alloc::count() - allocs_before;
        let mut s = lock(&self.probe);
        let ns = s.rec.exit(span);
        s.rec.user.calls += 1;
        s.rec.user.busy_ns += ns;
        s.rec.user.allocs += allocs;
        for frame in &ctx.to_kernel[sent_before..] {
            s.rec.user.to_kernel += 1;
            s.rec.user.bytes += frame.len() as u64;
            s.to_kernel.push(frame.clone());
        }
    }
}

impl UserProcess for SpanUser {
    fn on_start(&mut self, ctx: &mut UserCtx<'_>) {
        self.call("core.controller.on_start", ctx, |u, c| u.on_start(c));
    }
    fn on_message(&mut self, ctx: &mut UserCtx<'_>, frame: Bytes) {
        {
            let mut s = lock(&self.probe);
            s.rec.user.to_user += 1;
            s.rec.user.bytes += frame.len() as u64;
            s.to_user.push(frame.clone());
        }
        self.call("core.controller.on_message", ctx, |u, c| {
            u.on_message(c, frame)
        });
    }
    fn on_timer(&mut self, ctx: &mut UserCtx<'_>, token: u64) {
        lock(&self.probe).rec.user.timers += 1;
        self.call("core.controller.on_timer", ctx, |u, c| u.on_timer(c, token));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Decorator around a kernel path manager. Every host gets one on traced
/// runs so `RtoExpired` events are counted everywhere; only a real policy
/// (`policy == true`, e.g. `NdiffportsPm`) is timed into `pm.hook.*`.
/// `as_any_mut` forwards to the inner hook so the host still finds its
/// `NetlinkPm`.
struct SpanPm {
    inner: Box<dyn PathManagerHook>,
    policy: bool,
    probe: Probe,
}

impl PathManagerHook for SpanPm {
    fn on_event(&mut self, ev: &PmEvent, view: &dyn StackView, actions: &mut PmActions) {
        let rto = matches!(ev, PmEvent::RtoExpired { .. });
        if !self.policy {
            if rto {
                lock(&self.probe).rec.pm.rto_expired += 1;
            }
            return self.inner.on_event(ev, view, actions);
        }
        let before = actions.len();
        let span = lock(&self.probe).rec.enter("pm.hook.on_event");
        self.inner.on_event(ev, view, actions);
        let mut s = lock(&self.probe);
        let ns = s.rec.exit(span);
        s.rec.pm.events += 1;
        s.rec.pm.actions += (actions.len() - before) as u64;
        s.rec.pm.busy_ns += ns;
        s.rec.pm.rto_expired += rto as u64;
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Builds hosts, decorated when the job is traced.
struct Instr {
    probe: Option<Probe>,
}

impl Instr {
    fn decorate_pm(&self, host: &mut Host, policy: bool) {
        if let Some(probe) = &self.probe {
            let inner = std::mem::replace(&mut host.pm, Box::new(NoopPm));
            host.pm = Box::new(SpanPm {
                inner,
                policy,
                probe: Arc::clone(probe),
            });
        }
    }

    /// A host with no path-manager policy (servers).
    fn plain(&self, name: impl Into<String>) -> Host {
        let mut host = Host::new(name, StackConfig::default());
        self.decorate_pm(&mut host, false);
        host
    }

    /// A client whose subflows an in-kernel path manager creates.
    fn kernel(&self, name: impl Into<String>, pm: Box<dyn PathManagerHook>) -> Host {
        let mut host = Host::new(name, StackConfig::default()).with_pm(pm);
        self.decorate_pm(&mut host, true);
        host
    }

    /// A client whose subflows a userspace controller creates, behind the
    /// idle-host netlink latency.
    fn user<C: SubflowController + 'static>(&self, name: impl Into<String>, ctl: C) -> Host {
        let mut user: Box<dyn UserProcess> = ControllerRuntime::boxed(ctl);
        if let Some(probe) = &self.probe {
            user = Box::new(SpanUser {
                inner: user,
                probe: Arc::clone(probe),
            });
        }
        let mut host =
            Host::new(name, StackConfig::default()).with_user(user, LatencyModel::idle_host());
        self.decorate_pm(&mut host, false);
        host
    }
}

// ---------------------------------------------------------------------
// World builders
// ---------------------------------------------------------------------

type Observe = Box<dyn FnOnce(&Simulator, &RunSummary, &mut Outcome)>;

/// A built world, ready to run, and the closure that reads its results.
struct Built {
    sim: Simulator,
    horizon: SimTime,
    netem_actions: u64,
    observe: Observe,
}

fn mbps(bytes: u64, ns: u64) -> f64 {
    bytes as f64 * 8.0 / (ns as f64 / 1e9) / 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn sink_factory(make: impl Fn() -> Sink + Send + 'static) -> smapp_mptcp::stack::AppFactory {
    Box::new(move || Box::new(make()))
}

/// The server's first connection, downcast to its `Sink`.
fn server_sink(sim: &Simulator, server: NodeId) -> Option<&Sink> {
    topo::host(sim, server)
        .stack
        .connections()
        .next()
        .and_then(|c| c.app())
        .and_then(|a| a.as_any().downcast_ref::<Sink>())
}

/// Bytes every connection of `host` delivered to its application.
fn host_bytes_received(sim: &Simulator, host: NodeId) -> u64 {
    topo::host(sim, host)
        .stack
        .connections()
        .map(|c| c.stats.bytes_received)
        .sum()
}

/// Bytes per transaction of a bulk world (the sink tracks completion of
/// blocks of this size; tracking is passive).
const BULK_BLOCK: u64 = 1_000_000;

/// The Fig. 2c world: one bulk transfer over 4×8 Mb/s ECMP paths at
/// 10/20/30/40 ms, five subflows kept fresh by the refresh controller.
fn build_bulk(i: &Instr, seed: u64, z: &Sizes) -> Built {
    let transfer = z.bulk_bytes;
    let connect = SimTime::from_millis(10);
    let mut client = i.user(
        "client",
        RefreshController::new(RefreshConfig {
            n: 5,
            ..Default::default()
        }),
    );
    client.connect_at(
        connect,
        None,
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(transfer)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let mut server = i.plain("server");
    server.listen(
        80,
        sink_factory(|| Sink {
            close_on_eof: true,
            ..Sink::with_blocks(BULK_BLOCK)
        }),
    );
    let paths: Vec<LinkCfg> = (1..=4).map(|k| LinkCfg::mbps_ms(8, 10 * k)).collect();
    let net = topo::ecmp(seed, client, server, &paths);
    let server_id = net.server;
    Built {
        sim: net.sim,
        horizon: SimTime::from_secs(1200),
        netem_actions: 0,
        observe: Box::new(move |sim, summary, out| {
            out.asked_bytes = transfer;
            let sink = server_sink(sim, server_id);
            out.delivered_bytes = sink.map_or(0, |s| s.received);
            out.goodput_mbps
                .push(mbps(out.delivered_bytes, summary.ended_at.as_nanos()));
            // A bulk transfer's transaction is one delivered megabyte:
            // the time from one block boundary at the sink to the next.
            let mut last = connect;
            for &done in sink.map_or(&[][..], |s| &s.block_completions) {
                out.txn_ms.push(ms(done.saturating_since(last)));
                last = done;
            }
        }),
    }
}

/// The Fig. 3 world: consecutive HTTP/1.0 GETs over two 1 Gb/s 50 µs
/// links, the second subflow opened at establishment by either the
/// kernel or the userspace ndiffports.
fn build_chain(i: &Instr, job: Job, z: &Sizes, userspace: bool) -> Built {
    let (seed, gets, response) = (job.seed, z.chain_gets, z.chain_response + job.extra_bytes);
    let mut client = if userspace {
        i.user("client", NdiffportsController::new(2))
    } else {
        i.kernel("client", Box::new(NdiffportsPm::new(2)))
    };
    let progress = Rc::new(RefCell::new(GetProgress::default()));
    let first_connect = SimTime::from_millis(1);
    client.connect_at(
        first_connect,
        None,
        SERVER_ADDR,
        80,
        Box::new(GetClient {
            remaining: gets - 1,
            request_size: 100,
            dst: SERVER_ADDR,
            dst_port: 80,
            progress: Rc::clone(&progress),
            stop_when_done: true,
        }),
    );
    let mut server = i.plain("server");
    server.listen(80, Box::new(move || Box::new(GetServer::new(response))));
    let lab = LinkCfg::new(1_000_000_000, Duration::from_micros(50));
    let net = topo::two_path(seed, client, server, lab.clone(), lab);
    let client_id = net.client;
    Built {
        sim: net.sim,
        horizon: SimTime::from_secs(3600),
        netem_actions: 0,
        observe: Box::new(move |sim, _summary, out| {
            out.asked_bytes = gets as u64 * response;
            out.delivered_bytes = host_bytes_received(sim, client_id);
            // Chained: each GET connects the instant the previous one
            // saw EOF.
            let mut started = first_connect;
            for &done in &progress.borrow().completions {
                let took = done.saturating_since(started);
                out.txn_ms.push(ms(took));
                out.paper.get_ms.push(ms(took));
                out.goodput_mbps
                    .push(mbps(response, took.as_nanos() as u64));
                started = done;
            }
        }),
    }
}

/// Address of fleet client `i` (one /24 per client, disjoint from the
/// 10.0.x.x experiment space).
fn fleet_addr(i: usize) -> Addr {
    Addr::new(10, 16 + (i / 200) as u8, (i % 200) as u8, 1)
}

/// The fleet world: concurrent clients (even: kernel ndiffports, odd:
/// userspace refresh), one GET each, 2 ms stagger, 100 Mb/s access links,
/// per-client /24 routes, a 4×50 Mb/s shared bottleneck, two sockdiag
/// probes per client and a 1 Hz completion watchdog.
fn build_fleet(i: &Instr, seed: u64, z: &Sizes) -> Built {
    let (clients, response) = (z.fleet_clients, z.fleet_response);
    let stagger = Duration::from_millis(2);
    let connect_at = move |k: usize| SimTime::from_millis(10) + stagger * k as u32;
    let horizon = SimTime::from_secs(120);
    let mut sim = Simulator::new(seed);

    let mut server = i.plain("server");
    server.listen(80, Box::new(move || Box::new(GetServer::new(response))));
    let server_id = sim.add_node(Box::new(server));
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");

    let r1_id = sim.add_node(Box::new(Router::new(11)));
    let r2_id = sim.add_node(Box::new(Router::new(22)));
    let r2_s = sim.add_iface(r2_id, Addr::new(10, 0, 9, 254), "toS");
    sim.connect(r2_s, s_if, LinkCfg::mbps_ms(1000, 1));

    let mut r1_ups = Vec::new();
    let mut r2_ups = Vec::new();
    for k in 0..4u8 {
        let a = sim.add_iface(r1_id, Addr::new(10, 1, k, 1), "up");
        let b = sim.add_iface(r2_id, Addr::new(10, 1, k, 2), "down");
        sim.connect(a, b, LinkCfg::mbps_ms(50, 5 * (k as u64 + 1)));
        r1_ups.push(a);
        r2_ups.push(b);
    }

    let mut progress = Vec::with_capacity(clients);
    let mut client_ids = Vec::with_capacity(clients);
    let mut client_routes = Vec::with_capacity(clients);
    for k in 0..clients {
        let mut client = if k % 2 == 0 {
            i.kernel(format!("c{k}"), Box::new(NdiffportsPm::new(2)))
        } else {
            i.user(
                format!("c{k}"),
                RefreshController::new(RefreshConfig {
                    n: 2,
                    ..Default::default()
                }),
            )
        };
        let prog = Rc::new(RefCell::new(GetProgress::default()));
        client.connect_at(
            connect_at(k),
            None,
            SERVER_ADDR,
            80,
            Box::new(GetClient {
                remaining: 0,
                request_size: 100,
                dst: SERVER_ADDR,
                dst_port: 80,
                progress: Rc::clone(&prog),
                stop_when_done: false,
            }),
        );
        progress.push(prog);
        let addr = fleet_addr(k);
        let [a, b, c, _] = addr.octets();
        let client_id = sim.add_node(Box::new(client));
        client_ids.push(client_id);
        let c_if = sim.add_iface(client_id, addr, "eth0");
        let r_if = sim.add_iface(r1_id, Addr::new(a, b, c, 254), "toC");
        sim.connect(c_if, r_if, LinkCfg::mbps_ms(100, 2));
        client_routes.push((AddrPrefix::new(addr, 24), r_if));
    }

    let server_net: AddrPrefix = "10.0.9.0/24".parse().expect("literal prefix");
    let everyone: AddrPrefix = "10.0.0.0/8".parse().expect("literal prefix");
    {
        let r1 = router_mut(&mut sim, r1_id);
        r1.add_route(server_net, r1_ups);
        for (prefix, iface) in client_routes {
            r1.add_route(prefix, vec![iface]);
        }
    }
    {
        let r2 = router_mut(&mut sim, r2_id);
        r2.add_route(server_net, vec![r2_s]);
        r2.add_route(everyone, r2_ups);
    }

    // Sockdiag sweep: each client mid-transfer, and once more fleet-wide.
    let mut script = NetemScript::new();
    for (k, &id) in client_ids.iter().enumerate() {
        script.add(
            connect_at(k) + Duration::from_millis(40),
            Netem::peer(id).probe(),
        );
        script.add(SimTime::from_millis(500), Netem::peer(id).probe());
    }
    let netem_actions = script.len() as u64;
    sim.install(script, InstallPolicy::Sort)
        .expect("Sort policy never rejects");

    // The refresh controllers re-arm their poll timers for as long as
    // they live, so a 1 Hz watchdog stops the run once every GET is done.
    let watch: Rc<Vec<Rc<RefCell<GetProgress>>>> = Rc::new(progress.clone());
    for t in 1..=horizon.as_nanos() / 1_000_000_000 {
        let watch = Rc::clone(&watch);
        sim.at(SimTime::from_secs(t), move |core| {
            let done: usize = watch.iter().map(|c| c.borrow().completed as usize).sum();
            if done >= watch.len() {
                core.request_stop();
            }
        });
    }

    Built {
        sim,
        horizon,
        netem_actions,
        observe: Box::new(move |sim, _summary, out| {
            out.asked_bytes = clients as u64 * response;
            let mut probes = 0;
            for (k, &id) in client_ids.iter().enumerate() {
                out.delivered_bytes += host_bytes_received(sim, id);
                probes += topo::host(sim, id).diag.probes;
                if let Some(&done) = progress[k].borrow().completions.first() {
                    let took = done.saturating_since(connect_at(k));
                    out.txn_ms.push(ms(took));
                    out.paper.get_ms.push(ms(took));
                    out.goodput_mbps
                        .push(mbps(response, took.as_nanos() as u64));
                }
            }
            if probes != 2 * clients as u64 {
                out.failure = Some(format!(
                    "{probes} sockdiag probes answered, asked {}",
                    2 * clients
                ));
            }
        }),
    }
}

fn router_mut(sim: &mut Simulator, id: NodeId) -> &mut Router {
    sim.node_mut(id)
        .as_any_mut()
        .downcast_mut::<Router>()
        .expect("node is a Router")
}

/// The handover world: an upload over WiFi (5 Mb/s, 10 ms) that gets 30 %
/// loss at 1 s and loses the interface at 5 s; the backup controller
/// activates LTE (5 Mb/s, 40 ms).
fn build_handover(i: &Instr, seed: u64, z: &Sizes) -> Built {
    let transfer = z.handover_bytes;
    let loss_onset = SimTime::from_secs(1);
    let mut client = i.user(
        "smartphone",
        BackupController::new(BackupConfig {
            rto_threshold: Duration::from_secs(1),
            backup_src: CLIENT_ADDR2,
        }),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(transfer)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let mut server = i.plain("server");
    server.listen(
        80,
        sink_factory(|| Sink {
            close_on_eof: true,
            ..Default::default()
        }),
    );
    let net = topo::two_path(
        seed,
        client,
        server,
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 40),
    );
    let mut sim = net.sim;
    let script = NetemScript::new()
        .at(loss_onset, Netem::on(net.link1).loss(LossPct::ratio(0.30)))
        .at(SimTime::from_secs(5), Netem::iface(net.client_if1).down());
    let netem_actions = script.len() as u64;
    sim.install(script, InstallPolicy::Sort)
        .expect("Sort policy never rejects");
    let (client_id, server_id) = (net.client, net.server);
    Built {
        sim,
        horizon: SimTime::from_secs(120),
        netem_actions,
        observe: Box::new(move |sim, summary, out| {
            out.asked_bytes = transfer;
            out.delivered_bytes = server_sink(sim, server_id).map_or(0, |s| s.received);
            out.goodput_mbps
                .push(mbps(out.delivered_bytes, summary.ended_at.as_nanos()));
            let phone = topo::host(sim, client_id);
            match controller_of::<BackupController>(phone).and_then(|c| c.switchovers.first()) {
                Some((at, _, _)) => out
                    .paper
                    .switch_ms
                    .push(ms(at.saturating_since(loss_onset))),
                None => out.failure = Some("backup controller never switched over".into()),
            }
        }),
    }
}

/// The Fig. 2b world: 64 KB blocks at 1 Hz over two 5 Mb/s 10 ms paths,
/// 30 % Bernoulli loss on the initial path from 200 ms, smart-stream
/// controller with the paper's settings.
fn build_stream(i: &Instr, seed: u64, z: &Sizes) -> Built {
    let (block, blocks) = (64 * 1024u64, z.stream_blocks);
    let mut client = i.user(
        "client",
        StreamController::new(StreamConfig::paper(CLIENT_ADDR2)),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(StreamSender::new(block, Duration::from_secs(1), blocks)),
    );
    let mut server = i.plain("server");
    server.listen(
        80,
        sink_factory(move || Sink {
            close_on_eof: true,
            stop_on_eof: true,
            ..Sink::with_blocks(block)
        }),
    );
    let path = LinkCfg::mbps_ms(5, 10);
    let net = topo::two_path(seed, client, server, path.clone(), path);
    let mut sim = net.sim;
    let lossy = net.link1;
    sim.at(SimTime::from_millis(200), move |core| {
        core.set_loss_both(lossy, LossModel::Bernoulli(0.30));
    });
    let (client_id, server_id) = (net.client, net.server);
    Built {
        sim,
        horizon: SimTime::from_secs(blocks + 120),
        netem_actions: 1,
        observe: Box::new(move |sim, _summary, out| {
            out.asked_bytes = block * blocks;
            let sink = server_sink(sim, server_id);
            out.delivered_bytes = sink.map_or(0, |s| s.received);
            let starts = topo::host(sim, client_id)
                .stack
                .connections()
                .next()
                .and_then(|c| c.app())
                .and_then(|a| a.as_any().downcast_ref::<StreamSender>())
                .map(|s| s.block_starts.clone())
                .unwrap_or_default();
            let done = sink.map(|s| s.block_completions.as_slice()).unwrap_or(&[]);
            for (s, c) in starts.iter().zip(done) {
                let delay = ms(c.saturating_since(*s));
                out.txn_ms.push(delay);
                out.paper.block_ms.push(delay);
            }
            if (done.len() as u64) < blocks {
                out.failure = Some(format!("{} of {blocks} blocks completed", done.len()));
            }
        }),
    }
}

fn build(i: &Instr, job: Job, z: &Sizes) -> Built {
    match job.kind {
        Kind::Bulk => build_bulk(i, job.seed, z),
        Kind::ChainKernel => build_chain(i, job, z, false),
        Kind::ChainUser => build_chain(i, job, z, true),
        Kind::Fleet => build_fleet(i, job.seed, z),
        Kind::Handover => build_handover(i, job.seed, z),
        Kind::Stream => build_stream(i, job.seed, z),
    }
}

// ---------------------------------------------------------------------
// Running one job
// ---------------------------------------------------------------------

fn stop_name(r: StopReason) -> &'static str {
    match r {
        StopReason::Idle => "idle",
        StopReason::Horizon => "horizon",
        StopReason::Requested => "requested",
        StopReason::EventLimit => "event-limit",
    }
}

/// Build, run and conclude one world. Never unwinds: a panic anywhere in
/// the job is caught and reported as a failed job, so one broken world
/// cannot abort the benchmark.
pub fn run_job(job: Job, sizes: &Sizes, mode: Mode, job_id: u32, t0: Instant) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| {
        run_job_inner(job, sizes, mode, job_id, t0)
    })) {
        Ok(out) => out,
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Outcome {
                failure: Some(format!("panic: {why}")),
                ..Default::default()
            }
        }
    }
}

fn run_job_inner(job: Job, sizes: &Sizes, mode: Mode, job_id: u32, t0: Instant) -> Outcome {
    let probe: Option<Probe> = (mode == Mode::Traced).then(|| {
        Arc::new(Mutex::new(Shared {
            rec: Recorder::new(t0, job_id),
            to_user: Vec::new(),
            to_kernel: Vec::new(),
        }))
    });
    let span = |name: &'static str| probe.as_ref().map(|p| lock(p).rec.enter(name));
    let close = |id: Option<u32>| {
        if let (Some(p), Some(id)) = (&probe, id) {
            lock(p).rec.exit(id);
        }
    };
    let mut out = Outcome::default();
    let job_span = span("job");

    // Build: topology, hosts, scripts, trace sink.
    let s = span("sim.world.build");
    let (started, allocs_before) = (Instant::now(), alloc::count());
    let instr = Instr {
        probe: probe.clone(),
    };
    let Built {
        mut sim,
        horizon,
        netem_actions,
        observe,
    } = build(&instr, job, sizes);
    match mode {
        Mode::Timed => {
            sim.core.set_trace(Box::new(Oracle::new()));
        }
        Mode::OracleOff => {}
        Mode::Traced => {
            let capture = CaptureSink::new(&sim);
            sim.core.set_trace(Oracle::wrapping(Box::new(capture)));
        }
    }
    out.build_ns = started.elapsed().as_nanos() as u64;
    out.build_allocs = alloc::count() - allocs_before;
    close(s);

    let s = span("sim.world.run_until");
    let started = Instant::now();
    let summary = sim.run_until(horizon);
    out.run_ns = started.elapsed().as_nanos() as u64;
    close(s);

    let s = span("pm.verify.conclude");
    let started = Instant::now();
    let mut verdict = conclude(&mut sim, &summary, job.kind.label(), job.seed);
    out.conclude_ns = started.elapsed().as_nanos() as u64;
    close(s);

    out.summary = Summary {
        stop: stop_name(summary.reason),
        ended_ns: summary.ended_at.as_nanos(),
        events: summary.events,
        peak_queue: summary.peak_queue as u64,
    };
    if mode == Mode::OracleOff && !verdict.wire_checked {
        // The one violation `conclude` raises for a missing oracle is
        // what the ablation asked for.
        verdict
            .violations
            .retain(|v| !v.contains("wire oracle was not installed"));
    }
    observe(&sim, &summary, &mut out);
    if !verdict.is_clean() {
        out.failure = Some(format!(
            "{} invariant violation(s), first: {}",
            verdict.violations.len(),
            verdict.violations[0]
        ));
    } else if out.failure.is_none() && out.delivered_bytes < out.asked_bytes {
        out.failure = Some(format!(
            "delivered {} of {} bytes",
            out.delivered_bytes, out.asked_bytes
        ));
    }

    if let Some(probe) = &probe {
        let s = span("replay");
        let capture = verdict
            .inner
            .take()
            .expect("traced runs install a capture sink");
        let capture = capture
            .as_any()
            .downcast_ref::<CaptureSink>()
            .expect("the inner sink is the capture sink");
        let mut layers = capture.counts.clone();
        layers.netem_actions = netem_actions;
        layers.violations = verdict.violations.len() as u64;
        join_delays(&sim, capture, &mut out.paper);
        end_state(&sim, &mut layers);
        replay(&sim, capture, probe, &mut layers);
        close(s);
        close(job_span);
        let mut shared = lock(probe);
        layers.user = shared.rec.user.clone();
        layers.pm = shared.rec.pm.clone();
        out.spans = std::mem::take(&mut shared.rec.spans);
        out.layers = Some(layers);
    }
    out
}

/// Split the captured MP_CAPABLE→MP_JOIN delays by who manages the host.
fn join_delays(sim: &Simulator, capture: &CaptureSink, paper: &mut Paper) {
    for &(node, us) in &capture.joins {
        if topo::host(sim, NodeId(node)).user.is_some() {
            paper.join_us_user.push(us);
        } else {
            paper.join_us_kernel.push(us);
        }
    }
}

fn hosts(sim: &Simulator) -> impl Iterator<Item = &Host> {
    sim.node_ids()
        .filter_map(|id| sim.node(id).as_any().downcast_ref::<Host>())
}

/// Counts read from public end-of-run state (`ConnStats`, `TcpInfo`).
fn end_state(sim: &Simulator, l: &mut Layers) {
    for host in hosts(sim) {
        for conn in host.stack.connections() {
            l.conns += 1;
            l.subflows += conn.subflow_count() as u64;
            l.max_subflows = l.max_subflows.max(conn.live_subflow_ids().len() as u64);
            l.reinjections += conn.stats.reinjections;
            l.fallbacks += conn.stats.fallback_inferred as u64;
            for id in 0..conn.subflow_count() {
                if let Some(info) = conn.subflow_info(id as u8) {
                    l.retrans += info.retrans;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Replay: captured inputs fed to one layer's public function
// ---------------------------------------------------------------------

fn timed(ops: u64, f: impl FnOnce()) -> Timed {
    let started = Instant::now();
    f();
    Timed {
        ns: started.elapsed().as_nanos() as u64,
        ops,
    }
}

/// Run `f` once untimed, so its data is in cache the way it is when the
/// stack touches a packet it was just handed, then once timed.
fn second_pass(ops: u64, mut f: impl FnMut()) -> Timed {
    f();
    timed(ops, f)
}

fn replay(sim: &Simulator, capture: &CaptureSink, probe: &Probe, l: &mut Layers) {
    let kept = &capture.kept;
    l.captured = kept.len() as u64;

    // sim.oracle: the head of the captured prefix through a fresh oracle
    // (in order from time zero, as its link and clock checks need).
    let head = &kept[..kept.len().min(ORACLE_SAMPLE)];
    l.oracle_replay = second_pass(head.len() as u64, || {
        let mut oracle = Oracle::new();
        for (at, kind, pkt) in head {
            oracle.record(&TraceEvent {
                at: *at,
                kind: *kind,
                pkt,
            });
        }
        black_box(oracle.events_seen);
    });

    // tcp.wire and mptcp.options: a strided sample of the captured host
    // transmissions, small enough that the headers stay in cache as they
    // are when the stack decodes a packet it has just been handed.
    let sent: Vec<&Packet> = kept
        .iter()
        .filter_map(|(_, kind, pkt)| match kind {
            TraceKind::Send { node, .. } if capture.is_host[node.0] => Some(pkt),
            _ => None,
        })
        .collect();
    let stride = sent.len().div_ceil(CODEC_SAMPLE).max(1);
    let sample: Vec<&Packet> = sent.into_iter().step_by(stride).collect();
    let mut segs: Vec<TcpSegment> = Vec::with_capacity(sample.len());
    l.wire_decode = second_pass(sample.len() as u64, || {
        segs.clear();
        segs.extend(
            sample
                .iter()
                .filter_map(|pkt| TcpSegment::decode(&pkt.payload).ok()),
        );
    });
    l.wire_encode = second_pass(segs.len() as u64, || {
        for seg in &segs {
            black_box(seg.encode().ok());
        }
    });
    let raw: Vec<OptBytes> = segs.iter().flat_map(|s| s.mptcp_opts().copied()).collect();
    let mut opts: Vec<MpOption> = Vec::with_capacity(raw.len());
    l.opt_decode = second_pass(raw.len() as u64, || {
        opts.clear();
        opts.extend(raw.iter().filter_map(|o| MpOption::decode(o).ok()));
    });
    l.opt_encode = second_pass(opts.len() as u64, || {
        for o in &opts {
            black_box(o.encode());
        }
    });

    replay_reassembly(capture, l);

    // sim.router: the public, unmemoized longest-prefix match over the
    // busiest router's table — what a miss of the (private) forwarding
    // cache costs.
    let mut fwd: FxHashMap<usize, Vec<&Packet>> = FxHashMap::default();
    for (_, kind, pkt) in kept {
        if let TraceKind::Send { node, .. } = kind {
            if capture.is_router[node.0] {
                fwd.entry(node.0).or_default().push(pkt);
            }
        }
    }
    if let Some((&node, pkts)) = fwd.iter().max_by_key(|(&n, p)| (p.len(), n)) {
        let router = sim
            .node(NodeId(node))
            .as_any()
            .downcast_ref::<Router>()
            .expect("classified as a router");
        l.lpm_replay = timed(pkts.len() as u64, || {
            for pkt in pkts {
                black_box(router.select_egress(pkt));
            }
        });
    }

    // mptcp.scheduler: the default scheduler over candidates shaped like
    // the end-of-run subflows of the widest connection.
    let widest = hosts(sim)
        .flat_map(|h| h.stack.connections())
        .max_by_key(|c| c.live_subflow_ids().len());
    if let Some(conn) = widest {
        let mut candidates: Vec<SchedCandidate> = conn
            .live_subflow_ids()
            .into_iter()
            .filter_map(|id| conn.subflow_info(id).map(|info| (id, info)))
            .map(|(id, info)| SchedCandidate {
                id,
                srtt: info.srtt(),
                cwnd_space: info.cwnd.saturating_sub(info.in_flight),
                in_flight: info.in_flight,
                backup: info.backup,
            })
            .collect();
        if candidates.is_empty() {
            candidates.push(SchedCandidate {
                id: 0,
                srtt: None,
                cwnd_space: 14_600,
                in_flight: 0,
                backup: false,
            });
        }
        let mut sched = scheduler::by_name("lowest-rtt").expect("the default scheduler exists");
        const DECISIONS: u64 = 100_000;
        l.sched_replay = timed(DECISIONS, || {
            for _ in 0..DECISIONS {
                black_box(sched.select(black_box(&candidates)));
            }
        });
    }

    // netlink.family: every frame that crossed the boundary decoded, and
    // events and commands re-encoded.
    let shared = lock(probe);
    let frames: Vec<&Bytes> = shared.to_user.iter().chain(&shared.to_kernel).collect();
    let mut msgs: Vec<PmNlMessage> = Vec::with_capacity(frames.len());
    l.nl_decode = timed(frames.len() as u64, || {
        for f in &frames {
            if let Ok(m) = decode(f) {
                msgs.push(m);
            }
        }
    });
    let encodable: Vec<&PmNlMessage> = msgs
        .iter()
        .filter(|m| matches!(m, PmNlMessage::Event(_) | PmNlMessage::Command { .. }))
        .collect();
    l.nl_encode = timed(encodable.len() as u64, || {
        for m in &encodable {
            match m {
                PmNlMessage::Event(ev) => {
                    black_box(encode_event(ev));
                }
                PmNlMessage::Command { seq, cmd } => {
                    black_box(encode_command(*seq, cmd));
                }
                _ => {}
            }
        }
    });
}

/// tcp.buffer: `Reassembly::insert` / `pop_next` in captured arrival
/// order, one queue per directed flow, offsets rebased on the flow's SYN.
fn replay_reassembly(capture: &CaptureSink, l: &mut Layers) {
    type Flow = (Addr, Addr, u16, u16);
    let mut base: FxHashMap<Flow, (usize, u32)> = FxHashMap::default();
    let mut arrivals: Vec<(usize, u64, Bytes)> = Vec::new();
    for (_, kind, pkt) in &capture.kept {
        let to_host = match kind {
            TraceKind::Send { node, .. } => capture.is_host[node.0],
            TraceKind::Deliver { node, .. } => capture.is_host[node.0],
            _ => false,
        };
        if !to_host {
            continue;
        }
        let Ok(seg) = TcpSegment::decode(&pkt.payload) else {
            continue;
        };
        let flow = (pkt.src, pkt.dst, seg.hdr.src_port, seg.hdr.dst_port);
        match kind {
            TraceKind::Send { .. } if seg.hdr.flags.syn => {
                let idx = base.len();
                base.entry(flow)
                    .or_insert((idx, seg.hdr.seq.0.wrapping_add(1)));
            }
            TraceKind::Deliver { .. } if !seg.payload.is_empty() => {
                if let Some(&(idx, isn)) = base.get(&flow) {
                    let off = seg.hdr.seq.0.wrapping_sub(isn) as u64;
                    arrivals.push((idx, off, seg.payload.clone()));
                }
            }
            _ => {}
        }
    }
    let mut queues: Vec<Reassembly> = (0..base.len()).map(|_| Reassembly::new()).collect();
    let mut ooo = 0;
    l.reassembly = timed(arrivals.len() as u64, || {
        for (idx, off, data) in arrivals {
            let q = &mut queues[idx];
            ooo += (off != q.next_expected()) as u64;
            q.insert(off, data);
            while let Some(chunk) = q.pop_next() {
                black_box(chunk);
            }
        }
    });
    l.ooo_inserts = ooo;
}

// ---------------------------------------------------------------------
// Probes: one layer's public functions, or the bare substrate, on their own
// ---------------------------------------------------------------------

/// The fastest of three runs of a probe: a probe measures a fixed piece
/// of work on its own, so whatever else the machine does can only add
/// time to it.
fn best_of_three(mut probe: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| probe()).fold(f64::INFINITY, f64::min)
}

/// mptcp.crypto: host nanoseconds of the key derivations and HMACs one
/// MP_CAPABLE handshake (both ends derive token and IDSN of both keys)
/// and one MP_JOIN handshake (both ends compute HMAC-A and HMAC-B) need.
/// Returns `(capable_ns, join_ns)`.
pub fn probe_crypto() -> (f64, f64) {
    const N: u64 = 2_000;
    let capable = timed(N, || {
        for k in 0..N {
            for key in [k ^ 0x9E37_79B9, !k] {
                for _end in 0..2 {
                    black_box(token_from_key(black_box(key)));
                    black_box(idsn_from_key(black_box(key)));
                }
            }
        }
    });
    let join = timed(N, || {
        for k in 0..N {
            for _end in 0..2 {
                black_box(join_hmac_a(black_box(k), !k, k as u32, 7));
                black_box(join_hmac_b(black_box(k), !k, k as u32, 7));
            }
        }
    });
    (capable.per_op(), join.per_op())
}

type OnStart = Box<dyn FnMut(&mut Ctx<'_>)>;
type OnPacket = Box<dyn FnMut(&mut Ctx<'_>, IfaceId, Packet)>;
type OnTimer = Box<dyn FnMut(&mut Ctx<'_>, u64)>;

/// A node that does nothing but what a probe asks of it.
struct NullNode {
    on_start: OnStart,
    on_packet: OnPacket,
    on_timer: OnTimer,
}

impl NullNode {
    fn idle() -> Self {
        NullNode {
            on_start: Box::new(|_| {}),
            on_packet: Box::new(|_, _, _| {}),
            on_timer: Box::new(|_, _| {}),
        }
    }
}

impl Node for NullNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        (self.on_start)(ctx)
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        (self.on_packet)(ctx, iface, pkt)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        (self.on_timer)(ctx, token)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An exponential offset with a 1 ms mean, from the world's own RNG.
fn exp_offset(ctx: &mut Ctx<'_>) -> Duration {
    let u = ctx.rng().unit_f64().max(1e-12);
    Duration::from_nanos((-u.ln() * 1e6) as u64 + 1)
}

/// sim.world.timer_hold_ns: the classic hold model on the bare event
/// queue. `depth` timers are armed; each firing re-arms one at an
/// exponential offset, so the queue stays at `depth`. Returns host
/// nanoseconds per fired timer.
pub fn probe_timer_hold(depth: u64, fires: u64) -> f64 {
    best_of_three(|| timer_hold(depth, fires))
}

fn timer_hold(depth: u64, fires: u64) -> f64 {
    let mut sim = Simulator::new(1);
    let mut left = fires;
    sim.add_node(Box::new(NullNode {
        on_start: Box::new(move |ctx| {
            for _ in 0..depth.max(1) {
                let after = exp_offset(ctx);
                ctx.set_timer_after(after, 0);
            }
        }),
        on_timer: Box::new(move |ctx, _| {
            left -= 1;
            if left == 0 {
                ctx.stop();
            } else {
                let after = exp_offset(ctx);
                ctx.set_timer_after(after, 0);
            }
        }),
        ..NullNode::idle()
    }));
    let t = timed(fires, || {
        black_box(sim.run());
    });
    t.per_op()
}

/// sim.world.timer_cancel_ns: the RTO pattern on the bare event queue.
/// Every 10 µs tick cancels the pending 200 ms timer and arms a new one
/// (so cancelled tombstones pile up and are popped later). Returns host
/// nanoseconds per arm-cancel-re-arm tick.
pub fn probe_timer_cancel(ticks: u64) -> f64 {
    best_of_three(|| timer_cancel(ticks))
}

fn timer_cancel(ticks: u64) -> f64 {
    const TICK: u64 = 1;
    const RTO: u64 = 2;
    let mut sim = Simulator::new(1);
    let mut left = ticks;
    let mut pending = None;
    sim.add_node(Box::new(NullNode {
        on_start: Box::new(|ctx| {
            ctx.set_timer_after(Duration::from_micros(10), TICK);
        }),
        on_timer: Box::new(move |ctx, token| {
            if token != TICK {
                return;
            }
            if let Some(old) = pending.take() {
                ctx.cancel_timer(old);
            }
            pending = Some(ctx.set_timer_after(Duration::from_millis(200), RTO));
            left -= 1;
            if left == 0 {
                ctx.stop();
            } else {
                ctx.set_timer_after(Duration::from_micros(10), TICK);
            }
        }),
        ..NullNode::idle()
    }));
    let t = timed(ticks, || {
        black_box(sim.run());
    });
    t.per_op()
}

/// A ping-pong between two null nodes over one link: `a` sends a 1440 B
/// packet, `b` answers with a 40 B one, `round_trips` times. Returns host
/// nanoseconds per round trip.
fn ping_pong(round_trips: u64) -> f64 {
    let a_addr = Addr::new(10, 200, 0, 1);
    let b_addr = Addr::new(10, 16, 0, 1);
    let big = Bytes::from(vec![0u8; 1440]);
    let small = Bytes::from(vec![0u8; 40]);
    let mut sim = Simulator::new(1);
    let mut first = Some(Packet::tcp(a_addr, b_addr, big.clone()));
    let mut sent = 1u64;
    let a = sim.add_node(Box::new(NullNode {
        on_start: Box::new(move |ctx| {
            let iface = ctx.my_ifaces().next().map(|(id, _)| id);
            if let (Some(iface), Some(pkt)) = (iface, first.take()) {
                ctx.send(iface, pkt);
            }
        }),
        on_packet: Box::new(move |ctx, iface, _| {
            if sent == round_trips {
                return ctx.stop();
            }
            sent += 1;
            ctx.send(iface, Packet::tcp(a_addr, b_addr, big.clone()));
        }),
        ..NullNode::idle()
    }));
    let b = sim.add_node(Box::new(NullNode {
        on_packet: Box::new(move |ctx, iface, pkt| {
            ctx.send(iface, Packet::tcp(pkt.dst, a_addr, small.clone()));
        }),
        ..NullNode::idle()
    }));
    let a_if = sim.add_iface(a, a_addr, "a");
    let b_if = sim.add_iface(b, b_addr, "b");
    sim.connect(
        a_if,
        b_if,
        LinkCfg::new(1_000_000_000, Duration::from_micros(50)),
    );
    let mut reason = StopReason::Idle;
    let t = timed(round_trips, || {
        reason = sim.run().reason;
    });
    assert_eq!(
        reason,
        StopReason::Requested,
        "the ping-pong lost a packet before its last round trip"
    );
    t.per_op()
}

/// sim.link.hop_ns: host nanoseconds per packet-hop over one bare link
/// (mean of a 1440 B and a 40 B packet).
pub fn probe_link_hop(round_trips: u64) -> f64 {
    best_of_three(|| ping_pong(round_trips)) / 2.0
}
