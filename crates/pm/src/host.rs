//! The host node: a complete endpoint for the network simulator.
//!
//! A [`Host`] wires together, exactly as the paper's Figure 1 draws it:
//!
//! ```text
//!   ┌──────────────────────────────┐
//!   │  subflow controller          │   userspace  (crate `smapp`)
//!   │  (UserProcess)               │
//!   └──────▲──────────────┬────────┘
//!          │ netlink msgs │          ← LatencyModel per crossing
//!   ┌──────┴──────────────▼────────┐
//!   │  NetlinkPm / FullMeshPm / …  │   kernel path manager
//!   │  HostStack (MPTCP engine)    │   kernel data plane
//!   └──────────────────────────────┘
//! ```
//!
//! Packets go to/from the simulator through the host's interfaces; netlink
//! frames cross the user/kernel boundary with sampled latency — the cost
//! Fig. 3 measures.

use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use smapp_mptcp::{
    App, ConnToken, HostStack, OutPacket, PathManagerHook, PmAction, PmActions, PmEvent,
    StackConfig, StackEnv, SubflowId,
};
use smapp_netlink::{
    decode, encode_reply, DiagConn, LatencyModel, PmNlCommand, PmNlMessage, UserCtx, UserProcess,
};
use smapp_sim::{Addr, Ctx, FxHashMap, IfaceId, Node, NodeCommand, Packet, SimTime};
use smapp_tcp::TcpInfo;

use crate::netlink_pm::NetlinkPm;

/// Timer-token domains (top nibble). Domains 1–3 belong to the stack.
const D_USER_TIMER: u64 = 4 << 60;
const D_TO_USER: u64 = 5 << 60;
const D_TO_KERNEL: u64 = 6 << 60;
const D_CONNECT: u64 = 7 << 60;
const PAYLOAD: u64 = (1 << 60) - 1;

/// Work items the host feeds through the stack.
enum Work {
    Packet(Packet),
    StackTimer(u64),
    Connect {
        src: Option<Addr>,
        dst: Addr,
        dst_port: u16,
        app: Box<dyn App>,
    },
    Action(PmAction),
    LocalAddr(Addr, bool),
}

/// A client connection scheduled for a future simulated time:
/// `(when, source address, destination, port, app)`.
type ScheduledConnect = (SimTime, Option<Addr>, Addr, u16, Option<Box<dyn App>>);

/// Reusable buffers for [`Host::drive`] and the netlink boundary, so the
/// per-event hot path does not re-allocate its scratch vectors for every
/// packet/timer/callback/reply. One set per thread, shared by every host
/// on it: a callback takes it at entry and gives it back on exit, emptied
/// and with its capacity, so between callbacks it holds no element but
/// the spare `infos` vectors, themselves empty, and its capacity is the
/// most any callback on the thread needed. Capacity is not observable, so
/// sharing moves no trajectory.
#[derive(Default)]
struct DriveScratch {
    work: VecDeque<Work>,
    packets: Vec<OutPacket>,
    timers: Vec<(Duration, u64)>,
    connects: Vec<smapp_mptcp::ConnectRequest>,
    /// Path-manager events of the current stack call, swapped out of the
    /// stack by [`HostStack::swap_events`].
    events: Vec<PmEvent>,
    /// The kernel path manager's answers to `events`.
    actions: PmActions,
    /// Frames toward userspace, swapped out of the [`NetlinkPm`].
    to_user: Vec<Bytes>,
    /// A userspace callback's [`UserCtx::to_kernel`] and
    /// [`UserCtx::timers`].
    to_kernel: Vec<Bytes>,
    user_timers: Vec<(Duration, u64)>,
    /// Spare subflow-snapshot vectors, empty: a `GetInfo` reply takes one,
    /// a sockdiag dump one per connection, and each comes back once the
    /// reply is encoded.
    infos: Vec<Vec<(SubflowId, TcpInfo)>>,
    /// The connections of a sockdiag dump.
    diag: Vec<DiagConn>,
}

impl DriveScratch {
    /// Encode the reply `build` makes from the scratch, then take back the
    /// vectors it holds.
    fn encode(build: impl FnOnce(&mut DriveScratch) -> PmNlMessage) -> Bytes {
        let mut s = SCRATCH.take();
        let msg = build(&mut s);
        let frame = encode_reply(&msg);
        match msg {
            PmNlMessage::InfoReply { subflows, .. } => s.give_back(subflows),
            PmNlMessage::DiagReply { mut conns, .. } => {
                for c in conns.drain(..) {
                    s.give_back(c.subflows);
                }
                s.diag = conns;
            }
            _ => {}
        }
        SCRATCH.set(s);
        frame
    }

    fn give_back(&mut self, mut infos: Vec<(SubflowId, TcpInfo)>) {
        infos.clear();
        self.infos.push(infos);
    }
}

thread_local! {
    /// The thread's set. Callbacks do not nest, so it is always there when
    /// one takes it (a nested take would get an empty set of its own).
    static SCRATCH: Cell<DriveScratch> = Cell::default();
}

/// Record of sockdiag probes taken mid-run, filled by scripted
/// [`NodeCommand::Probe`] actions. Probing is read-only: it draws no
/// randomness, sends nothing and arms no timers, so a probed run's
/// trajectory is bit-identical to an unprobed one.
#[derive(Default)]
pub struct DiagLog {
    /// Probes executed so far.
    pub probes: u64,
    /// Encoded `REPLY_DIAG` frames, one per probe, in probe order.
    pub replies: Vec<Bytes>,
}

/// One simulated multihomed endpoint.
pub struct Host {
    /// Human-readable name for reports.
    pub name: String,
    /// The in-kernel stack.
    pub stack: HostStack,
    /// The kernel path manager plugged into the stack.
    pub pm: Box<dyn PathManagerHook>,
    /// Optional userspace subflow-controller process.
    pub user: Option<Box<dyn UserProcess>>,
    /// Boundary latency applied per netlink crossing.
    pub latency: LatencyModel,
    pending: FxHashMap<u64, Bytes>,
    next_pending: u64,
    connects: Vec<ScheduledConnect>,
    /// Netlink frames that failed to decode at the kernel (diagnostics).
    pub malformed_commands: u64,
    /// Sockdiag snapshots taken by scripted `Probe` commands.
    pub diag: DiagLog,
}

impl Host {
    /// A host with the given stack config, no path manager (`NoopPm`) and
    /// no userspace process.
    pub fn new(name: impl Into<String>, cfg: StackConfig) -> Self {
        Host {
            name: name.into(),
            stack: HostStack::new(cfg),
            pm: Box::new(smapp_mptcp::NoopPm),
            user: None,
            latency: LatencyModel::Zero,
            pending: FxHashMap::default(),
            next_pending: 0,
            connects: Vec::new(),
            malformed_commands: 0,
            diag: DiagLog::default(),
        }
    }

    /// Plug in a kernel path manager.
    pub fn with_pm(mut self, pm: Box<dyn PathManagerHook>) -> Self {
        self.pm = pm;
        self
    }

    /// Attach a userspace process behind the given boundary latency. Also
    /// installs a [`NetlinkPm`] as the kernel path manager.
    pub fn with_user(mut self, user: Box<dyn UserProcess>, latency: LatencyModel) -> Self {
        self.pm = Box::new(NetlinkPm::new());
        self.user = Some(user);
        self.latency = latency;
        self
    }

    /// Listen on `port` with a per-connection app factory.
    pub fn listen(&mut self, port: u16, factory: smapp_mptcp::stack::AppFactory) {
        self.stack.listen(port, factory);
    }

    /// Schedule a client connection at simulated time `at`.
    pub fn connect_at(
        &mut self,
        at: SimTime,
        src: Option<Addr>,
        dst: Addr,
        dst_port: u16,
        app: Box<dyn App>,
    ) {
        self.connects.push((at, src, dst, dst_port, Some(app)));
    }

    /// Downcast the userspace process.
    pub fn user_as<T: 'static>(&self) -> Option<&T> {
        self.user.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Run one work item through the stack, then the kernel-PM loop.
    /// Outputs are *appended* to the scratch buffers (which become the
    /// stack env's), preserving emission order across batched work items.
    fn run_stack(&mut self, ctx: &mut Ctx<'_>, work: Work, s: &mut DriveScratch) -> (bool, bool) {
        let mut env = StackEnv {
            now: ctx.now(),
            rng: ctx.rng(),
            out: std::mem::take(&mut s.packets),
            timers: std::mem::take(&mut s.timers),
            connects: std::mem::take(&mut s.connects),
            stop: false,
        };
        let mut action_ok = true;
        match work {
            Work::Packet(p) => self.stack.on_packet(&mut env, &p),
            Work::StackTimer(t) => self.stack.on_timer(&mut env, t),
            Work::Connect {
                src,
                dst,
                dst_port,
                app,
            } => {
                self.stack.connect(&mut env, src, dst, dst_port, app);
            }
            Work::Action(a) => {
                action_ok = self.stack.apply_action(&mut env, &a);
            }
            Work::LocalAddr(addr, up) => self.stack.on_local_addr(&mut env, addr, up),
        }
        // Kernel path-manager loop: events -> actions -> (more events) ...
        for _ in 0..8 {
            self.stack.swap_events(&mut s.events);
            if s.events.is_empty() {
                break;
            }
            for ev in &s.events {
                self.pm.on_event(ev, &self.stack, &mut s.actions);
            }
            for a in s.actions.drain() {
                self.stack.apply_action(&mut env, &a);
            }
        }
        s.packets = env.out;
        s.timers = env.timers;
        s.connects = env.connects;
        (env.stop, action_ok)
    }

    /// Feed a work item (and any follow-up connects) through the stack,
    /// then flush packets/timers into the simulator and drain the netlink
    /// outbox toward userspace.
    fn drive(&mut self, ctx: &mut Ctx<'_>, work: Work) -> bool {
        let mut s = SCRATCH.take();
        let (mut stop, first_action_ok) = self.run_stack(ctx, work, &mut s);
        loop {
            for c in s.connects.drain(..) {
                s.work.push_back(Work::Connect {
                    src: c.src,
                    dst: c.dst,
                    dst_port: c.dst_port,
                    app: c.app,
                });
            }
            let Some(w) = s.work.pop_front() else {
                break;
            };
            stop |= self.run_stack(ctx, w, &mut s).0;
        }
        for p in s.packets.drain(..) {
            if let Some(iface) = ctx.my_iface_by_addr(p.src) {
                ctx.send(iface, Packet::tcp(p.src, p.dst, p.seg));
            }
        }
        for (d, t) in s.timers.drain(..) {
            // A timer the stack restarts on every arm (RTO, DATA_FIN) is
            // re-armed through the handle it keeps, in place when later.
            match self.stack.timer_handle_mut(t) {
                Some(held) => {
                    *held = Some(match *held {
                        Some(h) => ctx.rearm_timer_after(h, d, t),
                        None => ctx.set_timer_after(d, t),
                    })
                }
                None => {
                    ctx.set_timer_after(d, t);
                }
            }
        }
        if stop {
            ctx.stop();
        }
        self.flush_netlink_outbox(ctx, &mut s.to_user);
        // A run of eight path-manager rounds may leave its last events.
        s.events.clear();
        SCRATCH.set(s);
        first_action_ok
    }

    /// Move frames queued by the NetlinkPm across the boundary (adds one
    /// latency sample each).
    fn flush_netlink_outbox(&mut self, ctx: &mut Ctx<'_>, frames: &mut Vec<Bytes>) {
        if self.user.is_none() {
            return;
        }
        let Some(nl) = self.pm.as_any_mut().downcast_mut::<NetlinkPm>() else {
            return;
        };
        nl.swap_outbox(frames);
        for f in frames.drain(..) {
            self.schedule_boundary(ctx, f, D_TO_USER);
        }
    }

    fn schedule_boundary(&mut self, ctx: &mut Ctx<'_>, frame: Bytes, domain: u64) {
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(id, frame);
        let d = self.latency.sample(ctx.rng());
        ctx.set_timer_after(d, domain | (id & PAYLOAD));
    }

    /// Run a userspace callback and route its outputs.
    fn run_user(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn UserProcess, &mut UserCtx<'_>),
    ) {
        let Some(user) = self.user.as_mut() else {
            return;
        };
        let now = ctx.now();
        let mut s = SCRATCH.take();
        // Every callback starts on empty vectors, the thread's own.
        let mut uctx = UserCtx {
            now,
            rng: ctx.rng(),
            to_kernel: std::mem::take(&mut s.to_kernel),
            timers: std::mem::take(&mut s.user_timers),
        };
        f(user.as_mut(), &mut uctx);
        (s.to_kernel, s.user_timers) = (uctx.to_kernel, uctx.timers);
        for frame in s.to_kernel.drain(..) {
            self.schedule_boundary(ctx, frame, D_TO_KERNEL);
        }
        for (d, tok) in s.user_timers.drain(..) {
            debug_assert!(tok <= PAYLOAD, "user timer token too large");
            ctx.set_timer_after(d, D_USER_TIMER | (tok & PAYLOAD));
        }
        SCRATCH.set(s);
    }

    /// A frame crossed into the kernel: decode and execute.
    fn kernel_receive(&mut self, ctx: &mut Ctx<'_>, frame: Bytes) {
        let Ok(PmNlMessage::Command { seq, cmd }) = decode(&frame) else {
            self.malformed_commands += 1;
            return;
        };
        match cmd {
            PmNlCommand::Subscribe { mask } => {
                if let Some(nl) = self.pm.as_any_mut().downcast_mut::<NetlinkPm>() {
                    nl.mask = mask;
                    let ack = encode_reply(&PmNlMessage::Ack { seq, errno: 0 });
                    self.schedule_boundary(ctx, ack, D_TO_USER);
                    // Netlink dump semantics: a fresh subscriber learns the
                    // current local addresses immediately (real controllers
                    // do an RTM_GETADDR dump at startup).
                    let up_bit = smapp_mptcp::PmEvent::LocalAddrUp {
                        addr: smapp_sim::Addr::UNSPECIFIED,
                    }
                    .mask_bit();
                    if mask & up_bit != 0 {
                        for addr in self.stack.local_addrs_up() {
                            let ev = smapp_mptcp::PmEvent::LocalAddrUp { addr };
                            let frame = smapp_netlink::encode_event(&ev);
                            self.schedule_boundary(ctx, frame, D_TO_USER);
                        }
                    }
                }
            }
            PmNlCommand::GetInfo { token, id } => {
                let reply = DriveScratch::encode(|s| self.info_reply(seq, token, id, s));
                self.schedule_boundary(ctx, reply, D_TO_USER);
            }
            PmNlCommand::Action(action) => {
                let ok = self.drive(ctx, Work::Action(action));
                let errno = if ok {
                    0
                } else {
                    2 /* ENOENT */
                };
                let ack = encode_reply(&PmNlMessage::Ack { seq, errno });
                self.schedule_boundary(ctx, ack, D_TO_USER);
            }
        }
    }

    /// The reply to `GetInfo`, built in the scratch `s`: the one subflow
    /// `id` names, closed or not, or else every live one in id order.
    fn info_reply(
        &self,
        seq: u32,
        token: ConnToken,
        id: Option<SubflowId>,
        s: &mut DriveScratch,
    ) -> PmNlMessage {
        let mut subflows = s.infos.pop().unwrap_or_default();
        let conn = self.stack.conn_by_token(token);
        if let Some(c) = conn {
            match id {
                Some(one) => subflows.extend(c.subflow_info(one).map(|i| (one, i))),
                None => subflows.extend(c.live_subflows().map(|sf| (sf.id, sf.info()))),
            }
        }
        PmNlMessage::InfoReply {
            seq,
            token,
            conn: conn.map(|c| c.info()).map(|i| (i.meta_una, i.meta_snd_nxt)),
            subflows,
        }
    }

    /// Sockdiag dump: live state of every connection on this host, in
    /// creation order, built in the scratch `s`. Read-only, so a probe does
    /// not perturb the trajectory.
    fn diag_dump(&self, s: &mut DriveScratch) -> Vec<DiagConn> {
        let mut conns = std::mem::take(&mut s.diag);
        conns.extend(self.stack.connections().map(|c| {
            let info = c.info();
            let mut subflows = s.infos.pop().unwrap_or_default();
            subflows.extend(c.live_subflows().map(|sf| (sf.id, sf.info())));
            DiagConn {
                token: c.token,
                state: info.state,
                fallback_inferred: c.stats.fallback_inferred,
                meta_una: info.meta_una,
                meta_snd_nxt: info.meta_snd_nxt,
                tap_sent: (c.stats.tap_sent.count(), c.stats.tap_sent.digest()),
                tap_recvd: (c.stats.tap_recvd.count(), c.stats.tap_recvd.digest()),
                reinjections: c.stats.reinjections,
                subflows,
            }
        }));
        conns
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Wire up interfaces.
        for (_, iface) in ctx.my_ifaces() {
            self.stack.set_local_addr(iface.addr, iface.up);
        }
        // Give the controller a chance to subscribe.
        self.run_user(ctx, |u, uctx| u.on_start(uctx));
        // Schedule the workload.
        for (i, (at, ..)) in self.connects.iter().enumerate() {
            ctx.set_timer_at(*at, D_CONNECT | i as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.drive(ctx, Work::Packet(pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token >> 60 {
            1..=3 => {
                self.drive(ctx, Work::StackTimer(token));
            }
            4 => {
                let tok = token & PAYLOAD;
                self.run_user(ctx, |u, uctx| u.on_timer(uctx, tok));
            }
            5 => {
                if let Some(frame) = self.pending.remove(&(token & PAYLOAD)) {
                    self.run_user(ctx, |u, uctx| u.on_message(uctx, frame));
                }
            }
            6 => {
                if let Some(frame) = self.pending.remove(&(token & PAYLOAD)) {
                    self.kernel_receive(ctx, frame);
                }
            }
            7 => {
                let idx = (token & PAYLOAD) as usize;
                if let Some((_, src, dst, port, app)) = self.connects.get_mut(idx) {
                    if let Some(app) = app.take() {
                        let (src, dst, port) = (*src, *dst, *port);
                        self.drive(
                            ctx,
                            Work::Connect {
                                src,
                                dst,
                                dst_port: port,
                                app,
                            },
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn on_command(&mut self, _ctx: &mut Ctx<'_>, cmd: &NodeCommand) {
        if let NodeCommand::Probe = cmd {
            // Read-only snapshot: no RNG draws, no sends, no timers.
            let seq = self.diag.probes as u32;
            self.diag.probes += 1;
            let reply = DriveScratch::encode(|s| PmNlMessage::DiagReply {
                seq,
                conns: self.diag_dump(s),
            });
            self.diag.replies.push(reply);
        }
    }

    fn on_iface_admin(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        let addr = ctx.iface(iface).addr;
        self.drive(ctx, Work::LocalAddr(addr, up));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
