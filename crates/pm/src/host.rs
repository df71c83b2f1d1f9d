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
//!   │  Subscription (StackNode)    │   netlink path manager
//!   │  FullMeshPm / NoopPm / …     │   kernel path manager
//!   │  HostStack (MPTCP engine)    │   kernel data plane
//!   └──────────────────────────────┘
//! ```
//!
//! Packets go to/from the simulator through the host's interfaces; netlink
//! frames cross the user/kernel boundary with sampled latency — the cost
//! Fig. 3 measures.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use bytes::Bytes;
use smapp_mptcp::{ConnToken, PathManagerHook, PmEvent, StackConfig, StackNode, SubflowId};
use smapp_netlink::{
    decode, encode_event, encode_reply, DiagConn, LatencyModel, PmNlCommand, PmNlMessage, UserCtx,
    UserProcess,
};
use smapp_sim::{Ctx, FxHashMap, IfaceId, Node, NodeCommand, Packet, Recycle, Spare};
use smapp_tcp::TcpInfo;

/// Timer-token domains (top nibble). Domains 1–3 belong to the stack, 7
/// to the node's connect queue.
const D_USER_TIMER: u64 = 4 << 60;
const D_TO_USER: u64 = 5 << 60;
const D_TO_KERNEL: u64 = 6 << 60;
const PAYLOAD: u64 = (1 << 60) - 1;

/// Reusable buffers for the netlink boundary, so a callback or a reply
/// does not re-allocate its scratch vectors. One set per thread, shared by
/// every host on it: a callback borrows it in place and leaves it emptied,
/// with its capacity, so between callbacks it holds no element but the
/// spare `infos` vectors, themselves empty, and its capacity is the most
/// any callback on the thread needed. Capacity is not observable, so
/// sharing moves no trajectory.
#[derive(Default)]
struct NetlinkScratch {
    /// Events toward userspace, swapped out of the node's
    /// [`Subscription`](smapp_mptcp::Subscription).
    events: Vec<PmEvent>,
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

impl NetlinkScratch {
    /// Encode the reply `build` makes from the scratch, then take back the
    /// vectors it holds.
    fn encode(build: impl FnOnce(&mut NetlinkScratch) -> PmNlMessage) -> Bytes {
        SCRATCH.with_borrow_mut(|s| {
            let msg = build(s);
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
            frame
        })
    }

    fn give_back(&mut self, mut infos: Vec<(SubflowId, TcpInfo)>) {
        infos.clear();
        self.infos.push(infos);
    }
}

thread_local! {
    /// The thread's set, borrowed in place by each callback. Callbacks do
    /// not nest, so it is always free when one borrows it; a nested
    /// borrow would panic.
    static SCRATCH: RefCell<NetlinkScratch> = RefCell::default();
}

/// Frames in flight across the netlink boundary, by crossing id. Only
/// probed, never iterated, so its capacity reaches no trajectory.
type Pending = FxHashMap<u64, Bytes>;

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

impl Recycle for DiagLog {
    fn reset(&mut self) {
        self.probes = 0;
        self.replies.clear();
    }
    fn is_empty(&self) -> bool {
        self.probes == 0 && self.replies.is_empty()
    }
}

/// One simulated multihomed endpoint: a [`StackNode`] (reachable through
/// `Deref` as `host.stack`, `host.pm` and `host.subscription`) plus the
/// netlink process.
pub struct Host {
    /// Human-readable name for reports.
    pub name: String,
    node: StackNode,
    /// Optional userspace subflow-controller process.
    pub user: Option<Box<dyn UserProcess>>,
    /// Boundary latency applied per netlink crossing.
    pub latency: LatencyModel,
    pending: Spare<Pending>,
    next_pending: u64,
    /// Netlink frames that failed to decode at the kernel (diagnostics).
    pub malformed_commands: u64,
    /// Sockdiag snapshots taken by scripted `Probe` commands.
    pub diag: Spare<DiagLog>,
}

impl Deref for Host {
    type Target = StackNode;
    fn deref(&self) -> &StackNode {
        &self.node
    }
}

impl DerefMut for Host {
    fn deref_mut(&mut self) -> &mut StackNode {
        &mut self.node
    }
}

impl Host {
    /// A host with the given stack config, no path manager (`NoopPm`) and
    /// no userspace process, on the tables the last host dropped on this
    /// thread gave back.
    pub fn new(name: impl Into<String>, cfg: StackConfig) -> Self {
        Host {
            name: name.into(),
            node: StackNode::new(cfg),
            user: None,
            latency: LatencyModel::Zero,
            pending: Spare::default(),
            next_pending: 0,
            malformed_commands: 0,
            diag: Spare::default(),
        }
    }

    /// Plug in a kernel path manager.
    pub fn with_pm(mut self, pm: Box<dyn PathManagerHook>) -> Self {
        self.node.pm = pm;
        self
    }

    /// Attach a userspace process behind the given boundary latency. It
    /// hears the events it subscribes to, whatever the kernel path manager.
    pub fn with_user(mut self, user: Box<dyn UserProcess>, latency: LatencyModel) -> Self {
        self.user = Some(user);
        self.latency = latency;
        self
    }

    /// Listen on `port` with a per-connection app factory.
    pub fn listen(&mut self, port: u16, factory: smapp_mptcp::stack::AppFactory) {
        self.node.stack.listen(port, factory);
    }

    /// Downcast the userspace process.
    pub fn user_as<T: 'static>(&self) -> Option<&T> {
        self.user.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Send the events the subscription kept across the boundary (one
    /// latency sample each). Runs after every drive of the node.
    fn flush_subscription(&mut self, ctx: &mut Ctx<'_>) {
        if self.node.subscription.events().is_empty() {
            return;
        }
        SCRATCH.with_borrow_mut(|s| {
            self.node.subscription.swap_events(&mut s.events);
            self.send_events(ctx, &mut s.events);
        })
    }

    /// Encode each of `events`, oldest first, and send it toward
    /// userspace, leaving `events` empty.
    fn send_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<PmEvent>) {
        for ev in events.drain(..) {
            self.schedule_boundary(ctx, encode_event(&ev), D_TO_USER);
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
        if self.user.is_none() {
            return;
        }
        let now = ctx.now();
        SCRATCH.with_borrow_mut(|s| {
            // Every callback starts on empty vectors, the thread's own.
            let mut uctx = UserCtx {
                now,
                rng: ctx.rng(),
                to_kernel: std::mem::take(&mut s.to_kernel),
                timers: std::mem::take(&mut s.user_timers),
            };
            if let Some(user) = self.user.as_mut() {
                f(user.as_mut(), &mut uctx);
            }
            (s.to_kernel, s.user_timers) = (uctx.to_kernel, uctx.timers);
            for frame in s.to_kernel.drain(..) {
                self.schedule_boundary(ctx, frame, D_TO_KERNEL);
            }
            for (d, tok) in s.user_timers.drain(..) {
                debug_assert!(tok <= PAYLOAD, "user timer token too large");
                ctx.set_timer_after(d, D_USER_TIMER | (tok & PAYLOAD));
            }
        })
    }

    /// A frame crossed into the kernel: decode and execute.
    fn kernel_receive(&mut self, ctx: &mut Ctx<'_>, frame: Bytes) {
        let Ok(PmNlMessage::Command { seq, cmd }) = decode(&frame) else {
            self.malformed_commands += 1;
            return;
        };
        match cmd {
            PmNlCommand::Subscribe { mask } => {
                self.node.subscription.subscribe(mask);
                let ack = encode_reply(&PmNlMessage::Ack { seq, errno: 0 });
                self.schedule_boundary(ctx, ack, D_TO_USER);
                // Netlink dump semantics: a fresh subscriber learns the
                // current local addresses immediately (real controllers do
                // an RTM_GETADDR dump at startup).
                let up = |addr| PmEvent::LocalAddrUp { addr };
                if mask & up(smapp_sim::Addr::UNSPECIFIED).mask_bit() != 0 {
                    // Gathered in the scratch first: scheduling a crossing
                    // needs the host, and so the stack, whole.
                    SCRATCH.with_borrow_mut(|s| {
                        s.events.extend(self.stack.local_addrs_up().map(up));
                        self.send_events(ctx, &mut s.events);
                    });
                }
            }
            PmNlCommand::GetInfo { token, id } => {
                let reply = NetlinkScratch::encode(|s| self.info_reply(seq, token, id, s));
                self.schedule_boundary(ctx, reply, D_TO_USER);
            }
            PmNlCommand::Action(action) => {
                let ok = self
                    .node
                    .drive(ctx, |stack, env| stack.apply_action(env, &action));
                self.flush_subscription(ctx);
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
        s: &mut NetlinkScratch,
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
    fn diag_dump(&self, s: &mut NetlinkScratch) -> Vec<DiagConn> {
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
        // Give the controller a chance to subscribe, then wire up the
        // interfaces and schedule the workload.
        self.run_user(ctx, |u, uctx| u.on_start(uctx));
        self.node.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        self.node.on_packet(ctx, iface, pkt);
        self.flush_subscription(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token >> 60 {
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
            _ => {
                self.node.on_timer(ctx, token);
                self.flush_subscription(ctx);
            }
        }
    }

    fn on_command(&mut self, _ctx: &mut Ctx<'_>, cmd: &NodeCommand) {
        if let NodeCommand::Probe = cmd {
            // Read-only snapshot: no RNG draws, no sends, no timers.
            let seq = self.diag.probes as u32;
            self.diag.probes += 1;
            let reply = NetlinkScratch::encode(|s| PmNlMessage::DiagReply {
                seq,
                conns: self.diag_dump(s),
            });
            self.diag.replies.push(reply);
        }
    }

    fn on_iface_admin(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        self.node.on_iface_admin(ctx, iface, up);
        self.flush_subscription(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dropped host gives its crossing table and its sockdiag reply
    /// list, emptied, to the thread; the next host starts on them.
    #[test]
    fn a_new_host_starts_on_the_tables_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let mut host = Host::new("h", StackConfig::default());
            for id in 0..3 {
                host.pending.insert(id, Bytes::from_static(b"frame"));
                host.diag.replies.push(Bytes::from_static(b"reply"));
            }
            let tables = |h: &Host| {
                let lens = (h.pending.len(), h.diag.replies.len());
                (lens, (h.pending.capacity(), h.diag.replies.capacity()))
            };
            let (_, held) = tables(&host);
            drop(host);
            let host = Host::new("h", StackConfig::default());
            assert_eq!(tables(&host), ((0, 0), held));
        })
        .join()
        .unwrap();
    }
}
