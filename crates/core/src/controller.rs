//! The subflow-controller abstraction and its runtime.
//!
//! A [`SubflowController`] is the paper's headline idea: application-level
//! logic that owns the Multipath TCP control plane. Implementations see
//! typed events and act through [`ControlApi`]; the [`ControllerRuntime`]
//! adapts a controller to the host's [`UserProcess`] boundary (netlink
//! frames + latency).

use std::time::Duration;

use bytes::Bytes;
use smapp_mptcp::{ConnToken, PmAction, PmEvent, SubflowId, EVENT_MASK_ALL};
use smapp_netlink::{cmd, decode_into, Frame, PmNlCommand, PmNlMessage, UserCtx, UserProcess};
use smapp_sim::{Addr, Recycle, SimRng, SimTime, Spare};
use smapp_tcp::TcpInfo;

use crate::client::PmClient;

/// What a controller can do during a callback.
pub struct ControlApi<'a, 'b> {
    client: &'a mut PmClient,
    ctx: &'a mut UserCtx<'b>,
}

impl ControlApi<'_, '_> {
    /// Current time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Deterministic randomness (e.g. for random source ports).
    pub fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng
    }

    /// Have the kernel path manager act; a rejection comes back through
    /// [`SubflowController::on_command_failed`].
    pub fn act(&mut self, action: PmAction) {
        self.client.send(self.ctx, &PmNlCommand::Action(action));
    }

    /// Open a subflow on `token` from an arbitrary 4-tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn open_subflow(
        &mut self,
        token: ConnToken,
        src: Addr,
        src_port: u16,
        dst: Addr,
        dst_port: u16,
        backup: bool,
    ) {
        self.act(PmAction::OpenSubflow {
            token,
            src,
            src_port,
            dst,
            dst_port,
            backup,
        });
    }

    /// Close a subflow (RST when `reset`).
    pub fn close_subflow(&mut self, token: ConnToken, id: SubflowId, reset: bool) {
        self.act(PmAction::CloseSubflow { token, id, reset });
    }

    /// Query state; answered via [`SubflowController::on_info`] with `tag`.
    pub fn get_info(&mut self, token: ConnToken, id: Option<SubflowId>, tag: u64) {
        self.client.query(self.ctx, token, id, tag);
    }

    /// Arm a controller timer.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.ctx.set_timer(after, token);
    }
}

/// Application-specific subflow management logic (the paper's §4 use
/// cases implement this).
///
/// `Send` (propagated to the [`UserProcess`] boundary through
/// [`ControllerRuntime`]): controllers are plain data that may be built on
/// one thread and run on another, one world per thread.
pub trait SubflowController: Send {
    /// Event mask to subscribe with (default: everything).
    fn subscription(&self) -> u32 {
        EVENT_MASK_ALL
    }
    /// Called once at start, after the subscription is sent.
    fn on_start(&mut self, api: &mut ControlApi<'_, '_>) {
        let _ = api;
    }
    /// A path-manager event arrived.
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        let _ = (api, ev);
    }
    /// An info query completed.
    fn on_info(
        &mut self,
        api: &mut ControlApi<'_, '_>,
        tag: u64,
        token: ConnToken,
        conn: Option<(u64, u64)>,
        subflows: &[(SubflowId, TcpInfo)],
    ) {
        let _ = (api, tag, token, conn, subflows);
    }
    /// A controller timer fired.
    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let _ = (api, token);
    }
    /// A command was rejected by the kernel.
    fn on_command_failed(&mut self, api: &mut ControlApi<'_, '_>, errno: u16) {
        let _ = (api, errno);
    }
}

/// The info reply a runtime keeps (see [`ControllerRuntime`]), given back
/// as an empty reply on its subflow vector, emptied: a new world's
/// controller reads its first reply into that vector instead of growing
/// its own.
struct KeptReply(PmNlMessage);

impl Default for KeptReply {
    fn default() -> Self {
        KeptReply(PmNlMessage::InfoReply {
            seq: 0,
            token: 0,
            conn: None,
            subflows: Vec::new(),
        })
    }
}

impl Recycle for KeptReply {
    /// Only the subflow vector needs emptying: the next reply read into it
    /// overwrites every other field.
    fn reset(&mut self) {
        match &mut self.0 {
            PmNlMessage::InfoReply { subflows, .. } => subflows.clear(),
            other => *other = KeptReply::default().0,
        }
    }
    fn is_empty(&self) -> bool {
        matches!(&self.0, PmNlMessage::InfoReply { subflows, .. } if subflows.is_empty())
    }
}

/// Adapts a [`SubflowController`] to the netlink [`UserProcess`] boundary.
pub struct ControllerRuntime<C> {
    /// The typed netlink client.
    pub client: PmClient,
    /// The controller logic.
    pub controller: C,
    /// The last info reply from the kernel. The next is read into it, and
    /// so into its subflow vector; other frames hold no vector and are
    /// read into a message of their own, which would drop it. Until the
    /// first reply it is an empty reply on a spare vector.
    reply: Spare<KeptReply>,
}

impl<C: SubflowController> ControllerRuntime<C> {
    /// Wrap a controller.
    pub fn new(controller: C) -> Self {
        ControllerRuntime {
            client: PmClient::new(),
            controller,
            reply: Spare::default(),
        }
    }

    /// Boxed form, ready for [`smapp_pm::Host::with_user`].
    pub fn boxed(controller: C) -> Box<Self>
    where
        C: 'static,
    {
        Box::new(Self::new(controller))
    }
}

impl<C: SubflowController + 'static> UserProcess for ControllerRuntime<C> {
    fn on_start(&mut self, ctx: &mut UserCtx<'_>) {
        let mask = self.controller.subscription();
        self.client.send(ctx, &PmNlCommand::Subscribe { mask });
        let mut api = ControlApi {
            client: &mut self.client,
            ctx,
        };
        self.controller.on_start(&mut api);
    }

    /// Decode a frame from the kernel and dispatch it. Successful command
    /// acks are swallowed; frames that are not kernel → user messages
    /// count as parse errors.
    fn on_message(&mut self, ctx: &mut UserCtx<'_>, frame: Bytes) {
        let mut other = PmNlMessage::Ack { seq: 0, errno: 0 };
        let target = match Frame::parse(&frame) {
            Ok(f) if f.genl.cmd == cmd::REPLY_INFO => &mut self.reply.0,
            _ => &mut other,
        };
        let msg = decode_into(&frame, target).map(|()| &*target);
        let mut api = ControlApi {
            client: &mut self.client,
            ctx,
        };
        match msg {
            Ok(PmNlMessage::Event(ev)) => self.controller.on_event(&mut api, ev),
            Ok(PmNlMessage::InfoReply {
                seq,
                token,
                conn,
                subflows,
            }) => {
                let tag = api.client.take_tag(*seq);
                self.controller
                    .on_info(&mut api, tag, *token, *conn, subflows);
            }
            Ok(PmNlMessage::Ack { errno: 0, .. }) => {}
            Ok(PmNlMessage::Ack { errno, .. }) => {
                self.controller.on_command_failed(&mut api, *errno)
            }
            Ok(PmNlMessage::Command { .. } | PmNlMessage::DiagReply { .. }) | Err(_) => {
                api.client.parse_errors += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut UserCtx<'_>, token: u64) {
        let mut api = ControlApi {
            client: &mut self.client,
            ctx,
        };
        self.controller.on_timer(&mut api, token);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fetch a controller back out of a host (after a run).
pub fn controller_of<C: SubflowController + 'static>(host: &smapp_pm::Host) -> Option<&C> {
    host.user_as::<ControllerRuntime<C>>()
        .map(|r| &r.controller)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_netlink::{decode, encode_event, encode_reply};

    /// `(tag, token, conn)` of one info reply.
    type Info = (u64, ConnToken, Option<(u64, u64)>);

    /// Records callbacks; opens a subflow on every establish event.
    #[derive(Default)]
    struct Probe {
        events: Vec<PmEvent>,
        timers: u32,
        infos: Vec<Info>,
        failed: Vec<u16>,
    }
    impl SubflowController for Probe {
        fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
            self.events.push(ev.clone());
            if let PmEvent::ConnEstablished { token, tuple, .. } = ev {
                api.open_subflow(*token, tuple.src, 0, tuple.dst, tuple.dst_port, false);
            }
        }
        fn on_info(
            &mut self,
            _api: &mut ControlApi<'_, '_>,
            tag: u64,
            token: ConnToken,
            conn: Option<(u64, u64)>,
            _subflows: &[(SubflowId, TcpInfo)],
        ) {
            self.infos.push((tag, token, conn));
        }
        fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, _token: u64) {
            self.timers += 1;
            api.set_timer(Duration::from_secs(1), 1);
        }
        fn on_command_failed(&mut self, _api: &mut ControlApi<'_, '_>, errno: u16) {
            self.failed.push(errno);
        }
    }

    /// Hand `msg` to the runtime as the kernel would.
    fn deliver(rt: &mut ControllerRuntime<Probe>, rng: &mut SimRng, msg: &PmNlMessage) {
        let mut ctx = UserCtx::new(SimTime::ZERO, rng);
        rt.on_message(&mut ctx, encode_reply(msg));
    }

    fn info_reply(seq: u32, token: ConnToken) -> PmNlMessage {
        PmNlMessage::InfoReply {
            seq,
            token,
            conn: Some((10, 20)),
            subflows: vec![],
        }
    }

    #[test]
    fn runtime_subscribes_and_dispatches() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut rt = ControllerRuntime::new(Probe::default());
        let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
        rt.on_start(&mut ctx);
        assert_eq!(ctx.to_kernel.len(), 1, "subscription sent");
        assert!(matches!(
            decode(&ctx.to_kernel[0]).unwrap(),
            PmNlMessage::Command {
                cmd: PmNlCommand::Subscribe {
                    mask: EVENT_MASK_ALL
                },
                ..
            }
        ));

        // Deliver an establish event: the controller reacts with a command.
        let ev = PmEvent::ConnEstablished {
            token: 5,
            tuple: smapp_mptcp::FourTuple {
                src: Addr::new(10, 0, 0, 1),
                src_port: 1,
                dst: Addr::new(10, 0, 9, 1),
                dst_port: 80,
            },
            is_client: true,
        };
        let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
        rt.on_message(&mut ctx, encode_event(&ev));
        assert_eq!(rt.controller.events, [ev]);
        assert_eq!(ctx.to_kernel.len(), 1, "open-subflow command sent");

        // Timers dispatch and can rearm.
        let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
        rt.on_timer(&mut ctx, 1);
        assert_eq!(rt.controller.timers, 1);
        assert_eq!(ctx.timers.len(), 1);
    }

    #[test]
    fn commands_frame_correctly() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut rt = ControllerRuntime::new(Probe::default());
        let mut uc = UserCtx::new(SimTime::ZERO, &mut rng);
        rt.on_start(&mut uc);
        let mut api = ControlApi {
            client: &mut rt.client,
            ctx: &mut uc,
        };
        api.open_subflow(
            7,
            Addr::new(10, 0, 2, 1),
            0,
            Addr::new(10, 0, 9, 1),
            80,
            false,
        );
        api.close_subflow(7, 1, true);
        assert_eq!(uc.to_kernel.len(), 3);
        assert_eq!(rt.client.commands_sent, 3);
        // Every frame decodes as a command, numbered in sending order.
        for (f, want) in uc.to_kernel.iter().zip(1..) {
            assert!(matches!(decode(f).unwrap(), PmNlMessage::Command { seq, .. } if seq == want));
        }
    }

    #[test]
    fn events_parse() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut rt = ControllerRuntime::new(Probe::default());
        let ev = PmEvent::ConnClosed { token: 3 };
        deliver(&mut rt, &mut rng, &PmNlMessage::Event(ev.clone()));
        assert_eq!(rt.controller.events, [ev]);
    }

    #[test]
    fn info_reply_matches_tag() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut rt = ControllerRuntime::new(Probe::default());
        let mut uc = UserCtx::new(SimTime::ZERO, &mut rng);
        ControlApi {
            client: &mut rt.client,
            ctx: &mut uc,
        }
        .get_info(9, None, 1234);
        // The kernel echoes the seq of the query (1).
        deliver(&mut rt, &mut rng, &info_reply(1, 9));
        assert_eq!(rt.controller.infos, [(1234, 9, Some((10, 20)))]);
        assert_eq!(rt.client.pending_queries(), 0);
    }

    /// A dropped runtime gives its kept reply's subflow vector, emptied,
    /// to the thread; the next runtime reads its first reply into it.
    #[test]
    fn a_new_runtime_reads_into_the_vector_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let mut rng = SimRng::seed_from_u64(5);
            let reply = |subflows| PmNlMessage::InfoReply {
                seq: 1,
                token: 9,
                conn: Some((10, 20)),
                subflows,
            };
            let two = vec![(0, TcpInfo::default()), (1, TcpInfo::default())];
            let mut rt = ControllerRuntime::new(Probe::default());
            deliver(&mut rt, &mut rng, &reply(two));
            let kept = |rt: &ControllerRuntime<Probe>| match &rt.reply.0 {
                PmNlMessage::InfoReply { subflows, .. } => (subflows.len(), subflows.capacity()),
                _ => panic!("the runtime keeps an info reply"),
            };
            let (len, cap) = kept(&rt);
            assert!(len == 2 && cap >= 2);
            drop(rt);
            let spares = || {
                let kind = std::any::type_name::<KeptReply>();
                let mut stock = smapp_sim::spare::stock().into_iter();
                stock.find(|s| s.kind == kind).map_or(0, |s| s.on_hand)
            };
            assert_eq!(spares(), 1);
            let mut rt = ControllerRuntime::new(Probe::default());
            assert_eq!(spares(), 0);
            assert_eq!(kept(&rt), (0, cap), "an empty reply on the spare");
            deliver(&mut rt, &mut rng, &reply(vec![]));
            assert_eq!(rt.controller.infos, [(0, 9, Some((10, 20)))]);
        })
        .join()
        .unwrap();
    }

    /// Two queries outstanding, answered in reverse order: each reply
    /// still reaches `on_info` with the tag of its own query.
    #[test]
    fn replies_out_of_order_keep_their_tags() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut rt = ControllerRuntime::new(Probe::default());
        let mut uc = UserCtx::new(SimTime::ZERO, &mut rng);
        let mut api = ControlApi {
            client: &mut rt.client,
            ctx: &mut uc,
        };
        api.get_info(9, None, 111);
        api.get_info(8, Some(2), 222);
        deliver(&mut rt, &mut rng, &info_reply(2, 8));
        deliver(&mut rt, &mut rng, &info_reply(1, 9));
        let tags: Vec<(u64, ConnToken)> = rt.controller.infos.iter().map(|i| (i.0, i.1)).collect();
        assert_eq!(tags, [(222, 8), (111, 9)]);
        assert_eq!(rt.client.pending_queries(), 0);
    }

    #[test]
    fn acks_swallowed_errors_surfaced() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut rt = ControllerRuntime::new(Probe::default());
        deliver(&mut rt, &mut rng, &PmNlMessage::Ack { seq: 1, errno: 0 });
        assert!(rt.controller.failed.is_empty());
        deliver(&mut rt, &mut rng, &PmNlMessage::Ack { seq: 2, errno: 2 });
        assert_eq!(rt.controller.failed, [2]);
        assert_eq!(rt.client.parse_errors, 0);
    }

    #[test]
    fn garbage_counted() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut rt = ControllerRuntime::new(Probe::default());
        let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
        rt.on_message(&mut ctx, Bytes::from_static(b"nonsense"));
        assert_eq!(rt.client.parse_errors, 1);
        assert!(rt.controller.events.is_empty() && rt.controller.failed.is_empty());
    }
}
