//! Accounting tests: queue overflow, loss counters and trace completeness
//! under overload — the bookkeeping experiments rely on.

use std::any::Any;

use bytes::Bytes;
use smapp_sim::{
    Addr, CollectorSink, Ctx, DropReason, IfaceId, InstallPolicy, LinkCfg, LossModel, LossPct,
    Netem, NetemScript, Node, Packet, SimTime, Simulator, TraceKind,
};

/// Blasts `n` packets back-to-back at start.
struct Blaster {
    n: usize,
    peer: Addr,
}
impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (iface, meta) = ctx.my_ifaces().next().unwrap();
        let src = meta.addr;
        for _ in 0..self.n {
            let pkt = Packet::tcp(
                src,
                self.peer,
                Bytes::from_static(&[0, 1, 0, 2, 0, 0, 0, 0]),
            );
            ctx.send(iface, pkt);
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Counter(u64);
impl Node for Counter {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn build(n: usize, cfg: LinkCfg) -> (Simulator, smapp_sim::NodeId, smapp_sim::LinkId) {
    let mut sim = Simulator::new(1);
    let a = sim.add_node(Box::new(Blaster {
        n,
        peer: Addr::new(10, 0, 0, 2),
    }));
    let b = sim.add_node(Box::new(Counter(0)));
    let ia = sim.add_iface(a, Addr::new(10, 0, 0, 1), "eth0");
    let ib = sim.add_iface(b, Addr::new(10, 0, 0, 2), "eth0");
    let link = sim.connect(ia, ib, cfg);
    (sim, b, link)
}

#[test]
fn queue_overflow_counted_and_bounded() {
    // 500 instantaneous packets into a 50-packet queue: exactly 50+1 (one
    // in the serializer) can survive.
    let (mut sim, b, link) = build(500, LinkCfg::mbps_ms(10, 5).queue(50));
    sim.core.set_trace(Box::new(CollectorSink::with_cap(0)));
    sim.run();
    let (dropped_queue, delivered) = {
        let stats = sim.core.link_stats(link, smapp_sim::Dir::AtoB);
        (stats.dropped_queue, stats.delivered)
    };
    assert_eq!(dropped_queue, 500 - 51);
    assert_eq!(delivered, 51);
    let got = sim.node(b).as_any().downcast_ref::<Counter>().unwrap().0;
    assert_eq!(got, 51);
    // The trace saw every drop.
    let sink = sim.core.take_trace().unwrap();
    let sink = sink.as_any().downcast_ref::<CollectorSink>().unwrap();
    assert_eq!(
        sink.count_kind(|k| matches!(
            k,
            TraceKind::Drop {
                reason: DropReason::QueueFull,
                ..
            }
        )) as u64,
        dropped_queue
    );
}

#[test]
fn random_loss_counters_match_outcome() {
    let (mut sim, b, link) = build(
        1000,
        LinkCfg::mbps_ms(1000, 1)
            .queue(2000)
            .loss(LossModel::Bernoulli(0.25)),
    );
    sim.run();
    let stats = sim.core.link_stats(link, smapp_sim::Dir::AtoB);
    let got = sim.node(b).as_any().downcast_ref::<Counter>().unwrap().0;
    assert_eq!(stats.delivered, got);
    assert_eq!(stats.delivered + stats.dropped_random, 1000);
    // ~25% loss, generous band.
    assert!((150..350).contains(&(stats.dropped_random as i64)));
}

#[test]
fn byte_accounting_includes_ip_header() {
    let (mut sim, _b, link) = build(10, LinkCfg::mbps_ms(10, 1));
    sim.run();
    let stats = sim.core.link_stats(link, smapp_sim::Dir::AtoB);
    // 8 payload bytes + 20 IP header = 28 per packet.
    assert_eq!(stats.bytes_delivered, 10 * 28);
}

#[test]
fn scheduled_loss_transitions_exactly() {
    // Loss turns on at t=1s sharp: packets sent before arrive, after die.
    let mut sim = Simulator::new(2);
    struct Timed {
        peer: Addr,
    }
    impl Node for Timed {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_at(SimTime::from_millis(990), 0);
            ctx.set_timer_at(SimTime::from_millis(1010), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let (iface, meta) = ctx.my_ifaces().next().unwrap();
            let src = meta.addr;
            let pkt = Packet::tcp(src, self.peer, Bytes::from_static(&[0, 1, 0, 2]));
            ctx.send(iface, pkt);
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let a = sim.add_node(Box::new(Timed {
        peer: Addr::new(10, 0, 0, 2),
    }));
    let b = sim.add_node(Box::new(Counter(0)));
    let ia = sim.add_iface(a, Addr::new(10, 0, 0, 1), "eth0");
    let ib = sim.add_iface(b, Addr::new(10, 0, 0, 2), "eth0");
    let link = sim.connect(ia, ib, LinkCfg::mbps_ms(1000, 1));
    let onset = Netem::on(link).loss(LossPct::ratio(1.0));
    let script = NetemScript::new().at(SimTime::from_secs(1), onset);
    sim.install(script, InstallPolicy::Sort).unwrap();
    sim.run();
    let got = sim.node(b).as_any().downcast_ref::<Counter>().unwrap().0;
    assert_eq!(got, 1, "only the pre-onset packet survives");
}

/// Heavy `TimerHandle` cancel/rearm churn with *exact* expectations on
/// event accounting and peak queue depth — the regression guard for the
/// lazy-deletion design of cancellable timers: a cancelled entry stays in
/// the calendar queue until its expiry instant, pops exactly once as a
/// stale entry (not an event), and never invokes the node.
mod timer_churn {
    use super::*;
    use smapp_sim::{Simulator, StopReason, TimerHandle};
    use std::time::Duration;

    /// Arms `2 * half` timers at start (10 ms apart), cancels every odd
    /// handle immediately, and on each surviving firing arms one more
    /// timer that it instantly cancels.
    struct Churner {
        half: u64,
        fired: Vec<u64>,
        cancel_ok: u64,
    }

    impl Node for Churner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let handles: Vec<TimerHandle> = (0..2 * self.half)
                .map(|i| ctx.set_timer_after(Duration::from_millis((i + 1) * 10), i))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                if i % 2 == 1 {
                    assert!(ctx.cancel_timer(h), "live timers cancel");
                    self.cancel_ok += 1;
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token % 2, 0, "cancelled (odd) timers never fire");
            self.fired.push(token);
            // Rearm-and-cancel churn between firings.
            let h = ctx.set_timer_after(Duration::from_millis(5), 999);
            assert!(ctx.cancel_timer(h));
            self.cancel_ok += 1;
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cancel_rearm_churn_keeps_accounting_and_peak_depth_exact() {
        const HALF: u64 = 100;
        let mut sim = Simulator::new(5);
        let n = sim.add_node(Box::new(Churner {
            half: HALF,
            fired: vec![],
            cancel_ok: 0,
        }));
        let summary = sim.run();
        assert_eq!(summary.reason, StopReason::Idle);

        let node = sim.node(n).as_any().downcast_ref::<Churner>().unwrap();
        // Exactly the even timers fired, in order.
        assert_eq!(node.fired.len() as u64, HALF);
        assert!(node.fired.windows(2).all(|w| w[0] + 2 == w[1]));
        // Every cancel hit a live timer: 100 at start + 100 mid-run.
        assert_eq!(node.cancel_ok, 2 * HALF);

        // Event accounting is exact: 1 start + the 100 even timers are
        // dispatched; the 100 odd entries and the 100 cancelled rearm
        // entries pop stale, once each.
        assert_eq!(summary.events, 1 + HALF);
        assert_eq!(summary.stale, 2 * HALF);
        assert_eq!(summary.requeued, 0);

        // Peak queue depth is exact: all 200 start-armed entries are the
        // high-water mark. Mid-run rearms never exceed it — each firing
        // pops one entry before pushing one.
        assert_eq!(summary.peak_queue, 2 * HALF as usize);

        // No timer slot leaked.
        assert_eq!(sim.core.live_timer_count(), 0);
        assert_eq!(sim.core.queue_depth(), 0);
    }
}
