//! Stateful firewall / NAPT middlebox.
//!
//! §4.1 of the paper motivates smarter long-lived connections with
//! middleboxes that "maintain state for each established connection" and
//! "remove unused state after a few hundreds of seconds". [`Firewall`]
//! reproduces that behaviour in two modes:
//!
//! * **Stateful filter** (`Firewall::new`): forwards packets between an
//!   *inside* and an *outside* interface, creates flow state on inside-out
//!   traffic, expires it after an idle timeout, and then drops outside-in
//!   packets silently (typical NAT behaviour) or answers with ICMP
//!   administratively-prohibited (strict firewalls) — the two error classes
//!   the paper's userspace full-mesh controller distinguishes.
//! * **NAPT** (`Firewall::nat`): additionally rewrites the source address
//!   and port of inside-out traffic to the firewall's outside address and
//!   an allocated public port. After idle expiry, a *resumed* flow gets a
//!   **new** public port, so the far end no longer recognizes the 4-tuple
//!   and answers with RST — exactly the failure mode that kills idle
//!   long-lived connections behind home gateways.

use std::any::Any;
use std::time::Duration;

use crate::addr::{Addr, FlowKey};
use crate::hash::FxHashMap;
use crate::node::{IfaceId, Node};
use crate::packet::{IcmpMsg, Packet, UnreachCode};
use crate::time::SimTime;
use crate::world::Ctx;

/// What to do with an outside-in packet that matches no state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenyPolicy {
    /// Drop silently (typical NAT).
    SilentDrop,
    /// Reply with ICMP administratively-prohibited toward the sender.
    IcmpAdminProhibited,
}

#[derive(Debug, Clone, Copy)]
struct NatEntry {
    public_port: u16,
    last: SimTime,
}

/// A stateful firewall (optionally NAPT) between two interfaces.
#[derive(Debug)]
pub struct Firewall {
    inside: Option<IfaceId>,
    outside: Option<IfaceId>,
    idle_timeout: Duration,
    policy: DenyPolicy,
    /// Port-translation mode.
    nat: bool,
    /// Filter-mode flow table: normalized key -> last activity.
    flows: FxHashMap<FlowKey, SimTime>,
    /// NAT forward table: inside (src, sport, dst, dport) -> entry.
    fwd: FxHashMap<(Addr, u16, Addr, u16), NatEntry>,
    /// NAT reverse table: (public port, remote addr, remote port) ->
    /// inside (addr, port).
    rev: FxHashMap<(u16, Addr, u16), (Addr, u16)>,
    next_port: u16,
    /// Packets forwarded in either direction.
    pub forwarded: u64,
    /// Outside-in packets denied for missing state.
    pub denied: u64,
    /// Flow entries expired by the idle timer.
    pub expired: u64,
}

impl Firewall {
    /// A stateful filter with the given idle timeout and deny policy.
    /// Interfaces are bound with [`Firewall::bind`] after creation.
    pub fn new(idle_timeout: Duration, policy: DenyPolicy) -> Self {
        Firewall {
            inside: None,
            outside: None,
            idle_timeout,
            policy,
            nat: false,
            flows: FxHashMap::default(),
            fwd: FxHashMap::default(),
            rev: FxHashMap::default(),
            next_port: 20_000,
            forwarded: 0,
            denied: 0,
            expired: 0,
        }
    }

    /// A NAPT gateway: like [`Firewall::new`] but with source address and
    /// port translation.
    pub fn nat(idle_timeout: Duration, policy: DenyPolicy) -> Self {
        Firewall {
            nat: true,
            ..Firewall::new(idle_timeout, policy)
        }
    }

    /// Bind the inside and outside interfaces (call after `add_iface`).
    pub fn bind(&mut self, inside: IfaceId, outside: IfaceId) {
        self.inside = Some(inside);
        self.outside = Some(outside);
    }

    /// Number of live flow/NAT entries.
    pub fn live_flows(&self) -> usize {
        self.flows.len() + self.fwd.len()
    }

    /// Forcibly flush all state (models a middlebox reboot).
    pub fn flush(&mut self) {
        self.expired += (self.flows.len() + self.fwd.len()) as u64;
        self.flows.clear();
        self.fwd.clear();
        self.rev.clear();
    }

    fn gc(&mut self, now: SimTime) {
        let timeout = self.idle_timeout;
        let before = self.flows.len() + self.fwd.len();
        self.flows
            .retain(|_, last| now.saturating_since(*last) < timeout);
        let mut dead: Vec<(Addr, u16, Addr, u16)> = Vec::new();
        for (k, e) in &self.fwd {
            if now.saturating_since(e.last) >= timeout {
                dead.push(*k);
            }
        }
        for k in dead {
            if let Some(e) = self.fwd.remove(&k) {
                self.rev.remove(&(e.public_port, k.2, k.3));
            }
        }
        self.expired += (before - (self.flows.len() + self.fwd.len())) as u64;
    }

    fn alloc_port(&mut self) -> u16 {
        // Linear scan from the cursor; the space is large enough that
        // collisions with live reverse entries are resolved quickly.
        loop {
            let p = self.next_port;
            self.next_port = self.next_port.checked_add(1).unwrap_or(20_000);
            if !self.rev.keys().any(|(pp, _, _)| *pp == p) {
                return p;
            }
        }
    }

    /// Rewrite the TCP source port inside the payload's head.
    fn rewrite_src_port(pkt: &Packet, new_port: u16) -> Packet {
        let payload = pkt.payload.with_head(|h| {
            if h.len() >= 2 {
                h[0..2].copy_from_slice(&new_port.to_be_bytes());
            }
        });
        Packet {
            payload,
            ..pkt.clone()
        }
    }

    /// Rewrite the TCP destination port inside the payload's head.
    fn rewrite_dst_port(pkt: &Packet, new_port: u16) -> Packet {
        let payload = pkt.payload.with_head(|h| {
            if h.len() >= 4 {
                h[2..4].copy_from_slice(&new_port.to_be_bytes());
            }
        });
        Packet {
            payload,
            ..pkt.clone()
        }
    }

    fn deny(&mut self, ctx: &mut Ctx<'_>, outside: IfaceId, pkt: &Packet) {
        self.denied += 1;
        if self.policy == DenyPolicy::IcmpAdminProhibited {
            let (sp, dp) = pkt.ports();
            let icmp = IcmpMsg::DestUnreachable {
                code: UnreachCode::AdminProhibited,
                orig_src_port: sp,
                orig_dst_port: dp,
            };
            let reply = icmp.into_packet(ctx.iface(outside).addr, pkt.src);
            ctx.send(outside, reply);
        }
    }
}

impl Node for Firewall {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let (inside, outside) = match (self.inside, self.outside) {
            (Some(i), Some(o)) => (i, o),
            _ => panic!("Firewall::bind was not called"),
        };
        let now = ctx.now();
        self.gc(now);
        if !self.nat {
            // Plain stateful filter.
            let key = pkt.flow_key().normalized();
            if iface == inside {
                self.flows.insert(key, now);
                self.forwarded += 1;
                ctx.send(outside, pkt);
            } else if let std::collections::hash_map::Entry::Occupied(mut e) = self.flows.entry(key)
            {
                e.insert(now);
                self.forwarded += 1;
                ctx.send(inside, pkt);
            } else {
                self.deny(ctx, outside, &pkt);
            }
            return;
        }
        // NAPT mode.
        let public_addr = ctx.iface(outside).addr;
        if iface == inside {
            let (sport, dport) = pkt.ports();
            let key = (pkt.src, sport, pkt.dst, dport);
            let entry = match self.fwd.get_mut(&key) {
                Some(e) => {
                    e.last = now;
                    *e
                }
                None => {
                    let public_port = self.alloc_port();
                    let e = NatEntry {
                        public_port,
                        last: now,
                    };
                    self.fwd.insert(key, e);
                    self.rev
                        .insert((public_port, pkt.dst, dport), (pkt.src, sport));
                    e
                }
            };
            let mut out = Self::rewrite_src_port(&pkt, entry.public_port);
            out.src = public_addr;
            self.forwarded += 1;
            ctx.send(outside, out);
        } else {
            // Outside-in: must match a reverse mapping.
            let (sport, dport) = pkt.ports();
            match self.rev.get(&(dport, pkt.src, sport)).copied() {
                Some((in_addr, in_port)) => {
                    if let Some(e) = self.fwd.get_mut(&(in_addr, in_port, pkt.src, sport)) {
                        e.last = now;
                    }
                    let mut fwd = Self::rewrite_dst_port(&pkt, in_port);
                    fwd.dst = in_addr;
                    self.forwarded += 1;
                    ctx.send(inside, fwd);
                }
                None => self.deny(ctx, outside, &pkt),
            }
        }
    }

    fn on_command(&mut self, _ctx: &mut Ctx<'_>, cmd: &crate::dynamics::NodeCommand) {
        if matches!(cmd, crate::dynamics::NodeCommand::FlushState) {
            self.flush();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::link::LinkCfg;
    use crate::node::NodeId;
    use crate::packet::PROTO_ICMP;
    use crate::world::{Ctx as WCtx, Simulator};
    use bytes::Bytes;

    /// Scriptable endpoint: sends pre-programmed packets at given times,
    /// records everything it receives.
    struct Scripted {
        sends: Vec<(SimTime, Packet)>,
        received: Vec<(SimTime, Packet)>,
    }
    impl Node for Scripted {
        fn on_start(&mut self, ctx: &mut WCtx<'_>) {
            for (idx, (at, _)) in self.sends.iter().enumerate() {
                ctx.set_timer_at(*at, idx as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut WCtx<'_>, token: u64) {
            let (_, pkt) = self.sends[token as usize].clone();
            let (iface, _) = ctx.my_ifaces().next().unwrap();
            ctx.send(iface, pkt);
        }
        fn on_packet(&mut self, ctx: &mut WCtx<'_>, _iface: IfaceId, pkt: Packet) {
            self.received.push((ctx.now(), pkt));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn tcp_pkt(src: Addr, dst: Addr, sport: u16, dport: u16) -> Packet {
        let mut pl = Vec::new();
        pl.extend_from_slice(&sport.to_be_bytes());
        pl.extend_from_slice(&dport.to_be_bytes());
        Packet::tcp(src, dst, Bytes::from(pl))
    }

    /// inside host (10.0.0.1) -- fw -- outside host (10.0.1.1)
    fn build(
        fw_node: Firewall,
        inside_sends: Vec<(SimTime, Packet)>,
        outside_sends: Vec<(SimTime, Packet)>,
    ) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(9);
        let hin = sim.add_node(Box::new(Scripted {
            sends: inside_sends,
            received: vec![],
        }));
        let hout = sim.add_node(Box::new(Scripted {
            sends: outside_sends,
            received: vec![],
        }));
        let fw = sim.add_node(Box::new(fw_node));
        let i_in = sim.add_iface(hin, Addr::new(10, 0, 0, 1), "eth0");
        let i_out = sim.add_iface(hout, Addr::new(10, 0, 1, 1), "eth0");
        let f_in = sim.add_iface(fw, Addr::new(10, 0, 0, 254), "in");
        let f_out = sim.add_iface(fw, Addr::new(10, 0, 1, 254), "out");
        sim.connect(i_in, f_in, LinkCfg::mbps_ms(100, 1));
        sim.connect(f_out, i_out, LinkCfg::mbps_ms(100, 1));
        sim.node_mut(fw)
            .as_any_mut()
            .downcast_mut::<Firewall>()
            .unwrap()
            .bind(f_in, f_out);
        (sim, hin, hout, fw)
    }

    const IN: Addr = Addr::new(10, 0, 0, 1);
    const OUT: Addr = Addr::new(10, 0, 1, 1);
    const FW_OUT: Addr = Addr::new(10, 0, 1, 254);

    #[test]
    fn inside_out_creates_state_and_reply_passes() {
        let (mut sim, hin, hout, _) = build(
            Firewall::new(Duration::from_secs(100), DenyPolicy::SilentDrop),
            vec![(SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80))],
            vec![(SimTime::from_millis(50), tcp_pkt(OUT, IN, 80, 5000))],
        );
        sim.run();
        let got_out = &sim.node(hout).as_any().downcast_ref::<Scripted>().unwrap();
        let got_in = &sim.node(hin).as_any().downcast_ref::<Scripted>().unwrap();
        assert_eq!(got_out.received.len(), 1);
        assert_eq!(got_in.received.len(), 1, "reverse direction must pass");
    }

    #[test]
    fn unsolicited_outside_in_denied_silently() {
        let (mut sim, hin, _hout, fw) = build(
            Firewall::new(Duration::from_secs(100), DenyPolicy::SilentDrop),
            vec![],
            vec![(SimTime::ZERO, tcp_pkt(OUT, IN, 80, 5000))],
        );
        sim.run();
        assert!(sim
            .node(hin)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received
            .is_empty());
        let fw = sim.node(fw).as_any().downcast_ref::<Firewall>().unwrap();
        assert_eq!(fw.denied, 1);
    }

    #[test]
    fn idle_timeout_expires_state() {
        let (mut sim, hin, _hout, fw) = build(
            Firewall::new(Duration::from_secs(10), DenyPolicy::SilentDrop),
            vec![(SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80))],
            // Reply arrives 60 s later: state must be gone.
            vec![(SimTime::from_secs(60), tcp_pkt(OUT, IN, 80, 5000))],
        );
        sim.run();
        assert!(sim
            .node(hin)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received
            .is_empty());
        let fw = sim.node(fw).as_any().downcast_ref::<Firewall>().unwrap();
        assert_eq!(fw.denied, 1);
        assert_eq!(fw.expired, 1);
    }

    #[test]
    fn keepalive_refreshes_state() {
        let keepalive_times = [0u64, 8, 16, 24, 32];
        let sends = keepalive_times
            .iter()
            .map(|&s| (SimTime::from_secs(s), tcp_pkt(IN, OUT, 5000, 80)))
            .collect();
        let (mut sim, hin, _hout, _) = build(
            Firewall::new(Duration::from_secs(10), DenyPolicy::SilentDrop),
            sends,
            // Reply at 35 s: state refreshed at 32 s, still alive.
            vec![(SimTime::from_secs(35), tcp_pkt(OUT, IN, 80, 5000))],
        );
        sim.run();
        assert_eq!(
            sim.node(hin)
                .as_any()
                .downcast_ref::<Scripted>()
                .unwrap()
                .received
                .len(),
            1
        );
    }

    #[test]
    fn icmp_policy_bounces_admin_prohibited() {
        let (mut sim, _hin, hout, _) = build(
            Firewall::new(Duration::from_secs(10), DenyPolicy::IcmpAdminProhibited),
            vec![],
            vec![(SimTime::ZERO, tcp_pkt(OUT, IN, 80, 5000))],
        );
        sim.run();
        let got = &sim
            .node(hout)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got.len(), 1);
        let (_, pkt) = &got[0];
        assert_eq!(pkt.proto, PROTO_ICMP);
        let msg = IcmpMsg::decode(pkt.payload.head()).unwrap();
        assert_eq!(
            msg,
            IcmpMsg::DestUnreachable {
                code: UnreachCode::AdminProhibited,
                orig_src_port: 80,
                orig_dst_port: 5000,
            }
        );
    }

    #[test]
    fn flush_drops_all_state() {
        let mut fw = Firewall::new(Duration::from_secs(100), DenyPolicy::SilentDrop);
        fw.flows.insert(
            tcp_pkt(IN, OUT, 1, 2).flow_key().normalized(),
            SimTime::ZERO,
        );
        assert_eq!(fw.live_flows(), 1);
        fw.flush();
        assert_eq!(fw.live_flows(), 0);
        assert_eq!(fw.expired, 1);
    }

    // ---- NAPT mode ----

    #[test]
    fn nat_translates_source() {
        let (mut sim, _hin, hout, _) = build(
            Firewall::nat(Duration::from_secs(100), DenyPolicy::SilentDrop),
            vec![(SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80))],
            vec![],
        );
        sim.run();
        let got = &sim
            .node(hout)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got.len(), 1);
        let (_, pkt) = &got[0];
        assert_eq!(pkt.src, FW_OUT, "source address translated");
        let (sp, dp) = pkt.ports();
        assert_eq!(dp, 80);
        assert_ne!(sp, 5000, "source port translated");
    }

    #[test]
    fn nat_reverse_maps_replies() {
        // The first allocated public port is deterministic (20000), so the
        // scripted outside host can reply to it.
        let (mut sim, hin, _hout, _) = build(
            Firewall::nat(Duration::from_secs(100), DenyPolicy::SilentDrop),
            vec![(SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80))],
            vec![(SimTime::from_millis(50), tcp_pkt(OUT, FW_OUT, 80, 20_000))],
        );
        sim.run();
        let got_in = &sim
            .node(hin)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got_in.len(), 1, "reply reverse-mapped to the inside host");
        let (_, pkt) = &got_in[0];
        assert_eq!(pkt.dst, IN);
        assert_eq!(pkt.ports().1, 5000, "destination port restored");
    }

    #[test]
    fn nat_expiry_changes_public_port_on_resume() {
        let (mut sim, _hin, hout, fw) = build(
            Firewall::nat(Duration::from_secs(10), DenyPolicy::SilentDrop),
            vec![
                (SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80)),
                // Resume long after expiry.
                (SimTime::from_secs(60), tcp_pkt(IN, OUT, 5000, 80)),
            ],
            vec![],
        );
        sim.run();
        let got = &sim
            .node(hout)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got.len(), 2);
        let p1 = got[0].1.ports().0;
        let p2 = got[1].1.ports().0;
        assert_ne!(p1, p2, "resumed flow gets a fresh public port");
        let fw = sim.node(fw).as_any().downcast_ref::<Firewall>().unwrap();
        assert_eq!(fw.expired, 1);
    }

    #[test]
    fn nat_same_flow_keeps_port_while_active() {
        let (mut sim, _hin, hout, _) = build(
            Firewall::nat(Duration::from_secs(10), DenyPolicy::SilentDrop),
            vec![
                (SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80)),
                (SimTime::from_secs(5), tcp_pkt(IN, OUT, 5000, 80)),
            ],
            vec![],
        );
        sim.run();
        let got = &sim
            .node(hout)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.ports().0, got[1].1.ports().0);
    }

    #[test]
    fn nat_distinct_flows_distinct_ports() {
        let (mut sim, _hin, hout, _) = build(
            Firewall::nat(Duration::from_secs(10), DenyPolicy::SilentDrop),
            vec![
                (SimTime::ZERO, tcp_pkt(IN, OUT, 5000, 80)),
                (SimTime::ZERO, tcp_pkt(IN, OUT, 5001, 80)),
            ],
            vec![],
        );
        sim.run();
        let got = &sim
            .node(hout)
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .received;
        assert_eq!(got.len(), 2);
        assert_ne!(got[0].1.ports().0, got[1].1.ports().0);
    }
}
