//! Adversarial traffic sources.
//!
//! [`FloodSource`] is a host-shaped attacker: it crafts raw TCP SYNs —
//! plain SYNs, `MP_CAPABLE` SYNs with random keys, and `MP_JOIN` SYNs with
//! random (hence unknown) tokens — at a fixed pace toward one victim.
//! It models the §3.1 concern that MPTCP's new handshakes must not open
//! new holes: a flooded server has to shed bogus `MP_JOIN`s (no matching
//! token → RST) and half-open `MP_CAPABLE`s without corrupting real
//! connections sharing the path. The source answers every SYN-ACK it
//! receives with an RST so victims can reap state and runs can still
//! drain to idle.
//!
//! Like every node, the flood is deterministic: all randomness (source
//! ports, sequence numbers, keys, tokens, the per-SYN flavor choice)
//! comes from `ctx.rng()`, so a seeded run replays bit-identically.

use std::any::Any;
use std::time::Duration;

use bytes::Bytes;

use crate::addr::Addr;
use crate::dynamics::OPT_KIND_MPTCP;
use crate::node::{IfaceId, Node};
use crate::packet::{Packet, PROTO_TCP};
use crate::time::SimTime;
use crate::world::Ctx;

/// What mix of bogus handshakes a [`FloodSource`] emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodMix {
    /// Plain TCP SYNs only.
    PlainSyn,
    /// `MP_JOIN` SYNs with random tokens only.
    MpJoin,
    /// A per-packet random pick between plain SYN, `MP_CAPABLE` SYN and
    /// `MP_JOIN` SYN.
    Mixed,
}

/// Configuration for a [`FloodSource`].
#[derive(Clone, Copy, Debug)]
pub struct FloodCfg {
    /// Victim address.
    pub target: Addr,
    /// Victim port.
    pub port: u16,
    /// When the first SYN leaves.
    pub start: SimTime,
    /// Gap between consecutive SYNs.
    pub interval: Duration,
    /// Total SYNs to emit.
    pub count: u32,
    /// Handshake mix.
    pub mix: FloodMix,
}

/// A deterministic SYN / `MP_JOIN` flood source. See the module docs.
#[derive(Debug)]
pub struct FloodSource {
    cfg: FloodCfg,
    /// SYNs emitted so far.
    pub sent: u32,
    /// RSTs sent in reply to SYN-ACKs.
    pub rst_replies: u64,
}

const T_NEXT_SYN: u64 = 1;

impl FloodSource {
    /// A flood source with the given plan.
    pub fn new(cfg: FloodCfg) -> Self {
        FloodSource {
            cfg,
            sent: 0,
            rst_replies: 0,
        }
    }

    fn emit_syn(&mut self, ctx: &mut Ctx<'_>) {
        let Some((iface, meta)) = ctx.my_ifaces().next() else {
            return;
        };
        let src = meta.addr;
        let src_port = ctx.rng().ephemeral_port();
        let seq = ctx.rng().next_u64() as u32;
        let flavor = match self.cfg.mix {
            FloodMix::PlainSyn => 0,
            FloodMix::MpJoin => 2,
            FloodMix::Mixed => ctx.rng().range_u64(0, 3),
        };
        let options: Vec<u8> = match flavor {
            // MP_CAPABLE SYN: subtype 0, flags, 8-byte random key.
            1 => {
                let key = ctx.rng().next_u64();
                let mut o = vec![OPT_KIND_MPTCP, 12, 0x00, 0x01];
                o.extend_from_slice(&key.to_be_bytes());
                o
            }
            // MP_JOIN SYN: subtype 1, addr id, 4-byte token, 4-byte nonce.
            2 => {
                let token = ctx.rng().next_u64() as u32;
                let nonce = ctx.rng().next_u64() as u32;
                let mut o = vec![OPT_KIND_MPTCP, 12, 0x10, 0x01];
                o.extend_from_slice(&token.to_be_bytes());
                o.extend_from_slice(&nonce.to_be_bytes());
                o
            }
            _ => Vec::new(),
        };
        let mut seg = vec![0u8; 20];
        seg[0..2].copy_from_slice(&src_port.to_be_bytes());
        seg[2..4].copy_from_slice(&self.cfg.port.to_be_bytes());
        seg[4..8].copy_from_slice(&seq.to_be_bytes());
        seg[12] = (((20 + options.len()) / 4) as u8) << 4;
        seg[13] = 0x02; // SYN
        seg[14..16].copy_from_slice(&65_535u16.to_be_bytes());
        seg.extend_from_slice(&options);
        ctx.send(iface, Packet::tcp(src, self.cfg.target, Bytes::from(seg)));
        self.sent += 1;
    }
}

impl Node for FloodSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.count > 0 {
            ctx.set_timer_at(self.cfg.start, T_NEXT_SYN);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != T_NEXT_SYN || self.sent >= self.cfg.count {
            return;
        }
        self.emit_syn(ctx);
        if self.sent < self.cfg.count {
            ctx.set_timer_after(self.cfg.interval, T_NEXT_SYN);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        // Answer SYN-ACKs with an RST so the victim reaps its half-open
        // state; ignore everything else (RSTs to our bogus MP_JOINs).
        if pkt.proto != PROTO_TCP || pkt.payload.len() < 20 {
            return;
        }
        let b = &pkt.payload;
        if b[13] & 0x12 != 0x12 {
            return;
        }
        let their_ack = u32::from_be_bytes([b[8], b[9], b[10], b[11]]);
        let (sport, dport) = (
            u16::from_be_bytes([b[0], b[1]]),
            u16::from_be_bytes([b[2], b[3]]),
        );
        let mut rst = vec![0u8; 20];
        rst[0..2].copy_from_slice(&dport.to_be_bytes());
        rst[2..4].copy_from_slice(&sport.to_be_bytes());
        rst[4..8].copy_from_slice(&their_ack.to_be_bytes());
        rst[12] = 5 << 4;
        rst[13] = 0x04; // RST
        let src = ctx.iface(iface).addr;
        ctx.send(iface, Packet::tcp(src, pkt.src, Bytes::from(rst)));
        self.rst_replies += 1;
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
    use crate::link::LinkCfg;
    use crate::world::Simulator;

    /// Collects every packet it receives and RST-acks nothing.
    struct Collector {
        got: Vec<Packet>,
    }
    impl Node for Collector {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn flood_world(seed: u64, mix: FloodMix) -> Vec<Packet> {
        let mut sim = Simulator::new(seed);
        let victim = Addr::new(10, 0, 9, 1);
        let fl = sim.add_node(Box::new(FloodSource::new(FloodCfg {
            target: victim,
            port: 80,
            start: SimTime::from_millis(5),
            interval: Duration::from_millis(2),
            count: 12,
            mix,
        })));
        let co = sim.add_node(Box::new(Collector { got: Vec::new() }));
        let fi = sim.add_iface(fl, Addr::new(10, 0, 3, 1), "eth0");
        let ci = sim.add_iface(co, victim, "eth0");
        sim.connect(fi, ci, LinkCfg::mbps_ms(100, 1));
        sim.run();
        let got = sim
            .node_mut(co)
            .as_any_mut()
            .downcast_mut::<Collector>()
            .unwrap();
        std::mem::take(&mut got.got)
    }

    #[test]
    fn flood_emits_the_planned_count_deterministically() {
        let a = flood_world(7, FloodMix::Mixed);
        let b = flood_world(7, FloodMix::Mixed);
        assert_eq!(a.len(), 12);
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.payload == y.payload && x.src == y.src));
        // Every packet is a SYN; a mixed flood uses several source ports.
        assert!(a.iter().all(|p| p.payload[13] == 0x02));
        let ports: crate::FxHashSet<_> = a.iter().map(|p| p.ports().0).collect();
        assert!(ports.len() > 1);
    }

    #[test]
    fn mp_join_flood_carries_kind_30_joins() {
        let pkts = flood_world(3, FloodMix::MpJoin);
        assert!(pkts.iter().all(|p| {
            let b = &p.payload;
            b.len() == 32 && b[20] == OPT_KIND_MPTCP && b[22] >> 4 == 0x1
        }));
    }

    #[test]
    fn syn_ack_is_answered_with_rst() {
        let mut sim = Simulator::new(1);
        let fl = sim.add_node(Box::new(FloodSource::new(FloodCfg {
            target: Addr::new(10, 0, 9, 1),
            port: 80,
            start: SimTime::from_millis(1),
            interval: Duration::from_millis(1),
            count: 0, // emit nothing; we inject the SYN-ACK ourselves
            mix: FloodMix::PlainSyn,
        })));
        let co = sim.add_node(Box::new(Collector { got: Vec::new() }));
        let fi = sim.add_iface(fl, Addr::new(10, 0, 3, 1), "eth0");
        let ci = sim.add_iface(co, Addr::new(10, 0, 9, 1), "eth0");
        sim.connect(fi, ci, LinkCfg::mbps_ms(100, 1));
        // A SYN-ACK from the victim toward the flood source.
        let mut b = vec![0u8; 20];
        b[0..2].copy_from_slice(&80u16.to_be_bytes());
        b[2..4].copy_from_slice(&40_000u16.to_be_bytes());
        b[8..12].copy_from_slice(&777u32.to_be_bytes());
        b[12] = 5 << 4;
        b[13] = 0x12;
        let synack = Packet::tcp(
            Addr::new(10, 0, 9, 1),
            Addr::new(10, 0, 3, 1),
            Bytes::from(b),
        );
        sim.core.send_from(ci, synack);
        sim.run();
        let got = &sim
            .node(co)
            .as_any()
            .downcast_ref::<Collector>()
            .unwrap()
            .got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload[13], 0x04, "RST");
        assert_eq!(
            u32::from_be_bytes(got[0].payload[4..8].try_into().unwrap()),
            777,
            "RST seq = their ack"
        );
        let fl = sim.node(fl).as_any().downcast_ref::<FloodSource>().unwrap();
        assert_eq!(fl.rst_replies, 1);
    }
}
