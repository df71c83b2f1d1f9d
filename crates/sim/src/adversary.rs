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
use crate::node::{IfaceId, Node};
use crate::packet::{Packet, PROTO_TCP};
use crate::time::SimTime;
use crate::wire::{
    encode_parts, OptionWriter, SeqNum, TcpFixed, TcpFlags, TcpView, OPT_KIND_MPTCP,
};
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
        // MP_CAPABLE SYN: subtype 0, flags, 8-byte random key. MP_JOIN
        // SYN: subtype 1, address id, 4-byte random token, 4-byte nonce.
        let mut opts = OptionWriter::new();
        let mut body = [0u8; 10];
        if flavor == 1 {
            body[..2].copy_from_slice(&[0x00, 0x01]);
            body[2..].copy_from_slice(&ctx.rng().next_u64().to_be_bytes());
            opts.push(OPT_KIND_MPTCP, &body);
        } else if flavor == 2 {
            body[..2].copy_from_slice(&[0x10, 0x01]);
            body[2..6].copy_from_slice(&(ctx.rng().next_u64() as u32).to_be_bytes());
            body[6..].copy_from_slice(&(ctx.rng().next_u64() as u32).to_be_bytes());
            opts.push(OPT_KIND_MPTCP, &body);
        }
        let hdr = TcpFixed {
            src_port,
            dst_port: self.cfg.port,
            seq: SeqNum(seq),
            flags: TcpFlags::SYN,
            window: 65_535,
            ..TcpFixed::default()
        };
        let seg = encode_parts(&hdr, &opts, Bytes::new()).expect("one option fits");
        ctx.send(iface, Packet::tcp(src, self.cfg.target, seg));
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
        if pkt.proto != PROTO_TCP {
            return;
        }
        let Ok(seg) = TcpView::parse(&pkt.payload) else {
            return;
        };
        if !(seg.hdr.flags.syn && seg.hdr.flags.ack) {
            return;
        }
        let hdr = TcpFixed {
            src_port: seg.hdr.dst_port,
            dst_port: seg.hdr.src_port,
            seq: seg.hdr.ack,
            flags: TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            ..TcpFixed::default()
        };
        let rst = encode_parts(&hdr, &OptionWriter::new(), Bytes::new()).expect("no options");
        let src = ctx.iface(iface).addr;
        ctx.send(iface, Packet::tcp(src, pkt.src, rst));
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
            .all(|(x, y)| x.payload.to_vec() == y.payload.to_vec() && x.src == y.src));
        // Every packet is a SYN; a mixed flood uses several source ports.
        assert!(a.iter().all(|p| p.payload.head()[13] == 0x02));
        let ports: crate::FxHashSet<_> = a.iter().map(|p| p.ports().0).collect();
        assert!(ports.len() > 1);
    }

    /// Exact wire bytes, not just the SYN flag and the length: the first
    /// four SYNs of a mixed flood at seed 7 (an `MP_JOIN`, two plain SYNs,
    /// an `MP_CAPABLE`), and the RST answering a SYN-ACK.
    #[test]
    fn flood_wire_bytes_are_pinned() {
        let syns = flood_world(7, FloodMix::Mixed);
        let expect: [&[u8]; 4] = [
            &[
                181, 189, 0, 80, 250, 78, 158, 20, 0, 0, 0, 0, 128, 2, 255, 255, 0, 0, 0, 0, 30,
                12, 16, 1, 99, 24, 1, 60, 245, 121, 3, 118,
            ],
            &[
                195, 25, 0, 80, 98, 30, 163, 128, 0, 0, 0, 0, 80, 2, 255, 255, 0, 0, 0, 0,
            ],
            &[
                167, 229, 0, 80, 217, 193, 17, 237, 0, 0, 0, 0, 80, 2, 255, 255, 0, 0, 0, 0,
            ],
            &[
                195, 94, 0, 80, 46, 16, 196, 9, 0, 0, 0, 0, 128, 2, 255, 255, 0, 0, 0, 0, 30, 12,
                0, 1, 126, 160, 104, 241, 193, 200, 130, 79,
            ],
        ];
        for (got, want) in syns.iter().zip(expect) {
            assert_eq!(got.payload.to_vec(), want);
        }
        assert_eq!(
            rst_reply().payload.to_vec(),
            &[156, 64, 0, 80, 0, 0, 3, 9, 0, 0, 0, 0, 80, 4, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn mp_join_flood_carries_kind_30_joins() {
        let pkts = flood_world(3, FloodMix::MpJoin);
        assert!(pkts.iter().all(|p| {
            let b = p.payload.to_vec();
            b.len() == 32 && b[20] == OPT_KIND_MPTCP && b[22] >> 4 == 0x1
        }));
    }

    /// What the flood source sends back for a SYN-ACK from port 80 to its
    /// port 40000 acknowledging 777; the reply must be its only packet.
    fn rst_reply() -> Packet {
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
        let hdr = TcpFixed {
            src_port: 80,
            dst_port: 40_000,
            ack: SeqNum(777),
            flags: TcpFlags::SYN_ACK,
            ..TcpFixed::default()
        };
        let synack = Packet::tcp(
            Addr::new(10, 0, 9, 1),
            Addr::new(10, 0, 3, 1),
            encode_parts(&hdr, &OptionWriter::new(), Bytes::new()).unwrap(),
        );
        sim.core.send_from(ci, synack);
        sim.run();
        let fl = sim.node(fl).as_any().downcast_ref::<FloodSource>().unwrap();
        assert_eq!(fl.rst_replies, 1);
        let got = &mut sim
            .node_mut(co)
            .as_any_mut()
            .downcast_mut::<Collector>()
            .unwrap()
            .got;
        assert_eq!(got.len(), 1);
        got.pop().unwrap()
    }

    #[test]
    fn syn_ack_is_answered_with_rst() {
        let rst = rst_reply();
        assert_eq!(rst.payload.head()[13], 0x04, "RST");
        assert_eq!(
            u32::from_be_bytes(rst.payload.head()[4..8].try_into().unwrap()),
            777,
            "RST seq = their ack"
        );
    }
}
