//! Property tests for the adversarial middlebox rewriters
//! (`smapp_sim::rewrite`) and the router's ACK thinner.
//!
//! Three families of invariants:
//!
//! * **Split/coalesce byte-stream preservation** — splitting an arbitrary
//!   eligible segment yields two parseable, contiguous halves whose
//!   payloads concatenate to the original, and coalescing them back is
//!   **byte-identical** to the original segment. DSS-mapping consistency
//!   is enforced by refusal: any segment carrying options (where a DSS
//!   mapping would live) is never split and never coalesced, so a
//!   middlebox can never forge a mapping the endpoints did not make.
//! * **NAT sequence rewriting structural round-trip** — rewriting by
//!   `(d_seq, d_ack)` and then by the inverse deltas reproduces the
//!   original segment byte-for-byte, and a single rewrite touches
//!   *nothing* but the seq field (and the ack field when the ACK flag is
//!   set).
//! * **Two-part frames** — a segment the encoder built (header in the
//!   head, payload in the body) comes out of seq-NAT, split and coalesce
//!   byte for byte as its contiguous copy does, and seq-NAT and split
//!   share its payload instead of copying it.
//! * **ACK thinning never drops the final FIN ACK** — driven through a
//!   real `Router` in a real simulator: FIN-bearing segments are never
//!   eligible for thinning, and once a FIN has crossed the router, every
//!   subsequent pure ACK of that flow (the ones completing the close) is
//!   forwarded, for any thinning period and any amount of pre-FIN ACK
//!   pressure.

use std::any::Any;

use bytes::Bytes;
use proptest::prelude::*;
use smapp_sim::rewrite::{coalesce_pair, rewrite_seq_ack, split_segment};
use smapp_sim::wire::{encode_parts, OptionWriter, TcpFixed, TcpFlags, TcpView, TCP_HEADER_LEN};
use smapp_sim::{Addr, Ctx, Frame, IfaceId, LinkCfg, Node, Packet, Router, Simulator, Stage};

/// Build an option-free TCP segment. By hand, because `flags` is any
/// byte, reserved bits included, which `TcpFlags` cannot carry.
fn seg(sport: u16, dport: u16, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut b = vec![0u8; TCP_HEADER_LEN];
    b[0..2].copy_from_slice(&sport.to_be_bytes());
    b[2..4].copy_from_slice(&dport.to_be_bytes());
    b[4..8].copy_from_slice(&seq.to_be_bytes());
    b[8..12].copy_from_slice(&ack.to_be_bytes());
    b[12] = 5 << 4;
    b[13] = flags;
    b[14..16].copy_from_slice(&9000u16.to_be_bytes());
    b.extend_from_slice(payload);
    b
}

/// Insert a NOP-padded option block, making the segment option-bearing —
/// the shape a DSS mapping travels in.
fn with_options(mut s: Vec<u8>, opt_words: u8) -> Vec<u8> {
    let words = 1 + (opt_words % 10) as usize; // 4..=40 option bytes
    s[12] = ((5 + words) as u8) << 4;
    s.splice(TCP_HEADER_LEN..TCP_HEADER_LEN, vec![1u8; words * 4]);
    s
}

/// [`with_options`], then break the option area behind the valid data
/// offset: a length below 2, a length past the area, or a last byte that
/// starts an option with no length octet.
fn with_malformed_options(s: Vec<u8>, opt_words: u8) -> Vec<u8> {
    let mut s = with_options(s, opt_words);
    let end = (s[12] >> 4) as usize * 4;
    match opt_words / 3 % 3 {
        0 => s[TCP_HEADER_LEN..TCP_HEADER_LEN + 2].copy_from_slice(&[30, 0]),
        1 => s[TCP_HEADER_LEN..TCP_HEADER_LEN + 2].copy_from_slice(&[30, 41]),
        _ => s[end - 1] = 30,
    }
    s
}

/// `bytes` as a one-part frame, the way a raw frame enters a packet.
fn one(bytes: &[u8]) -> Frame {
    Bytes::copy_from_slice(bytes).into()
}

/// A segment as the encoder builds it: header and options in the head, an
/// option of kind 99 with an `opt_len`-byte body unless `opt_len` is 0, and
/// `payload` in the body. `flags` are the five bits the encoder writes.
fn two_part(sport: u16, seq: u32, ack: u32, flags: u8, opt_len: usize, payload: &[u8]) -> Frame {
    let hdr = TcpFixed {
        src_port: sport,
        dst_port: 80,
        seq: seq.into(),
        ack: ack.into(),
        flags: TcpFlags {
            fin: flags & 0x01 != 0,
            syn: flags & 0x02 != 0,
            rst: flags & 0x04 != 0,
            psh: flags & 0x08 != 0,
            ack: flags & 0x10 != 0,
        },
        window: 9000,
    };
    let mut opts = OptionWriter::new();
    if opt_len > 0 {
        opts.push(99, &vec![0xAB; opt_len]);
    }
    encode_parts(&hdr, &opts, Bytes::copy_from_slice(payload)).expect("options fit")
}

/// The fixed header of a segment the rewriters produced.
fn hdr(s: &Frame) -> smapp_sim::wire::TcpFixed {
    TcpView::parse(s).expect("rewriter output parses").hdr
}

/// The bytes of a rewriter's output, for comparing outputs whatever their
/// parts.
fn bytes(f: Option<Frame>) -> Option<Vec<u8>> {
    f.map(|f| f.to_vec())
}

/// Forward `pkts` through a router thinning every `thin`-th pure ACK;
/// returns what came out, in order, and how many ACKs it dropped.
fn thin_through_router(thin: u32, pkts: Vec<Packet>) -> (Vec<Packet>, u64) {
    let mut r = Router::new(0);
    r.middlebox(None, Stage::AckThin(thin), true);
    let mut sim = Simulator::new(1);
    let rid = sim.add_node(Box::new(r));
    let host = |out| {
        Box::new(Host {
            out,
            got: Vec::new(),
        })
    };
    let sink = sim.add_node(host(Vec::new()));
    let r_in = sim.add_iface(rid, Addr::new(10, 0, 0, 254), "in");
    let r_out = sim.add_iface(rid, Addr::new(10, 1, 0, 254), "out");
    let s_if = sim.add_iface(sink, Addr::new(10, 1, 0, 1), "eth0");
    let src = sim.add_node(host(pkts));
    let src_if = sim.add_iface(src, Addr::new(10, 0, 0, 1), "eth0");
    sim.connect(src_if, r_in, LinkCfg::mbps_ms(100, 1));
    sim.connect(r_out, s_if, LinkCfg::mbps_ms(100, 1));
    sim.node_mut(rid)
        .as_any_mut()
        .downcast_mut::<Router>()
        .unwrap()
        .add_route("10.1.0.0/16".parse().unwrap(), vec![r_out]);
    sim.run();
    let thinned = sim
        .node(rid)
        .as_any()
        .downcast_ref::<Router>()
        .unwrap()
        .counters
        .acks_thinned;
    let got = std::mem::take(
        &mut sim
            .node_mut(sink)
            .as_any_mut()
            .downcast_mut::<Host>()
            .unwrap()
            .got,
    );
    (got, thinned)
}

/// A packet from 10.0.0.1 to 10.1.0.1 carrying `tcp`.
fn pkt(tcp: Vec<u8>) -> Packet {
    Packet::tcp(
        Addr::new(10, 0, 0, 1),
        Addr::new(10, 1, 0, 1),
        Bytes::from(tcp),
    )
}

/// Data-segment flags the splitter accepts (no SYN, no RST).
fn arb_data_flags() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(0x10u8), // ACK
        Just(0x18u8), // PSH|ACK
        Just(0x11u8), // FIN|ACK
        Just(0x19u8), // FIN|PSH|ACK
        Just(0x00u8), // bare data
    ]
}

proptest! {
    #[test]
    fn split_then_coalesce_is_byte_identical(
        sport in 1024u16..65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_data_flags(),
        payload in proptest::collection::vec(any::<u8>(), 2..120),
    ) {
        let s = one(&seg(sport, 80, seq, ack, flags, &payload));
        let (a, b) = split_segment(&s, false).expect("eligible segment splits");

        // Both halves parse, stay option-free, and partition the payload
        // contiguously in sequence space.
        let k = payload.len() / 2;
        prop_assert_eq!(hdr(&a).seq.0, seq);
        prop_assert_eq!(hdr(&b).seq.0, seq.wrapping_add(k as u32));
        prop_assert_eq!(&a.slice_from(TCP_HEADER_LEN)[..], &payload[..k]);
        prop_assert_eq!(&b.slice_from(TCP_HEADER_LEN)[..], &payload[k..]);

        // FIN and PSH travel with the tail; the head is plain data.
        prop_assert_eq!(a.head()[13] & 0x09, 0);
        prop_assert_eq!(b.head()[13], flags);

        // Coalescing the halves reconstructs the original byte-for-byte:
        // the byte stream, the sequence numbers, the flags, the
        // acknowledgment — nothing about the flow changed end to end.
        let merged = coalesce_pair(&a, &b).expect("contiguous halves coalesce");
        prop_assert_eq!(merged.to_vec(), s.to_vec());
    }

    /// DSS-mapping consistency by refusal: a segment with any option area
    /// (where a DSS mapping would be) is never split, and never coalesced
    /// with anything — so re-segmentation cannot forge or tear a mapping.
    #[test]
    fn option_bearing_segments_are_never_resegmented(
        seq in any::<u32>(),
        opt_words in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 2..60),
    ) {
        let plain = seg(4321, 80, seq, 7, 0x18, &payload);
        let opted = one(&with_options(plain.clone(), opt_words));
        let plain = one(&plain);
        prop_assert!(split_segment(&opted, false).is_none());

        // Build a plain successor contiguous with each candidate first
        // half: eligibility must still be refused whenever either side
        // carries options.
        let next_seq = seq.wrapping_add(payload.len() as u32);
        let successor = seg(4321, 80, next_seq, 7, 0x10, b"x");
        let opted_successor = one(&with_options(successor.clone(), opt_words));
        let successor = one(&successor);
        prop_assert!(coalesce_pair(&opted, &successor).is_none());
        prop_assert!(coalesce_pair(&plain, &opted_successor).is_none());
        // Control: the all-plain pair does coalesce.
        prop_assert!(coalesce_pair(&plain, &successor).is_some());
    }

    #[test]
    fn seq_nat_rewrite_round_trips_structurally(
        sport in 1u16..65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        d_seq in any::<u32>(),
        d_ack in any::<u32>(),
        opt_words in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..60),
    ) {
        let plain = seg(sport, 80, seq, ack, flags, &payload);
        let malformed = opt_words % 3 == 2;
        let s = one(&match opt_words % 3 {
            0 => plain,
            1 => with_options(plain, opt_words),
            _ => with_malformed_options(plain, opt_words),
        });
        let ack_flag = flags & 0x10 != 0;

        match rewrite_seq_ack(&s, d_seq, d_ack) {
            None => {
                // A segment the reader rejects passes through; otherwise
                // only a no-op rewrite declines.
                prop_assert!(malformed || (d_seq == 0 && (!ack_flag || d_ack == 0)));
            }
            Some(out) => {
                prop_assert!(!malformed, "rewrote a malformed option area");
                // Structural invariants: same length, only seq (and ack,
                // iff the ACK flag is set) moved.
                prop_assert_eq!(out.len(), s.len());
                prop_assert_eq!(hdr(&out).seq.0, seq.wrapping_add(d_seq));
                let (out_bytes, s_bytes) = (out.to_vec(), s.to_vec());
                prop_assert_eq!(&out_bytes[0..4], &s_bytes[0..4]);
                prop_assert_eq!(&out_bytes[12..], &s_bytes[12..]);
                if !ack_flag {
                    prop_assert_eq!(&out_bytes[8..12], &s_bytes[8..12]);
                }

                // The inverse deltas restore the original exactly — the
                // NAT is invisible to a relative-sequence protocol.
                let back = rewrite_seq_ack(
                    &out,
                    0u32.wrapping_sub(d_seq),
                    0u32.wrapping_sub(d_ack),
                )
                .expect("inverse rewrite applies");
                prop_assert_eq!(back.to_vec(), s.to_vec());
            }
        }
    }

    /// Seq-NAT, split (sound and buggy) and coalesce on a two-part frame
    /// give byte for byte what they give on its contiguous copy, any mix of
    /// the two for coalesce, and seq-NAT and split keep the payload where
    /// the encoder put it.
    #[test]
    fn rewriters_give_two_part_frames_the_bytes_of_their_contiguous_copy(
        sport in 1u16..65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..32,
        d_seq in any::<u32>(),
        d_ack in any::<u32>(),
        opt_len in prop_oneof![Just(0usize), 0usize..=38],
        payload in proptest::collection::vec(any::<u8>(), 0..60),
        next in proptest::collection::vec(any::<u8>(), 1..20),
        buggy in any::<bool>(),
    ) {
        let two = two_part(sport, seq, ack, flags, opt_len, &payload);
        let contiguous = one(&two.to_vec());

        let nat = rewrite_seq_ack(&two, d_seq, d_ack);
        if let Some(out) = &nat {
            prop_assert!(out.body().as_ptr() == two.body().as_ptr(), "seq-NAT copied the payload");
        }
        prop_assert_eq!(bytes(nat), bytes(rewrite_seq_ack(&contiguous, d_seq, d_ack)));

        let halves = |f: &Frame| split_segment(f, buggy).map(|(a, b)| (a.to_vec(), b.to_vec()));
        prop_assert_eq!(halves(&two), halves(&contiguous));
        if let Some((a, b)) = split_segment(&two, buggy) {
            prop_assert!(a.body().as_ptr() == two.body().as_ptr(), "split copied the payload");
            prop_assert_eq!(b.body().as_ptr(), two.body()[a.body().len()..].as_ptr());
        }

        let next_seq = seq.wrapping_add(payload.len() as u32);
        let successor = two_part(sport, next_seq, ack, 0x18, 0, &next);
        let successor_contiguous = one(&successor.to_vec());
        let want = bytes(coalesce_pair(&contiguous, &successor_contiguous));
        prop_assert_eq!(bytes(coalesce_pair(&two, &successor)), want.clone());
        prop_assert_eq!(bytes(coalesce_pair(&two, &successor_contiguous)), want.clone());
        prop_assert_eq!(bytes(coalesce_pair(&contiguous, &successor)), want);
    }

    /// The guard under the thinner, through a router that drops every
    /// pure ACK it sees: nothing carrying FIN (or SYN/RST, or any payload)
    /// classifies as a droppable pure ACK.
    #[test]
    fn fin_bearing_segments_never_classify_as_pure_acks(
        flags in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let (_, thinned) = thin_through_router(1, vec![pkt(seg(4321, 80, 1, 2, flags, &payload))]);
        if thinned > 0 {
            prop_assert_eq!(flags & 0x17, 0x10);
            prop_assert!(payload.is_empty());
        }
        if flags & 0x01 != 0 {
            prop_assert!(thinned == 0, "a FIN is never thinnable");
        }
    }

    /// End-to-end through a real router: for any thinning period and any
    /// pre-FIN ACK pressure, the FIN itself and **every** pure ACK sent
    /// after it — including the final ACK completing the close — are
    /// forwarded.
    #[test]
    fn ack_thinner_never_drops_the_final_fin_ack(
        thin in 2u32..8,
        pre_acks in 0usize..20,
        post_acks in 1usize..8,
    ) {
        let mut pkts = Vec::new();
        let mk = |flags: u8, n: u32| pkt(seg(4321, 80, 100 + n, 500, flags, b""));
        for i in 0..pre_acks {
            pkts.push(mk(0x10, i as u32));
        }
        let fin_idx = pkts.len();
        pkts.push(mk(0x11, pre_acks as u32)); // FIN|ACK
        for i in 0..post_acks {
            pkts.push(mk(0x10, (pre_acks + 1 + i) as u32));
        }
        let sent = pkts.len();
        let (got, thinned) = thin_through_router(thin, pkts);

        // Exactly the pre-FIN thinning quota was dropped, nothing else.
        let expect_thinned = (pre_acks as u32 / thin) as usize;
        prop_assert_eq!(thinned as usize, expect_thinned);
        prop_assert_eq!(got.len(), sent - expect_thinned);

        // The FIN arrived, and every post-FIN ACK arrived after it.
        let fin_pos = got
            .iter()
            .position(|p| hdr(&p.payload).flags.fin)
            .expect("the FIN is forwarded");
        prop_assert_eq!(got.len() - fin_pos - 1, post_acks);
        // Sequence numbers confirm those are exactly the packets sent
        // after the FIN, in order.
        for (i, p) in got[fin_pos + 1..].iter().enumerate() {
            prop_assert_eq!(hdr(&p.payload).seq.0, 100 + (fin_idx + 1 + i) as u32);
        }
    }
}

/// Sends `out` at simulation start (the link preserves order; the
/// 100-packet default queue fits every generated burst) and keeps every
/// packet it receives, in arrival order.
struct Host {
    out: Vec<Packet>,
    got: Vec<Packet>,
}
impl Node for Host {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (iface, _) = ctx.my_ifaces().next().unwrap();
        for pkt in self.out.drain(..) {
            ctx.send(iface, pkt);
        }
    }
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
