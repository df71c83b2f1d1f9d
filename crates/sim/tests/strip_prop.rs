//! Property tests for the middlebox option rewriter
//! (`rewrite::strip_mptcp_options`) against arbitrary generated option
//! lists: kind-30 options are always removed, every other option is
//! byte-preserved in order, the rewritten segment still parses, and the
//! NOP padding is length-exact. The same segment built by the encoder, its
//! header in the frame's head and its payload in the body, has exactly the
//! hand-built bytes and strips to exactly the bytes the contiguous copy
//! strips to, its payload shared rather than copied.
//!
//! The same generated headers, cut short at every byte and with every
//! byte flipped in turn, check the tree's one header reader
//! (`wire::TcpView::parse`) against this file's independent reference
//! walk, and the oracle against the reader.

use bytes::Bytes;
use proptest::prelude::*;
use smapp_sim::rewrite::strip_mptcp_options;
use smapp_sim::wire::{
    encode_parts, OptionWriter, TcpFixed, TcpFlags, TcpView, OPT_KIND_MPTCP, TCP_HEADER_LEN,
};
use smapp_sim::{
    Addr, Frame, IfaceId, NodeId, Oracle, Packet, SimTime, TraceEvent, TraceKind, TraceSink,
};

/// One generated option: `(kind, body)` with `kind` never NOP/EOL.
fn arb_option() -> impl Strategy<Value = (u8, Vec<u8>)> {
    (
        prop_oneof![
            Just(OPT_KIND_MPTCP),
            (2u8..=253).prop_filter("non-mptcp kind", |k| *k != OPT_KIND_MPTCP),
        ],
        proptest::collection::vec(any::<u8>(), 0..8),
    )
}

/// Encode options (padding the area to a 4-byte boundary with NOPs) into
/// a raw TCP segment with the given payload. Built by hand so the
/// generator does not share code with the reader and writer under test.
fn build_segment(options: &[(u8, Vec<u8>)], payload: &[u8]) -> Vec<u8> {
    let mut area = Vec::new();
    for (kind, body) in options {
        area.push(*kind);
        area.push((2 + body.len()) as u8);
        area.extend_from_slice(body);
    }
    while area.len() % 4 != 0 {
        area.push(1); // NOP
    }
    assert!(
        area.len() <= 40,
        "generator keeps options within TCP limits"
    );
    let mut b = vec![0u8; TCP_HEADER_LEN];
    b[0..2].copy_from_slice(&40_000u16.to_be_bytes());
    b[2..4].copy_from_slice(&80u16.to_be_bytes());
    b[4..8].copy_from_slice(&0x1111_2222u32.to_be_bytes()); // seq
    b[8..12].copy_from_slice(&0x3333_4444u32.to_be_bytes()); // ack
    b[12] = (((TCP_HEADER_LEN + area.len()) / 4) as u8) << 4;
    b[13] = 0x18; // PSH|ACK
    b[14..16].copy_from_slice(&9000u16.to_be_bytes()); // window
    b.extend_from_slice(&area);
    b.extend_from_slice(payload);
    b
}

/// The segment [`build_segment`] writes by hand, built by the encoder: a
/// two-part frame, header and options in the head, `payload` in the body.
fn encode_segment(options: &[(u8, Vec<u8>)], payload: &[u8]) -> Frame {
    let hdr = TcpFixed {
        src_port: 40_000,
        dst_port: 80,
        seq: 0x1111_2222.into(),
        ack: 0x3333_4444.into(),
        flags: TcpFlags {
            psh: true,
            ack: true,
            ..TcpFlags::default()
        },
        window: 9000,
    };
    let mut opts = OptionWriter::new();
    for (kind, body) in options {
        opts.push(*kind, body);
    }
    encode_parts(&hdr, &opts, Bytes::copy_from_slice(payload)).expect("options fit")
}

/// `bytes` as a one-part frame, the way a raw frame enters a packet.
fn one(bytes: &[u8]) -> Frame {
    Bytes::copy_from_slice(bytes).into()
}

/// Strip `frame`, the result copied out.
fn strip(frame: &Frame) -> Option<(Vec<u8>, u32)> {
    strip_mptcp_options(frame).map(|(out, n)| (out.to_vec(), n))
}

/// Walk a segment's option area; returns `(kind, body)` pairs (skipping
/// NOPs, stopping at EOL) or `None` if structurally invalid.
fn walk_options(seg: &[u8]) -> Option<Vec<(u8, Vec<u8>)>> {
    if seg.len() < TCP_HEADER_LEN {
        return None;
    }
    let data_offset = (seg[12] >> 4) as usize * 4;
    if data_offset < TCP_HEADER_LEN || data_offset > seg.len() {
        return None;
    }
    let opts = &seg[TCP_HEADER_LEN..data_offset];
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < opts.len() {
        match opts[i] {
            0 => break,
            1 => i += 1,
            kind => {
                if i + 1 >= opts.len() {
                    return None;
                }
                let len = opts[i + 1] as usize;
                if len < 2 || i + len > opts.len() {
                    return None;
                }
                out.push((kind, opts[i + 2..i + len].to_vec()));
                i += len;
            }
        }
    }
    Some(out)
}

/// `seg` cut short at every length, then `seg` with each byte in turn
/// XORed with `mask`.
fn cut_and_flipped(seg: &[u8], mask: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..seg.len()).map(|n| seg[..n].to_vec());
    let flips = (0..seg.len()).map(move |i| {
        let mut f = seg.to_vec();
        f[i] ^= mask;
        f
    });
    cuts.chain(flips)
}

proptest! {
    #[test]
    fn strip_removes_exactly_kind_30_and_preserves_the_rest(
        options in proptest::collection::vec(arb_option(), 0..4),
        payload in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        let seg = build_segment(&options, &payload);
        let n_mptcp = options.iter().filter(|(k, _)| *k == OPT_KIND_MPTCP).count();
        let kept: Vec<(u8, Vec<u8>)> = options
            .iter()
            .filter(|(k, _)| *k != OPT_KIND_MPTCP)
            .cloned()
            .collect();

        // The encoder's two parts are the hand-built bytes, and strip the
        // same; a stripped frame keeps the payload the encoder was given.
        let two = encode_segment(&options, &payload);
        prop_assert_eq!(two.to_vec(), seg.clone());
        prop_assert_eq!(strip(&two), strip(&one(&seg)));
        if let Some((out, _)) = strip_mptcp_options(&two) {
            prop_assert!(out.body().as_ptr() == two.body().as_ptr(), "strip copied the payload");
        }

        match strip(&one(&seg)) {
            None => {
                // Nothing to strip: only valid when the segment carries no
                // kind-30 option.
                prop_assert_eq!(n_mptcp, 0);
            }
            Some((out, n)) => {
                prop_assert!(n_mptcp > 0, "stripped a segment without kind-30");
                prop_assert_eq!(n as usize, n_mptcp);

                // Result still parses, and the survivors are byte-identical
                // in their original order.
                let walked = walk_options(&out);
                prop_assert!(walked.is_some(), "stripped segment must stay parseable");
                prop_assert_eq!(walked.unwrap(), kept.clone());

                // NOP padding is length-exact: data offset covers exactly
                // the kept options rounded up to 4, and every pad byte is a
                // NOP.
                let kept_len: usize = kept.iter().map(|(_, b)| 2 + b.len()).sum();
                let padded = kept_len.div_ceil(4) * 4;
                let data_offset = (out[12] >> 4) as usize * 4;
                prop_assert_eq!(data_offset, TCP_HEADER_LEN + padded);
                for &pad in &out[TCP_HEADER_LEN + kept_len..data_offset] {
                    prop_assert_eq!(pad, 1);
                }

                // Fixed header (minus data offset) and payload untouched.
                prop_assert_eq!(&out[..12], &seg[..12]);
                prop_assert_eq!(&out[13..TCP_HEADER_LEN], &seg[13..TCP_HEADER_LEN]);
                let orig_off = (seg[12] >> 4) as usize * 4;
                prop_assert_eq!(&out[data_offset..], &seg[orig_off..]);
            }
        }
    }

    #[test]
    fn strip_never_panics_on_byte_soup(soup in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = strip(&one(&soup));
    }

    /// The shared reader on damaged headers: it never panics, accepts
    /// exactly what the reference walk accepts and then yields the same
    /// `(kind, body)` pairs, and the oracle's framing, which is that
    /// reader, reports `tcp-parse` for exactly the frames it rejects.
    #[test]
    fn parse_agrees_with_the_reference_walk_and_the_oracle_on_damaged_headers(
        options in proptest::collection::vec(arb_option(), 0..4),
        payload in proptest::collection::vec(any::<u8>(), 0..20),
        mask in 1u8..=255,
    ) {
        let seg = build_segment(&options, &payload);
        for frame in cut_and_flipped(&seg, mask) {
            let parsed = TcpView::parse(&one(&frame))
                .map(|v| v.options().map(|(k, b)| (k, b.to_vec())).collect::<Vec<_>>());
            let walked = walk_options(&frame);
            let agree = parsed.as_ref().ok() == walked.as_ref();
            prop_assert!(agree, "{:?}: {:?} vs {:?}", frame, parsed, walked);
            let (src, dst) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
            let pkt = Packet::tcp(src, dst, Bytes::from(frame));
            let mut oracle = Oracle::new();
            oracle.record(&TraceEvent {
                at: SimTime::from_millis(1),
                kind: TraceKind::Send { node: NodeId(0), iface: IfaceId(0) },
                pkt: &pkt,
            });
            let flagged = oracle.violations().iter().any(|v| v.invariant == "tcp-parse");
            let frame = pkt.payload.to_vec();
            prop_assert!(flagged == parsed.is_err(), "{:?}: tcp-parse {}", frame, flagged);
        }
    }
}
