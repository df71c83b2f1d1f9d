//! Adversarial middlebox rewriters: byte-level TCP segment surgery.
//!
//! The option-stripping middlebox ([`crate::dynamics::strip_mptcp_options`])
//! models one deployment hazard; the paper's larger point is that the
//! internet path does *many* rude things to a TCP flow. This module holds
//! the pure byte-level halves of the adversarial family the [`crate::Router`]
//! can apply on its forwarding path:
//!
//! * **sequence-number rewriting** ([`rewrite_seq_ack`]) — what a NAT or
//!   load balancer does when it randomizes ISNs; MPTCP survives it because
//!   DSS subflow sequence numbers are relative (RFC 6824 §3.3),
//! * **segment splitting** ([`split_segment`]) — a segmentation-offload
//!   middlebox or a small-MTU tunnel re-segmenting the stream,
//! * **segment coalescing** ([`coalesce_pair`]) — LRO/GRO-style merging of
//!   contiguous in-flight segments.
//!
//! All three read the segment through the tree's one header reader,
//! [`TcpView::parse`], and follow the stripper's contract: anything it
//! rejects — a short frame, a bad data offset, or a valid data offset over
//! a malformed option area — passes through untouched (`None`), because a
//! middlebox must never corrupt what it cannot parse. They take seq, flags
//! and payload length from the view but copy every header byte they do not
//! change, reserved and unknown flag bits included, into a new head; NAT
//! and splitting share the payload, coalescing copies it. Splitting and
//! coalescing are restricted to segments with **no options area**: a DSS
//! mapping covers exactly one segment's payload, so re-segmenting an
//! option-bearing packet would forge mappings the endpoints never made
//! (and the wire oracle would rightly flag). After an option stripper has
//! normalized a flow — or on a plain-TCP fallback connection — data
//! segments are option-free and eligible.

use bytes::BytesMut;

use crate::packet::Frame;
use crate::wire::{TcpView, TCP_HEADER_LEN};

/// Rewrite sequence and acknowledgment numbers by the given wrapping
/// deltas — the observable effect of an ISN-randomizing NAT. The sequence
/// number always shifts by `seq_delta`; the acknowledgment shifts by
/// `ack_delta` only when the ACK flag is set (an unset ack field is
/// garbage and must stay untouched). Returns `None` when the segment does
/// not parse (pass through) or when both deltas are no-ops. Only the head
/// is rewritten; the payload is shared.
pub fn rewrite_seq_ack(p: &Frame, seq_delta: u32, ack_delta: u32) -> Option<Frame> {
    let hdr = TcpView::parse(p).ok()?.hdr;
    if seq_delta == 0 && (!hdr.flags.ack || ack_delta == 0) {
        return None;
    }
    Some(p.with_head(|out| {
        out[4..8].copy_from_slice(&hdr.seq.add(seq_delta).0.to_be_bytes());
        if hdr.flags.ack {
            out[8..12].copy_from_slice(&hdr.ack.sub(ack_delta).0.to_be_bytes());
        }
    }))
}

/// Split one option-free data segment into two contiguous halves, exactly
/// what a re-segmenting middlebox produces: the first half keeps the
/// original sequence number and loses FIN/PSH, the second half starts
/// `k` bytes later in sequence space and inherits the trailing flags.
/// Eligibility: parses, no options area, no SYN/RST, at least 2 payload
/// bytes. Each half gets a header of its own and a slice of the payload.
///
/// `buggy` is a **test-only** fault injection: the second half is emitted
/// with a corrupt data offset (claiming a zero-length header), which the
/// wire oracle must flag as `tcp-parse`. It exists so the fuzzer's
/// broken-build detection test has a deterministic rewriter bug to find.
pub fn split_segment(p: &Frame, buggy: bool) -> Option<(Frame, Frame)> {
    let seg = TcpView::parse(p).ok()?;
    if seg.header_len() != TCP_HEADER_LEN {
        return None; // options present: re-segmenting would forge DSS maps
    }
    if seg.hdr.flags.syn || seg.hdr.flags.rst || seg.payload.len() < 2 {
        return None;
    }
    let k = seg.payload.len() / 2;
    let (header, payload) = (&p.head()[..TCP_HEADER_LEN], p.slice_from(TCP_HEADER_LEN));

    let mut first = BytesMut::from(header);
    first[13] &= !0x09; // clear FIN|PSH: they travel with the tail

    let mut second = BytesMut::from(header);
    second[4..8].copy_from_slice(&seg.hdr.seq.add(k as u32).0.to_be_bytes());
    if buggy {
        second[12] &= 0x0F; // data offset 0: structurally invalid
    }
    Some((
        Frame::segment(first.freeze(), payload.slice(..k)),
        Frame::segment(second.freeze(), payload.slice(k..)),
    ))
}

/// Merge two contiguous option-free segments of the same flow into one —
/// LRO/GRO-style coalescing. `first` must immediately precede `second` in
/// sequence space; both must parse, carry no options area, and `first`
/// must be plain data (no SYN/FIN/RST). The merged segment keeps `first`'s
/// sequence number, takes `second`'s acknowledgment/window/flags (the
/// fresher cumulative state), and concatenates the payloads: the one
/// middlebox that copies payload bytes, into one new buffer.
pub fn coalesce_pair(first: &Frame, second: &Frame) -> Option<Frame> {
    let (a, b) = (TcpView::parse(first).ok()?, TcpView::parse(second).ok()?);
    if a.header_len() != TCP_HEADER_LEN || b.header_len() != TCP_HEADER_LEN {
        return None;
    }
    let (fa, fb) = (a.hdr.flags, b.hdr.flags);
    if fa.syn || fa.fin || fa.rst || fb.syn || fb.rst {
        return None; // first must be plain data; second may carry FIN
    }
    if a.payload.is_empty() || b.payload.is_empty() {
        return None;
    }
    if (a.hdr.src_port, a.hdr.dst_port) != (b.hdr.src_port, b.hdr.dst_port) {
        return None; // different flow (ports)
    }
    if a.hdr.seq.add(a.payload.len() as u32) != b.hdr.seq {
        return None; // not contiguous
    }
    let mut out = BytesMut::with_capacity(TCP_HEADER_LEN + a.payload.len() + b.payload.len());
    out.extend_from_slice(&second.head()[..TCP_HEADER_LEN]);
    out[4..8].copy_from_slice(&a.hdr.seq.0.to_be_bytes());
    out.extend_from_slice(a.payload);
    out.extend_from_slice(b.payload);
    Some(out.freeze().into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_parts, OptionWriter, TcpFixed, TcpFlags, MALFORMED_OPTION_AREA};
    use bytes::Bytes;

    /// A segment from port 4321 to 80: seq/ack/flags, the options in
    /// `opts`, then `payload`.
    fn seg_with(seq: u32, ack: u32, flags: TcpFlags, opts: &OptionWriter, payload: &[u8]) -> Frame {
        let hdr = TcpFixed {
            src_port: 4321,
            dst_port: 80,
            seq: seq.into(),
            ack: ack.into(),
            flags,
            window: 0,
        };
        encode_parts(&hdr, opts, Bytes::copy_from_slice(payload)).unwrap()
    }

    /// An option-free segment from port 4321 to 80.
    fn seg(seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]) -> Frame {
        seg_with(seq, ack, flags, &OptionWriter::new(), payload)
    }

    fn view(b: &Frame) -> TcpView<'_> {
        TcpView::parse(b).unwrap()
    }

    fn malformed() -> Frame {
        Bytes::from_static(&MALFORMED_OPTION_AREA).into()
    }

    #[test]
    fn seq_rewrite_shifts_and_round_trips() {
        let s = seg(1000, 500, TcpFlags::PSH_ACK, b"abc");
        let out = rewrite_seq_ack(&s, 7, 3).unwrap();
        assert_eq!(view(&out).hdr.seq.0, 1007);
        assert_eq!(view(&out).hdr.ack.0, 497);
        // Undo with the inverse deltas: byte-identical round trip.
        let back = rewrite_seq_ack(&out, 0u32.wrapping_sub(7), 0u32.wrapping_sub(3)).unwrap();
        assert_eq!(back.to_vec(), s.to_vec());
    }

    #[test]
    fn seq_rewrite_leaves_unset_ack_alone() {
        let s = seg(1000, 0xDEAD, TcpFlags::SYN, b""); // no ACK flag
        let out = rewrite_seq_ack(&s, 5, 9).unwrap();
        assert_eq!(view(&out).hdr.seq.0, 1005);
        assert_eq!(&out.head()[8..12], &s.head()[8..12], "ack field untouched");
        assert!(rewrite_seq_ack(&Bytes::from_static(b"shrt").into(), 5, 9).is_none());
    }

    #[test]
    fn split_preserves_bytes_and_sequence_space() {
        let fin_psh_ack = TcpFlags {
            fin: true,
            ..TcpFlags::PSH_ACK
        };
        let s = seg(2000, 900, fin_psh_ack, b"helloworld");
        let (a, b) = split_segment(&s, false).unwrap();
        assert_eq!(view(&a).hdr.seq.0, 2000);
        assert_eq!(view(&b).hdr.seq.0, 2005);
        assert_eq!(view(&a).payload, b"hello");
        assert_eq!(view(&b).payload, b"world");
        assert!(!view(&a).hdr.flags.fin, "FIN travels with the tail");
        assert!(view(&b).hdr.flags.fin);
        // Reassembling the halves gives back the original byte stream.
        let merged = coalesce_pair(&a, &b).unwrap();
        assert_eq!(view(&merged).payload, b"helloworld");
        assert_eq!(view(&merged).hdr.seq.0, 2000);
        assert!(view(&merged).hdr.flags.fin, "FIN survives the round trip");
    }

    #[test]
    fn split_rejects_ineligible_segments() {
        assert!(
            split_segment(&seg(1, 0, TcpFlags::SYN, b"xy"), false).is_none(),
            "SYN"
        );
        assert!(
            split_segment(&seg(1, 0, TcpFlags::RST, b"xy"), false).is_none(),
            "RST"
        );
        assert!(
            split_segment(&seg(1, 0, TcpFlags::ACK, b"x"), false).is_none(),
            "1 byte"
        );
        let mut opts = OptionWriter::new();
        opts.push(crate::wire::OPT_KIND_MSS, &1400u16.to_be_bytes());
        let with_opts = seg_with(1, 0, TcpFlags::PSH_ACK, &opts, b"abcd");
        assert!(split_segment(&with_opts, false).is_none(), "options");
        assert!(
            split_segment(&malformed(), false).is_none(),
            "malformed option area"
        );
    }

    #[test]
    fn buggy_split_corrupts_the_second_half() {
        let (a, b) = split_segment(&seg(1, 0, TcpFlags::PSH_ACK, b"abcd"), true).unwrap();
        assert_eq!(view(&a).header_len(), TCP_HEADER_LEN);
        assert!(TcpView::parse(&b).is_err(), "second half unparseable");
    }

    #[test]
    fn coalesce_requires_contiguity_and_same_flow() {
        let a = seg(100, 0, TcpFlags::ACK, b"ab");
        let gap = seg(103, 0, TcpFlags::ACK, b"cd");
        assert!(coalesce_pair(&a, &gap).is_none(), "gap");
        let mut other = seg(102, 0, TcpFlags::ACK, b"cd").to_vec();
        other[0] = 0xFF; // different source port
        let other = Bytes::from(other).into();
        assert!(coalesce_pair(&a, &other).is_none(), "different flow");
        assert!(
            coalesce_pair(&a, &malformed()).is_none(),
            "malformed option area"
        );
        let b = seg(102, 77, TcpFlags::PSH_ACK, b"cd");
        let m = coalesce_pair(&a, &b).unwrap();
        assert_eq!(view(&m).payload.len(), 4);
        assert_eq!(view(&m).hdr.ack.0, 77, "fresher ack wins");
    }
}
