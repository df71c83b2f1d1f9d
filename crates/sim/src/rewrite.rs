//! Middlebox rewriters: the byte-level TCP segment surgery behind the
//! [`crate::Stage`]s a [`crate::Router`] applies on its forwarding path:
//!
//! * **option stripping** ([`strip_mptcp_options`]) — a middlebox that
//!   normalizes unknown options, the hazard MPTCP's fallback exists for,
//! * **sequence-number rewriting** ([`rewrite_seq_ack`]) — what a NAT or
//!   load balancer does when it randomizes ISNs; MPTCP survives it because
//!   DSS subflow sequence numbers are relative (RFC 6824 §3.3),
//! * **segment splitting** ([`split_segment`]) — a segmentation-offload
//!   middlebox or a small-MTU tunnel re-segmenting the stream,
//! * **segment coalescing** ([`coalesce_pair`]) — LRO/GRO-style merging of
//!   contiguous in-flight segments.
//!
//! All four read the segment through the tree's one header reader,
//! [`TcpView::parse`]: anything it rejects — a short frame, a bad data
//! offset, or a valid data offset over a malformed option area — passes
//! through untouched (`None`), because a middlebox must never corrupt
//! what it cannot parse. They take seq, flags and payload length from the
//! view but copy every header byte they do not change, reserved and
//! unknown flag bits included, into a new head; all but coalescing share
//! the payload. Splitting and coalescing are restricted to segments with
//! **no options area**: a DSS mapping covers exactly one segment's
//! payload, so re-segmenting an option-bearing packet would forge
//! mappings the endpoints never made (and the wire oracle would rightly
//! flag). After an option stripper has normalized a flow — or on a
//! plain-TCP fallback connection — data segments are option-free and
//! eligible.

use bytes::BytesMut;

use crate::packet::Frame;
use crate::wire::{OptionWriter, TcpView, OPT_KIND_MPTCP, TCP_HEADER_LEN};

/// Strip every MPTCP option (kind 30) from a raw TCP segment.
///
/// `frame` is the L4 bytes of a [`crate::Packet`] with `proto ==`
/// [`crate::PROTO_TCP`]. Returns the rewritten segment, a new header in
/// front of the same payload bytes, plus the number of
/// options removed, or `None` when there is nothing to strip — the segment
/// carries no kind-30 option, or [`TcpView::parse`] rejects it (a
/// middlebox must never corrupt what it cannot parse).
///
/// Remaining options are re-packed in order through an [`OptionWriter`],
/// which NOP-pads them to a 4-byte boundary; the data offset is rewritten
/// accordingly. All other header bits, reserved ones included, and the
/// application payload pass through untouched — exactly the behaviour of a
/// protocol-normalizing middlebox that "cleans" unknown TCP options while
/// forwarding the connection itself.
pub fn strip_mptcp_options(frame: &Frame) -> Option<(Frame, u32)> {
    let seg = TcpView::parse(frame).ok()?;
    let mut kept = OptionWriter::new();
    let mut stripped = 0u32;
    for (kind, body) in seg.options() {
        if kind == OPT_KIND_MPTCP {
            stripped += 1;
        } else {
            kept.push(kind, body);
        }
    }
    if stripped == 0 {
        return None;
    }
    // The survivors came out of a valid 40-byte area: they fit in one.
    let area = kept.padded().ok()?;
    let fixed = &frame.head()[..TCP_HEADER_LEN];
    let mut head = BytesMut::with_capacity(TCP_HEADER_LEN + area.len());
    head.extend_from_slice(fixed);
    head.extend_from_slice(area);
    head[12] = (((TCP_HEADER_LEN + area.len()) / 4) as u8) << 4 | (fixed[12] & 0x0F);
    let payload = frame.slice_from(seg.header_len());
    Some((Frame::segment(head.freeze(), payload), stripped))
}

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
    use crate::wire::{
        encode_parts, TcpFixed, TcpFlags, MALFORMED_OPTION_AREA, OPT_KIND_MSS,
        OPT_KIND_WINDOW_SCALE,
    };
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

    /// `seg` as a one-part frame, then stripped, the result copied out.
    fn strip(seg: &[u8]) -> Option<(Vec<u8>, u32)> {
        let frame = Bytes::copy_from_slice(seg).into();
        strip_mptcp_options(&frame).map(|(out, n)| (out.to_vec(), n))
    }

    /// A PSH|ACK segment from port 4321 to 80 carrying `options` (kind,
    /// body) NOP-padded by the writer, then `payload`.
    fn tcp_seg(options: &[(u8, &[u8])], payload: &[u8]) -> Vec<u8> {
        let mut opts = OptionWriter::new();
        for (kind, body) in options {
            opts.push(*kind, body);
        }
        seg_with(0, 0, TcpFlags::PSH_ACK, &opts, payload).to_vec()
    }

    #[test]
    fn strip_removes_only_kind_30() {
        // MSS (4) + MPTCP dss-ish (4) + WScale (3, then one NOP of padding).
        let seg = tcp_seg(
            &[
                (OPT_KIND_MSS, &1460u16.to_be_bytes()),
                (OPT_KIND_MPTCP, &[0x20, 0x00]),
                (OPT_KIND_WINDOW_SCALE, &[7]),
            ],
            b"hello",
        );
        let (out, n) = strip(&seg).expect("stripped");
        assert_eq!(n, 1);
        // Survivors: MSS(4) + WScale(3) -> 7 -> padded to 8.
        assert_eq!((out[12] >> 4) as usize * 4, TCP_HEADER_LEN + 8);
        assert_eq!(
            &out[TCP_HEADER_LEN..TCP_HEADER_LEN + 7],
            &[2, 4, 0x05, 0xB4, 3, 3, 7]
        );
        assert_eq!(out[TCP_HEADER_LEN + 7], 1, "NOP padded");
        assert_eq!(&out[out.len() - 5..], b"hello");
        // Ports and flags untouched.
        assert_eq!(&out[..12], &seg[..12]);
        assert_eq!(out[13], seg[13]);
    }

    #[test]
    fn strip_is_noop_without_mptcp_options() {
        let seg = tcp_seg(&[(OPT_KIND_MSS, &1460u16.to_be_bytes())], b"data");
        assert!(strip(&seg).is_none());
        assert!(strip(b"short").is_none());
    }

    #[test]
    fn strip_passes_malformed_segments_through() {
        // Option with length 0 — unparseable; middlebox must not touch it.
        assert!(strip(&crate::wire::MALFORMED_OPTION_AREA).is_none());
        // Bad data offset.
        let mut seg = tcp_seg(&[], b"x");
        seg[12] = 0xF0;
        assert!(strip(&seg).is_none());
    }

    #[test]
    fn strip_handles_multiple_mptcp_options_and_eol() {
        let mut seg = tcp_seg(
            &[(OPT_KIND_MPTCP, &[0x20, 0x00]), (OPT_KIND_MPTCP, &[0x50])],
            b"zz",
        );
        // EOL where the writer put its NOP pad: the rest is padding.
        seg[TCP_HEADER_LEN + 7] = 0;
        let (out, n) = strip(&seg).expect("stripped");
        assert_eq!(n, 2);
        assert_eq!(
            (out[12] >> 4) as usize * 4,
            TCP_HEADER_LEN,
            "no options left"
        );
        assert_eq!(&out[TCP_HEADER_LEN..], b"zz");
    }
}
