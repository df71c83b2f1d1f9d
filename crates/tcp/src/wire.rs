//! TCP segment wire format: the owned form.
//!
//! The header codec itself, the one reader ([`TcpView::parse`]) and the one
//! writer ([`OptionWriter`] and [`encode_parts`]), lives in
//! [`smapp_sim::wire`], because the simulator's oracle, option stripper,
//! rewriters and flood source read the same bytes; it is re-exported here
//! unchanged for the stack.
//!
//! Multipath TCP options (option kind 30, RFC 6824) are carried as an
//! opaque subtype payload at this layer; the `smapp-mptcp` crate owns the
//! subtype codec. This mirrors the real-world layering where TCP option
//! parsing and MPTCP option semantics live in different parts of the stack.
//!
//! [`TcpSegment`] is the owned form for tests, trace tools and the
//! benchmark; its `decode` and `encode` are that reader and that writer.

use bytes::{BufMut, Bytes};
pub use smapp_sim::wire::{
    encode_parts, OptionWriter, TcpFixed, TcpFlags, TcpView, WireError, MAX_OPTIONS_LEN,
    OPT_KIND_MPTCP, OPT_KIND_MSS, OPT_KIND_WINDOW_SCALE, TCP_HEADER_LEN,
};
use smapp_sim::wire::{OPT_KIND_SACK_PERMITTED, OPT_KIND_TIMESTAMPS};
use smapp_sim::Frame;

use crate::seq::SeqNum;

/// Largest window-scale shift a peer may use (RFC 7323 §2.3): a larger
/// announced value is read as this one.
pub const MAX_WINDOW_SCALE: u8 = 14;

/// Maximum bytes of a single option body (40 minus kind and length octets).
pub const MAX_OPT_BODY_LEN: usize = MAX_OPTIONS_LEN - 2;

/// An option body stored inline, without a heap allocation.
///
/// TCP limits the whole options area to 40 bytes, so a single option body
/// can never exceed 38 — small enough to carry by value. This keeps the
/// per-segment hot path (one DSS option per data segment and per ACK) free
/// of `Bytes`/`Vec` churn.
#[derive(Clone, Copy)]
pub struct OptBytes {
    data: [u8; MAX_OPT_BODY_LEN],
    len: u8,
}

impl OptBytes {
    /// Empty body.
    pub const fn new() -> Self {
        OptBytes {
            data: [0; MAX_OPT_BODY_LEN],
            len: 0,
        }
    }

    /// Copy a slice in. Panics if `s` exceeds [`MAX_OPT_BODY_LEN`] — the
    /// decoder can never produce that (option length is bounded by the
    /// 40-byte area), so a panic here flags a construction bug.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        assert!(s.len() <= MAX_OPT_BODY_LEN, "option body exceeds 38 bytes");
        let mut b = OptBytes::new();
        b.data[..s.len()].copy_from_slice(s);
        b.len = s.len() as u8;
        b
    }

    /// The stored bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }

    /// Append bytes. Panics on overflow past [`MAX_OPT_BODY_LEN`].
    #[inline]
    pub fn push_slice(&mut self, s: &[u8]) {
        let at = self.len as usize;
        assert!(at + s.len() <= MAX_OPT_BODY_LEN, "option body overflow");
        self.data[at..at + s.len()].copy_from_slice(s);
        self.len += s.len() as u8;
    }
}

impl Default for OptBytes {
    fn default() -> Self {
        OptBytes::new()
    }
}

impl BufMut for OptBytes {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.push_slice(src);
    }
}

impl std::ops::Deref for OptBytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for OptBytes {
    fn from(s: &[u8]) -> Self {
        OptBytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for OptBytes {
    fn from(s: &[u8; N]) -> Self {
        OptBytes::copy_from_slice(s)
    }
}

impl PartialEq for OptBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OptBytes {}

impl std::fmt::Debug for OptBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_slice())
    }
}

/// A TCP option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), SYN-only.
    Mss(u16),
    /// Window scale shift (kind 3), SYN-only.
    WindowScale(u8),
    /// SACK permitted (kind 4); parsed but unused by this engine.
    SackPermitted,
    /// Timestamps (kind 8): value and echo reply.
    Timestamps {
        /// TSval.
        val: u32,
        /// TSecr.
        ecr: u32,
    },
    /// A Multipath TCP option (kind 30); the payload starts with the
    /// 4-bit subtype and is owned by the MPTCP layer.
    Mptcp(OptBytes),
    /// Any option this engine does not understand; round-trips unchanged.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Option payload (excluding kind and length bytes).
        data: OptBytes,
    },
}

/// Maximum number of options one header can carry: every parsed option
/// consumes at least 2 of the 40 option bytes (NOP/EOL are skipped by the
/// decoder, not stored).
pub const MAX_TCP_OPTIONS: usize = MAX_OPTIONS_LEN / 2;

/// A fixed-capacity, inline list of TCP options: the options of the owned
/// [`TcpSegment`].
///
/// Allocation-free, but 884 bytes; the stack's per-packet path uses
/// [`TcpView`] and [`OptionWriter`] instead. Capacity [`MAX_TCP_OPTIONS`]
/// is enough for any wire-valid header, so `push` can only panic on a
/// construction bug.
#[derive(Clone, Copy)]
pub struct TcpOptions {
    opts: [TcpOption; MAX_TCP_OPTIONS],
    len: u8,
}

impl TcpOptions {
    const FILL: TcpOption = TcpOption::SackPermitted;

    /// Empty list.
    pub const fn new() -> Self {
        TcpOptions {
            opts: [Self::FILL; MAX_TCP_OPTIONS],
            len: 0,
        }
    }

    /// Append an option. Panics past [`MAX_TCP_OPTIONS`].
    pub fn push(&mut self, opt: TcpOption) {
        let at = self.len as usize;
        assert!(at < MAX_TCP_OPTIONS, "too many TCP options");
        self.opts[at] = opt;
        self.len += 1;
    }

    /// The stored options, in wire order.
    pub fn as_slice(&self) -> &[TcpOption] {
        &self.opts[..self.len as usize]
    }
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions::new()
    }
}

impl std::ops::Deref for TcpOptions {
    type Target = [TcpOption];
    fn deref(&self) -> &[TcpOption] {
        self.as_slice()
    }
}

impl<const N: usize> From<[TcpOption; N]> for TcpOptions {
    fn from(arr: [TcpOption; N]) -> Self {
        arr.into_iter().collect()
    }
}

impl FromIterator<TcpOption> for TcpOptions {
    fn from_iter<I: IntoIterator<Item = TcpOption>>(iter: I) -> Self {
        let mut o = TcpOptions::new();
        for opt in iter {
            o.push(opt);
        }
        o
    }
}

impl<'a> IntoIterator for &'a TcpOptions {
    type Item = &'a TcpOption;
    type IntoIter = std::slice::Iter<'a, TcpOption>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for TcpOptions {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TcpOptions {}

impl std::fmt::Debug for TcpOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl TcpOption {
    /// Encoded size in bytes, including kind and length octets.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Mptcp(b) => 2 + b.len(),
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    /// The typed form of one `(kind, body)` pair of a validated options
    /// area; a known kind with an unexpected length stays `Unknown`.
    fn from_wire(kind: u8, body: &[u8]) -> TcpOption {
        match (kind, body) {
            (OPT_KIND_MSS, &[hi, lo]) => TcpOption::Mss(u16::from_be_bytes([hi, lo])),
            (OPT_KIND_WINDOW_SCALE, &[shift]) => TcpOption::WindowScale(shift),
            (OPT_KIND_SACK_PERMITTED, []) => TcpOption::SackPermitted,
            (OPT_KIND_TIMESTAMPS, &[a, b, c, d, e, f, g, h]) => TcpOption::Timestamps {
                val: u32::from_be_bytes([a, b, c, d]),
                ecr: u32::from_be_bytes([e, f, g, h]),
            },
            (OPT_KIND_MPTCP, _) => TcpOption::Mptcp(OptBytes::copy_from_slice(body)),
            _ => TcpOption::Unknown {
                kind,
                data: OptBytes::copy_from_slice(body),
            },
        }
    }

    fn write_to(&self, w: &mut OptionWriter) {
        match self {
            TcpOption::Mss(v) => w.push(OPT_KIND_MSS, &v.to_be_bytes()),
            TcpOption::WindowScale(s) => w.push(OPT_KIND_WINDOW_SCALE, &[*s]),
            TcpOption::SackPermitted => w.push(OPT_KIND_SACK_PERMITTED, &[]),
            TcpOption::Timestamps { val, ecr } => {
                let both = (u64::from(*val) << 32 | u64::from(*ecr)).to_be_bytes();
                w.push(OPT_KIND_TIMESTAMPS, &both);
            }
            TcpOption::Mptcp(b) => w.push(OPT_KIND_MPTCP, b),
            TcpOption::Unknown { kind, data } => w.push(*kind, data),
        }
    }
}

/// A decoded TCP header.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number (meaningful when `flags.ack`).
    pub ack: SeqNum,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window (possibly scaled by a negotiated shift).
    pub window: u16,
    /// Options, in wire order.
    pub options: TcpOptions,
}

/// A full TCP segment, owned: header plus payload bytes. For tests, trace
/// tools and the benchmark; the stack reads [`TcpView`]s and writes with
/// [`encode_parts`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TcpSegment {
    /// The header.
    pub hdr: TcpHeader,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// First MPTCP option payload, if any.
    pub fn mptcp_opt(&self) -> Option<&OptBytes> {
        self.mptcp_opts().next()
    }

    /// All MPTCP option payloads, in wire order (a segment may carry e.g.
    /// a DSS and an ADD_ADDR together).
    pub fn mptcp_opts(&self) -> impl Iterator<Item = &OptBytes> {
        self.hdr.options.iter().filter_map(|o| match o {
            TcpOption::Mptcp(b) => Some(b),
            _ => None,
        })
    }

    /// Encode to a frame, through [`OptionWriter`] and [`encode_parts`]:
    /// the frame's body shares the storage of `self.payload`.
    ///
    /// # Errors
    /// [`WireError::OptionsTooLong`] if the options exceed 40 bytes.
    pub fn encode(&self) -> Result<Frame, WireError> {
        let mut opts = OptionWriter::new();
        for opt in &self.hdr.options {
            opt.write_to(&mut opts);
        }
        encode_parts(&self.hdr.fixed(), &opts, self.payload.clone())
    }

    /// Decode from a frame: [`TcpView::parse`], then the options
    /// collected into inline storage. Allocation-free; the payload aliases
    /// the frame ([`Frame::slice_from`]).
    pub fn decode(b: &Frame) -> Result<TcpSegment, WireError> {
        let v = TcpView::parse(b)?;
        let f = v.hdr;
        Ok(TcpSegment {
            hdr: TcpHeader {
                src_port: f.src_port,
                dst_port: f.dst_port,
                seq: f.seq,
                ack: f.ack,
                flags: f.flags,
                window: f.window,
                options: v
                    .options()
                    .map(|(kind, body)| TcpOption::from_wire(kind, body))
                    .collect(),
            },
            payload: b.slice_from(v.header_len()),
        })
    }
}

impl TcpHeader {
    /// The fixed fields, without the options.
    pub fn fixed(&self) -> TcpFixed {
        TcpFixed {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes` as a one-part frame.
    fn frame(bytes: Vec<u8>) -> Frame {
        Bytes::from(bytes).into()
    }

    fn sample_header() -> TcpHeader {
        TcpHeader {
            src_port: 43210,
            dst_port: 80,
            seq: SeqNum(0xDEAD_BEEF),
            ack: SeqNum(0x0102_0304),
            flags: TcpFlags::SYN_ACK,
            window: 65_535,
            options: TcpOptions::from([
                TcpOption::Mss(1400),
                TcpOption::WindowScale(7),
                TcpOption::Mptcp(OptBytes::from(&[0x00, 0x81, 1, 2, 3, 4, 5, 6, 7, 8])),
            ]),
        }
    }

    #[test]
    fn roundtrip_with_options_and_payload() {
        let seg = TcpSegment {
            hdr: sample_header(),
            payload: Bytes::from_static(b"hello world"),
        };
        let wire = seg.encode().unwrap();
        let back = TcpSegment::decode(&wire).unwrap();
        assert_eq!(back, seg);
        // MSS 4 + window scale 3 + MPTCP 12 bytes, padded to 20.
        assert_eq!(wire.len(), TCP_HEADER_LEN + 20 + 11);
    }

    #[test]
    fn roundtrip_no_options() {
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: 1,
                dst_port: 2,
                flags: TcpFlags::ACK,
                ..Default::default()
            },
            payload: Bytes::from_static(&[9; 100]),
        };
        let wire = seg.encode().unwrap();
        assert_eq!(wire.len(), 120);
        assert_eq!(TcpSegment::decode(&wire).unwrap(), seg);
    }

    #[test]
    fn ports_lead_the_wire_format() {
        // The simulator peeks ports from the first 4 payload bytes of a
        // packet; guarantee the layout.
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: 0x1234,
                dst_port: 0x5678,
                ..Default::default()
            },
            payload: Bytes::new(),
        };
        let wire = seg.encode().unwrap();
        assert_eq!(&wire.head()[..4], &[0x12, 0x34, 0x56, 0x78]);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(
            TcpSegment::decode(&frame(vec![0u8; 10])),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_bad_offset() {
        let mut wire = vec![0u8; 20];
        wire[12] = 4 << 4; // data offset 16 < 20
        assert_eq!(
            TcpSegment::decode(&frame(wire)),
            Err(WireError::BadDataOffset)
        );
        let mut wire = vec![0u8; 20];
        wire[12] = 15 << 4; // data offset 60 > buffer
        assert_eq!(
            TcpSegment::decode(&frame(wire)),
            Err(WireError::BadDataOffset)
        );
    }

    #[test]
    fn decode_rejects_bad_option_len() {
        let seg = TcpSegment {
            hdr: TcpHeader {
                options: TcpOptions::from([TcpOption::Mss(1400)]),
                ..Default::default()
            },
            payload: Bytes::new(),
        };
        let mut wire = seg.encode().unwrap().to_vec();
        wire[21] = 0; // MSS option length = 0
        assert_eq!(
            TcpSegment::decode(&frame(wire.clone())),
            Err(WireError::BadOptionLength)
        );
        wire[21] = 40; // overruns header
        assert_eq!(
            TcpSegment::decode(&frame(wire)),
            Err(WireError::BadOptionLength)
        );
    }

    #[test]
    fn decode_payload_aliases_the_frame_allocation() {
        // Zero-copy both ways: the frame's body is the payload the segment
        // was encoded from, and the decoded payload is that body, not a
        // fresh copy. (Option bodies are parsed into inline fixed-size
        // storage instead — 38 bytes at most — so the decode path performs
        // no allocation at all.)
        let seg = TcpSegment {
            hdr: sample_header(),
            payload: Bytes::from(vec![0xAB; 1400]),
        };
        let wire = seg.encode().unwrap();
        assert_eq!(wire.body().as_ptr(), seg.payload.as_ptr());
        assert_eq!(wire.head().len(), TCP_HEADER_LEN + 20);
        let back = TcpSegment::decode(&wire).unwrap();
        assert_eq!(back.payload.as_ptr(), seg.payload.as_ptr());
        assert_eq!(back.payload.len(), 1400);

        // A one-part frame: the payload is a slice of it, just past the
        // header.
        let whole = frame(wire.to_vec());
        let back = TcpSegment::decode(&whole).unwrap();
        assert_eq!(
            back.payload.as_ptr(),
            whole.head()[TCP_HEADER_LEN + 20..].as_ptr()
        );

        // Option bodies still round-trip byte-for-byte.
        let opt = back.mptcp_opt().unwrap();
        assert_eq!(opt.as_slice(), &[0x00, 0x81, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn encode_rejects_oversized_options() {
        // No single option body can exceed 38 bytes (that is a
        // construction panic, not a wire error), but several legal options
        // together can still blow the 40-byte area.
        let big = TcpOption::Unknown {
            kind: 99,
            data: OptBytes::from(&[0u8; 20]),
        };
        let seg = TcpSegment {
            hdr: TcpHeader {
                options: TcpOptions::from([big, big]),
                ..Default::default()
            },
            payload: Bytes::new(),
        };
        assert_eq!(seg.encode().err(), Some(WireError::OptionsTooLong));
    }

    #[test]
    fn option_writer_holds_exactly_forty_bytes() {
        let mut w = OptionWriter::new();
        w.push(99, &[0; 18]);
        w.push(99, &[0; 18]);
        let full = encode_parts(&TcpFixed::default(), &w, Bytes::new()).unwrap();
        assert_eq!(full.len(), TCP_HEADER_LEN + MAX_OPTIONS_LEN);
        w.push(OPT_KIND_SACK_PERMITTED, &[]);
        assert_eq!(
            encode_parts(&TcpFixed::default(), &w, Bytes::new()).err(),
            Some(WireError::OptionsTooLong)
        );
    }

    #[test]
    fn view_walk_skips_nops_and_stops_at_end_of_list() {
        let mut wire = vec![0u8; 20];
        // Data offset 8 words: 12 bytes of options. A NOP, a 4-byte MPTCP
        // option, EOL, then bytes the walk never reads.
        wire[12] = 8 << 4;
        wire.extend_from_slice(&[1, 30, 4, 0xAB, 0xCD, 0, 99, 2, 7, 7, 7, 7]);
        wire.extend_from_slice(b"data");
        let frame = frame(wire);
        let view = TcpView::parse(&frame).unwrap();
        assert_eq!(
            view.options().collect::<Vec<_>>(),
            [(OPT_KIND_MPTCP, &[0xAB, 0xCD][..])]
        );
        assert_eq!(view.mptcp_opts().collect::<Vec<_>>(), [&[0xAB, 0xCD][..]]);
        assert_eq!(view.payload, b"data");
    }

    #[test]
    #[should_panic(expected = "option body exceeds 38 bytes")]
    fn oversized_option_body_panics_at_construction() {
        let _ = OptBytes::copy_from_slice(&[0u8; 39]);
    }

    #[test]
    fn unknown_options_roundtrip() {
        let seg = TcpSegment {
            hdr: TcpHeader {
                options: TcpOptions::from([TcpOption::Unknown {
                    kind: 254,
                    data: OptBytes::from(&[1, 2, 3]),
                }]),
                ..Default::default()
            },
            payload: Bytes::new(),
        };
        let wire = seg.encode().unwrap();
        assert_eq!(TcpSegment::decode(&wire).unwrap(), seg);
    }

    #[test]
    fn mptcp_opt_accessor() {
        let seg = TcpSegment {
            hdr: sample_header(),
            payload: Bytes::new(),
        };
        assert!(seg.mptcp_opt().is_some());
        let none = TcpSegment::default();
        assert!(none.mptcp_opt().is_none());
    }

    #[test]
    fn nop_padding_parses() {
        // WindowScale alone (3 bytes) forces one NOP of padding.
        let seg = TcpSegment {
            hdr: TcpHeader {
                options: TcpOptions::from([TcpOption::WindowScale(2)]),
                ..Default::default()
            },
            payload: Bytes::from_static(b"x"),
        };
        let wire = seg.encode().unwrap();
        assert_eq!(wire.len(), 20 + 4 + 1);
        let back = TcpSegment::decode(&wire).unwrap();
        assert_eq!(back.hdr.options, seg.hdr.options);
        assert_eq!(back.payload, seg.payload);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use crate::check::StreamTap;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The flags a header byte carries, bit by bit as RFC 793 lays them out.
    fn flags_of(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }

    fn arb_option() -> impl Strategy<Value = TcpOption> {
        prop_oneof![
            any::<u16>().prop_map(TcpOption::Mss),
            (0u8..15).prop_map(TcpOption::WindowScale),
            Just(TcpOption::SackPermitted),
            (any::<u32>(), any::<u32>()).prop_map(|(val, ecr)| TcpOption::Timestamps { val, ecr }),
            proptest::collection::vec(any::<u8>(), 0..18)
                .prop_map(|v| TcpOption::Mptcp(OptBytes::from(&v[..]))),
            (5u8..=253, proptest::collection::vec(any::<u8>(), 0..10))
                .prop_filter("kinds with dedicated decodings", |(kind, data)| {
                    *kind != OPT_KIND_MPTCP && !(*kind == 8 && data.len() == 8)
                })
                .prop_map(|(kind, data)| TcpOption::Unknown {
                    kind,
                    data: OptBytes::from(&data[..]),
                }),
        ]
    }

    fn arb_segment() -> impl Strategy<Value = TcpSegment> {
        (
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(arb_option(), 0..3),
            proptest::collection::vec(any::<u8>(), 0..200),
        )
            .prop_map(
                |(sp, dp, seq, ack, flags, window, options, payload)| TcpSegment {
                    hdr: TcpHeader {
                        src_port: sp,
                        dst_port: dp,
                        seq: SeqNum(seq),
                        ack: SeqNum(ack),
                        flags: flags_of(flags),
                        window,
                        options: options.iter().copied().collect(),
                    },
                    payload: Bytes::from(payload),
                },
            )
    }

    /// The original decoder, kept as a reference model: identical parsing
    /// logic, but the payload is copied out into its own allocation and
    /// options are accumulated through a plain `Vec` before conversion.
    fn copying_decode(b: &[u8]) -> Result<TcpSegment, WireError> {
        if b.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_offset = (b[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > b.len() {
            return Err(WireError::BadDataOffset);
        }
        let mut options: Vec<TcpOption> = Vec::new();
        let mut i = TCP_HEADER_LEN;
        while i < data_offset {
            let kind = b[i];
            match kind {
                0 => break,
                1 => i += 1,
                _ => {
                    if i + 1 >= data_offset {
                        return Err(WireError::BadOptionLength);
                    }
                    let len = b[i + 1] as usize;
                    if len < 2 || i + len > data_offset {
                        return Err(WireError::BadOptionLength);
                    }
                    let body = &b[i + 2..i + len];
                    let opt = match (kind, len) {
                        (2, 4) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
                        (3, 3) => TcpOption::WindowScale(body[0]),
                        (4, 2) => TcpOption::SackPermitted,
                        (8, 10) => TcpOption::Timestamps {
                            val: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            ecr: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        },
                        (OPT_KIND_MPTCP, _) => TcpOption::Mptcp(OptBytes::from(body)),
                        _ => TcpOption::Unknown {
                            kind,
                            data: OptBytes::from(body),
                        },
                    };
                    options.push(opt);
                    i += len;
                }
            }
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            seq: SeqNum(u32::from_be_bytes([b[4], b[5], b[6], b[7]])),
            ack: SeqNum(u32::from_be_bytes([b[8], b[9], b[10], b[11]])),
            flags: flags_of(b[13]),
            window: u16::from_be_bytes([b[14], b[15]]),
            options: options.iter().copied().collect(),
        };
        Ok(TcpSegment {
            hdr,
            payload: Bytes::from(b[data_offset..].to_owned()),
        })
    }

    /// The encoder as it was before a frame had two parts, kept as a
    /// reference model: header, options NOP-padded to a 4-byte boundary
    /// and payload, written by hand into one buffer.
    fn contiguous_encode(seg: &TcpSegment) -> Vec<u8> {
        let h = &seg.hdr;
        let mut area = Vec::new();
        for opt in &h.options {
            let (kind, body) = match *opt {
                TcpOption::Mss(v) => (OPT_KIND_MSS, v.to_be_bytes().to_vec()),
                TcpOption::WindowScale(s) => (OPT_KIND_WINDOW_SCALE, vec![s]),
                TcpOption::SackPermitted => (OPT_KIND_SACK_PERMITTED, vec![]),
                TcpOption::Timestamps { val, ecr } => (
                    OPT_KIND_TIMESTAMPS,
                    [val.to_be_bytes(), ecr.to_be_bytes()].concat(),
                ),
                TcpOption::Mptcp(b) => (OPT_KIND_MPTCP, b.to_vec()),
                TcpOption::Unknown { kind, data } => (kind, data.to_vec()),
            };
            area.extend_from_slice(&[kind, 2 + body.len() as u8]);
            area.extend_from_slice(&body);
        }
        area.resize(area.len().div_ceil(4) * 4, 1); // NOP
        let flags = (h.flags.fin as u8)
            | (h.flags.syn as u8) << 1
            | (h.flags.rst as u8) << 2
            | (h.flags.psh as u8) << 3
            | (h.flags.ack as u8) << 4;
        let mut b = Vec::new();
        b.extend_from_slice(&h.src_port.to_be_bytes());
        b.extend_from_slice(&h.dst_port.to_be_bytes());
        b.extend_from_slice(&h.seq.0.to_be_bytes());
        b.extend_from_slice(&h.ack.0.to_be_bytes());
        b.extend_from_slice(&[(((TCP_HEADER_LEN + area.len()) / 4) as u8) << 4, flags]);
        b.extend_from_slice(&h.window.to_be_bytes());
        b.extend_from_slice(&[0; 4]); // checksum, urgent pointer
        b.extend_from_slice(&area);
        b.extend_from_slice(&seg.payload);
        b
    }

    /// [`TcpView::parse`] against the reference model: the same error, or
    /// the same fixed fields, options and payload.
    fn view_matches_copying_decode(wire: &Frame) -> Result<(), TestCaseError> {
        match (TcpView::parse(wire), copying_decode(&wire.to_vec())) {
            (Ok(view), Ok(seg)) => {
                prop_assert_eq!(view.hdr, seg.hdr.fixed());
                let opts: TcpOptions = view
                    .options()
                    .map(|(kind, body)| TcpOption::from_wire(kind, body))
                    .collect();
                prop_assert_eq!(opts, seg.hdr.options);
                prop_assert_eq!(view.payload, &seg.payload[..]);
            }
            (Err(e), Err(reference)) => prop_assert_eq!(e, reference),
            (view, reference) => prop_assert!(
                false,
                "parse {:?} but the reference model {:?}",
                view.map(|v| v.hdr),
                reference.map(|s| s.hdr.fixed())
            ),
        }
        Ok(())
    }

    proptest! {
        /// A two-part frame holds the bytes the one-buffer encoder wrote:
        /// header and options in the head, the payload in the body sharing
        /// the caller's storage. The view reads it as it reads those bytes
        /// in one part, and a tap fed its two parts, after any lead-in that
        /// moves where the digest's blocks fall, digests what a tap fed the
        /// bytes at once does.
        #[test]
        fn two_part_frames_hold_the_contiguous_encoding(
            seg in arb_segment(),
            lead in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let raw: usize = seg.hdr.options.iter().map(|o| o.wire_len()).sum();
            prop_assume!(raw <= MAX_OPTIONS_LEN);
            let frame = seg.encode().unwrap();
            let reference = contiguous_encode(&seg);
            prop_assert_eq!(frame.to_vec(), reference.clone());
            prop_assert_eq!(frame.head().len(), reference.len() - seg.payload.len());
            prop_assert!(frame.body().as_ptr() == seg.payload.as_ptr(), "the body is a copy");

            let whole = Frame::from(Bytes::from(reference.clone()));
            let (two, one) = (TcpView::parse(&frame).unwrap(), TcpView::parse(&whole).unwrap());
            prop_assert_eq!(two.hdr, one.hdr);
            prop_assert_eq!(two.header_len(), one.header_len());
            prop_assert_eq!(two.options().collect::<Vec<_>>(), one.options().collect::<Vec<_>>());
            prop_assert_eq!(two.payload, one.payload);

            let (mut parts, mut at_once) = (StreamTap::new(), StreamTap::new());
            parts.update(&lead[..]);
            parts.update(&frame);
            at_once.update(&lead[..]);
            at_once.update(&reference[..]);
            prop_assert_eq!(
                (parts.count(), parts.digest()),
                (at_once.count(), at_once.digest())
            );
        }

        #[test]
        fn encode_decode_roundtrip(seg in arb_segment()) {
            prop_assume!(seg.hdr.options.iter().map(|o| o.wire_len()).sum::<usize>() <= 38);
            let wire = seg.encode().unwrap();
            let back = TcpSegment::decode(&wire).unwrap();
            prop_assert_eq!(back, seg);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
            let frame = Frame::from(Bytes::from(bytes));
            let _ = TcpSegment::decode(&frame);
            if let Ok(view) = TcpView::parse(&frame) {
                for (kind, body) in view.options() {
                    // Never EOL (0) or NOP (1).
                    prop_assert!(kind > 1 && body.len() <= MAX_OPT_BODY_LEN);
                }
                prop_assert!(view.mptcp_opts().count() <= MAX_TCP_OPTIONS);
            }
        }

        /// Zero-copy decode and the borrowed view agree byte-for-byte with
        /// the old copying decoder — on valid encodings *and* on arbitrary
        /// byte soup (including which error is returned).
        #[test]
        fn zero_copy_decode_matches_copying_decode(
            seg in arb_segment(),
            soup in proptest::collection::vec(any::<u8>(), 0..120),
            garbled in proptest::collection::vec(prop_oneof![0u8..12, any::<u8>()], 0..40),
        ) {
            if seg.hdr.options.iter().map(|o| o.wire_len()).sum::<usize>() <= 38 {
                let wire = seg.encode().unwrap();
                prop_assert_eq!(TcpSegment::decode(&wire), copying_decode(&wire.to_vec()));
                view_matches_copying_decode(&wire)?;
            }
            let soup = Frame::from(Bytes::from(soup));
            prop_assert_eq!(TcpSegment::decode(&soup), copying_decode(&soup.to_vec()));
            view_matches_copying_decode(&soup)?;
            // A valid fixed header over option bytes that are mostly small
            // kinds and lengths: the option walk itself meets the byte soup.
            let area = garbled.len().div_ceil(4) * 4;
            let mut framed = vec![0u8; TCP_HEADER_LEN];
            framed[12] = (((TCP_HEADER_LEN + area) / 4) as u8) << 4;
            framed.extend_from_slice(&garbled);
            framed.resize(TCP_HEADER_LEN + area, 1); // NOP
            framed.extend_from_slice(b"payload");
            let framed = Frame::from(Bytes::from(framed));
            prop_assert_eq!(TcpSegment::decode(&framed), copying_decode(&framed.to_vec()));
            view_matches_copying_decode(&framed)?;
        }

        /// The writer refuses an options area exactly when it would exceed
        /// 40 bytes; below that, it pads what it holds to a 4-byte boundary.
        #[test]
        fn writer_rejects_exactly_what_overflows_40_bytes(
            options in proptest::collection::vec(arb_option(), 0..6),
        ) {
            let mut w = OptionWriter::new();
            for opt in &options {
                opt.write_to(&mut w);
            }
            let raw: usize = options.iter().map(|o| o.wire_len()).sum();
            match encode_parts(&TcpFixed::default(), &w, Bytes::from_static(b"x")) {
                Ok(frame) => prop_assert!(
                    raw <= MAX_OPTIONS_LEN && frame.len() == TCP_HEADER_LEN + raw.div_ceil(4) * 4 + 1
                ),
                Err(e) => prop_assert!(raw > MAX_OPTIONS_LEN && e == WireError::OptionsTooLong),
            }
        }
    }
}
