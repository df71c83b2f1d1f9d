//! TCP segment wire format.
//!
//! Real byte-level encoding and decoding of TCP headers and options. Every
//! packet travelling through the simulator carries bytes produced here, so
//! the codec is exercised by every experiment, not just by its tests.
//!
//! Multipath TCP options (option kind 30, RFC 6824) are carried as an
//! opaque subtype payload at this layer; the `smapp-mptcp` crate owns the
//! subtype codec. This mirrors the real-world layering where TCP option
//! parsing and MPTCP option semantics live in different parts of the stack.

use bytes::{BufMut, Bytes, BytesMut};

use crate::seq::SeqNum;

/// Maximum bytes of options a TCP header can carry (data offset is 4 bits).
pub const MAX_OPTIONS_LEN: usize = 40;
/// Length of the fixed TCP header.
pub const TCP_HEADER_LEN: usize = 20;
/// TCP option kind carrying all Multipath TCP signalling (RFC 6824).
pub const OPT_KIND_MPTCP: u8 = 30;

/// TCP header flags (the subset the engine uses).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// RST (with ACK, as Linux sends it).
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

impl std::fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.ack {
            s.push('.');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        if self.psh {
            s.push('P');
        }
        write!(f, "[{s}]")
    }
}

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
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len as usize]
    }

    /// Append bytes. Panics on overflow past [`MAX_OPT_BODY_LEN`].
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
    fn put_slice(&mut self, src: &[u8]) {
        self.push_slice(src);
    }
}

impl std::ops::Deref for OptBytes {
    type Target = [u8];
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

/// A fixed-capacity, inline list of TCP options.
///
/// Replaces the former `Vec<TcpOption>`: decoding a segment and building
/// one for transmit both happen for every simulated packet, and the option
/// list was one heap allocation per event on each side. Capacity
/// [`MAX_TCP_OPTIONS`] is enough for any wire-valid header, so `push` can
/// only panic on a construction bug.
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

    /// Drop all options.
    pub fn clear(&mut self) {
        self.len = 0;
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
        let mut o = TcpOptions::new();
        for opt in arr {
            o.push(opt);
        }
        o
    }
}

impl From<&[TcpOption]> for TcpOptions {
    fn from(s: &[TcpOption]) -> Self {
        let mut o = TcpOptions::new();
        for opt in s {
            o.push(*opt);
        }
        o
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

/// A full TCP segment: header plus payload bytes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TcpSegment {
    /// The header.
    pub hdr: TcpHeader,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Errors from [`TcpSegment::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a minimal header.
    Truncated,
    /// Data offset field smaller than 5 or past the end of the buffer.
    BadDataOffset,
    /// An option length field was zero, too small, or overran the header.
    BadOptionLength,
    /// Encoding was asked to fit more than 40 bytes of options.
    OptionsTooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "segment truncated"),
            WireError::BadDataOffset => write!(f, "bad data offset"),
            WireError::BadOptionLength => write!(f, "bad option length"),
            WireError::OptionsTooLong => write!(f, "options exceed 40 bytes"),
        }
    }
}

impl std::error::Error for WireError {}

impl TcpSegment {
    /// Total bytes this segment occupies (header + options + payload).
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + options_padded_len(&self.hdr.options) + self.payload.len()
    }

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

    /// Encode to wire bytes.
    ///
    /// # Errors
    /// [`WireError::OptionsTooLong`] if the options exceed 40 bytes.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let opt_len = options_padded_len(&self.hdr.options);
        if opt_len > MAX_OPTIONS_LEN {
            return Err(WireError::OptionsTooLong);
        }
        // Compose header, options and padding on the stack and append them
        // at once: every `BufMut` call re-checks the buffer's uniqueness
        // and capacity, which costs more than the bytes it writes.
        let mut head = [0u8; TCP_HEADER_LEN + MAX_OPTIONS_LEN];
        let head_len = TCP_HEADER_LEN + opt_len;
        let h = &self.hdr;
        head[0..2].copy_from_slice(&h.src_port.to_be_bytes());
        head[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
        head[4..8].copy_from_slice(&h.seq.0.to_be_bytes());
        head[8..12].copy_from_slice(&h.ack.0.to_be_bytes());
        head[12] = ((head_len / 4) as u8) << 4;
        head[13] = h.flags.to_byte();
        head[14..16].copy_from_slice(&h.window.to_be_bytes());
        // 16..18 checksum: not modeled (no corruption in the simulator);
        // 18..20 urgent pointer: unused.
        let mut at = TCP_HEADER_LEN;
        let mut put = |bytes: &[u8]| {
            head[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        for opt in &h.options {
            match opt {
                TcpOption::Mss(v) => {
                    put(&[2, 4]);
                    put(&v.to_be_bytes());
                }
                TcpOption::WindowScale(s) => put(&[3, 3, *s]),
                TcpOption::SackPermitted => put(&[4, 2]),
                TcpOption::Timestamps { val, ecr } => {
                    put(&[8, 10]);
                    put(&val.to_be_bytes());
                    put(&ecr.to_be_bytes());
                }
                TcpOption::Mptcp(b) => {
                    put(&[OPT_KIND_MPTCP, (2 + b.len()) as u8]);
                    put(b.as_slice());
                }
                TcpOption::Unknown { kind, data } => {
                    put(&[*kind, (2 + data.len()) as u8]);
                    put(data.as_slice());
                }
            }
        }
        // Pad options with NOPs to a 4-byte boundary.
        head[at..head_len].fill(1);
        let mut buf = BytesMut::with_capacity(head_len + self.payload.len());
        buf.put_slice(&head[..head_len]);
        buf.put_slice(&self.payload);
        Ok(buf.freeze())
    }

    /// Decode from wire bytes.
    ///
    /// Allocation-free: the input is the reference-counted frame buffer,
    /// the returned segment's `payload` is an Arc-backed [`Bytes::slice`]
    /// of it — a 1400-byte payload is never memcpy'd between the sender's
    /// `encode` and the receiving application — and options (tens of bytes
    /// at most, by TCP's 40-byte limit) are parsed into inline
    /// fixed-capacity storage.
    pub fn decode(b: &Bytes) -> Result<TcpSegment, WireError> {
        if b.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_offset = (b[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > b.len() {
            return Err(WireError::BadDataOffset);
        }
        let mut hdr = TcpHeader {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            seq: SeqNum(u32::from_be_bytes([b[4], b[5], b[6], b[7]])),
            ack: SeqNum(u32::from_be_bytes([b[8], b[9], b[10], b[11]])),
            flags: TcpFlags::from_byte(b[13]),
            window: u16::from_be_bytes([b[14], b[15]]),
            options: TcpOptions::new(),
        };
        let mut i = TCP_HEADER_LEN;
        while i < data_offset {
            let kind = b[i];
            match kind {
                0 => break,  // end of options
                1 => i += 1, // NOP
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
                        (OPT_KIND_MPTCP, _) => TcpOption::Mptcp(OptBytes::copy_from_slice(body)),
                        _ => TcpOption::Unknown {
                            kind,
                            data: OptBytes::copy_from_slice(body),
                        },
                    };
                    hdr.options.push(opt);
                    i += len;
                }
            }
        }
        Ok(TcpSegment {
            hdr,
            payload: b.slice(data_offset..),
        })
    }
}

/// Length of the encoded options area, padded to a 4-byte boundary.
fn options_padded_len(options: &[TcpOption]) -> usize {
    let raw: usize = options.iter().map(|o| o.wire_len()).sum();
    raw.div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(wire.len(), seg.wire_len());
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
    fn flags_roundtrip() {
        for b in 0..32u8 {
            let f = TcpFlags::from_byte(b);
            assert_eq!(f.to_byte(), b & 0x1F);
        }
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
        assert_eq!(&wire[..4], &[0x12, 0x34, 0x56, 0x78]);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(
            TcpSegment::decode(&Bytes::from(vec![0u8; 10])),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_bad_offset() {
        let mut wire = vec![0u8; 20];
        wire[12] = 4 << 4; // data offset 16 < 20
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire)),
            Err(WireError::BadDataOffset)
        );
        let mut wire = vec![0u8; 20];
        wire[12] = 15 << 4; // data offset 60 > buffer
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire)),
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
        let mut wire = Vec::from(&seg.encode().unwrap()[..]);
        wire[21] = 0; // MSS option length = 0
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire.clone())),
            Err(WireError::BadOptionLength)
        );
        wire[21] = 40; // overruns header
        assert_eq!(
            TcpSegment::decode(&Bytes::from(wire)),
            Err(WireError::BadOptionLength)
        );
    }

    #[test]
    fn decode_payload_aliases_the_frame_allocation() {
        // Zero-copy receive path: the decoded payload must point *into*
        // the frame's backing allocation, not to a fresh copy. (Option
        // bodies are parsed into inline fixed-size storage instead — 38
        // bytes at most — so the decode path performs no allocation at
        // all.)
        let seg = TcpSegment {
            hdr: sample_header(),
            payload: Bytes::from(vec![0xAB; 1400]),
        };
        let wire = seg.encode().unwrap();
        let frame = wire.as_ptr() as usize;
        let frame_end = frame + wire.len();
        let back = TcpSegment::decode(&wire).unwrap();

        let p = back.payload.as_ptr() as usize;
        assert!(
            p >= frame && p + back.payload.len() <= frame_end,
            "payload must alias the received frame's allocation"
        );
        // The payload sits right where encode wrote it.
        assert_eq!(p - frame, wire.len() - back.payload.len());

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
        assert_eq!(seg.encode(), Err(WireError::OptionsTooLong));
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
    use proptest::prelude::*;

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
                        flags: TcpFlags::from_byte(flags),
                        window,
                        options: TcpOptions::from(&options[..]),
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
            flags: TcpFlags::from_byte(b[13]),
            window: u16::from_be_bytes([b[14], b[15]]),
            options: TcpOptions::from(&options[..]),
        };
        Ok(TcpSegment {
            hdr,
            payload: Bytes::from(b[data_offset..].to_owned()),
        })
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(seg in arb_segment()) {
            prop_assume!(seg.hdr.options.iter().map(|o| o.wire_len()).sum::<usize>() <= 38);
            let wire = seg.encode().unwrap();
            let back = TcpSegment::decode(&wire).unwrap();
            prop_assert_eq!(back, seg);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
            let _ = TcpSegment::decode(&Bytes::from(bytes));
        }

        /// Zero-copy decode agrees byte-for-byte with the old copying
        /// decoder — on valid encodings *and* on arbitrary byte soup
        /// (including which error is returned).
        #[test]
        fn zero_copy_decode_matches_copying_decode(
            seg in arb_segment(),
            soup in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            if seg.hdr.options.iter().map(|o| o.wire_len()).sum::<usize>() <= 38 {
                let wire = seg.encode().unwrap();
                prop_assert_eq!(TcpSegment::decode(&wire), copying_decode(&wire));
            }
            let soup = Bytes::from(soup);
            prop_assert_eq!(TcpSegment::decode(&soup), copying_decode(&soup));
        }
    }
}
