//! The TCP header wire format: the one reader and the one writer of the
//! tree.
//!
//! [`TcpView::parse`] validates a segment and reads it in place: the fixed
//! header is copied out, the options stay in the frame behind one
//! `(kind, body)` iterator, and the payload is a borrowed slice.
//! [`OptionWriter`] appends options into a 40-byte area and
//! [`encode_parts`] writes header, padded options and payload into a pooled
//! buffer.
//!
//! The module lives in the simulator because the simulator reads TCP too:
//! the oracle's framing checks ([`crate::oracle`]), the option stripper
//! ([`crate::dynamics::strip_mptcp_options`]), the middlebox rewriters
//! ([`crate::rewrite`]) and the flood source ([`crate::adversary`]). The
//! `smapp-tcp` crate re-exports these items for the end-host stack, so one
//! parser and one encoder serve every TCP byte in a run. Multipath TCP
//! options (kind 30) are opaque here: the stack and the oracle each
//! interpret the subtypes themselves.

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Maximum bytes of options a TCP header can carry (data offset is 4 bits).
pub const MAX_OPTIONS_LEN: usize = 40;
/// Length of the fixed TCP header.
pub const TCP_HEADER_LEN: usize = 20;
/// TCP option kind carrying all Multipath TCP signalling (RFC 6824).
pub const OPT_KIND_MPTCP: u8 = 30;
/// TCP option kind: maximum segment size (SYN only).
pub const OPT_KIND_MSS: u8 = 2;
/// TCP option kind: window scale shift (SYN only).
pub const OPT_KIND_WINDOW_SCALE: u8 = 3;
/// TCP option kind: SACK permitted (SYN only).
pub const OPT_KIND_SACK_PERMITTED: u8 = 4;
/// TCP option kind: timestamps.
pub const OPT_KIND_TIMESTAMPS: u8 = 8;
const OPT_KIND_EOL: u8 = 0;
const OPT_KIND_NOP: u8 = 1;

/// A raw 32-bit TCP sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// `self + n` with wraparound.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(n))
    }

    /// `self - n` with wraparound.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(n))
    }

    /// Serial-number "less than": true if `self` precedes `other` in the
    /// circular space (distance < 2^31).
    pub fn lt(self, other: SeqNum) -> bool {
        (self.0.wrapping_sub(other.0) as i32) < 0
    }

    /// Serial-number "less than or equal".
    pub fn leq(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// Bytes from `self` forward to `other` (wrapping).
    pub fn distance_to(self, other: SeqNum) -> u32 {
        other.0.wrapping_sub(self.0)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq({})", self.0)
    }
}

impl From<u32> for SeqNum {
    fn from(v: u32) -> Self {
        SeqNum(v)
    }
}

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
    pub const SYN: TcpFlags = TcpFlags::from_byte(0x02);
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags::from_byte(0x12);
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags::from_byte(0x10);
    /// RST (with ACK, as Linux sends it).
    pub const RST: TcpFlags = TcpFlags::from_byte(0x14);

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    const fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// Flag sets the simulator's own tests build segments with.
#[cfg(test)]
impl TcpFlags {
    pub(crate) const PSH_ACK: TcpFlags = TcpFlags::from_byte(0x18);
    pub(crate) const FIN_ACK: TcpFlags = TcpFlags::from_byte(0x11);
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let marks = [
            (self.syn, 'S'),
            (self.ack, '.'),
            (self.fin, 'F'),
            (self.rst, 'R'),
            (self.psh, 'P'),
        ];
        let s: String = marks.iter().filter(|m| m.0).map(|m| m.1).collect();
        write!(f, "[{s}]")
    }
}

/// The fixed 20-byte part of a TCP header: every field but the options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TcpFixed {
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
}

/// A segment, read in place.
///
/// [`TcpView::parse`] checks the whole header, options included, so a view
/// always holds a well-formed segment: walking its options cannot fail. The
/// fixed fields are copied out and the options area and the payload are
/// borrowed from the frame. A reader that keeps the payload takes it as a
/// `Bytes::slice` of its own frame, so a 1400-byte payload is never
/// memcpy'd between the sender's [`encode_parts`] and the receiving
/// application.
#[derive(Clone, Copy, Debug)]
pub struct TcpView<'a> {
    /// The fixed header fields.
    pub hdr: TcpFixed,
    /// The options area, padding included.
    options: &'a [u8],
    /// Payload bytes: the frame past the data offset.
    pub payload: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Validate `frame` and read it in place. Allocation-free.
    ///
    /// # Errors
    /// [`WireError::Truncated`], [`WireError::BadDataOffset`] or
    /// [`WireError::BadOptionLength`] for a malformed header.
    pub fn parse(frame: &'a [u8]) -> Result<TcpView<'a>, WireError> {
        let Some(h) = frame.first_chunk::<TCP_HEADER_LEN>() else {
            return Err(WireError::Truncated);
        };
        let data_offset = (h[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > frame.len() {
            return Err(WireError::BadDataOffset);
        }
        let (head, payload) = frame.split_at(data_offset);
        let options = &head[TCP_HEADER_LEN..];
        let mut walk = OptionWalk {
            rest: options,
            malformed: false,
        };
        walk.by_ref().for_each(drop);
        if walk.malformed {
            return Err(WireError::BadOptionLength);
        }
        Ok(TcpView {
            hdr: TcpFixed {
                src_port: u16::from_be_bytes([h[0], h[1]]),
                dst_port: u16::from_be_bytes([h[2], h[3]]),
                seq: SeqNum(u32::from_be_bytes([h[4], h[5], h[6], h[7]])),
                ack: SeqNum(u32::from_be_bytes([h[8], h[9], h[10], h[11]])),
                flags: TcpFlags::from_byte(h[13]),
                window: u16::from_be_bytes([h[14], h[15]]),
            },
            options,
            payload,
        })
    }

    /// The data offset in bytes: the fixed header plus the options area,
    /// padding included ([`TCP_HEADER_LEN`] when there is no options area).
    #[inline]
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.len()
    }

    /// The options as `(kind, body)` pairs, in wire order.
    #[inline]
    pub fn options(&self) -> impl Iterator<Item = (u8, &'a [u8])> {
        OptionWalk {
            rest: self.options,
            malformed: false,
        }
    }

    /// The bodies of all MPTCP options, in wire order (a segment may carry
    /// e.g. a DSS and an ADD_ADDR together).
    #[inline]
    pub fn mptcp_opts(&self) -> impl Iterator<Item = &'a [u8]> {
        self.options()
            .filter_map(|(kind, body)| (kind == OPT_KIND_MPTCP).then_some(body))
    }
}

/// The `(kind, body)` pairs of an options area: NOPs are skipped and the
/// walk ends at End-of-Option-List. The one option walk of the tree.
struct OptionWalk<'a> {
    rest: &'a [u8],
    /// Set when the walk stopped at an option whose length octet is
    /// missing, below 2 or past the end of the area. Never set on the
    /// options of a [`TcpView`], which [`TcpView::parse`] checked this way.
    malformed: bool,
}

impl<'a> Iterator for OptionWalk<'a> {
    type Item = (u8, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<(u8, &'a [u8])> {
        loop {
            match *self.rest {
                [] | [OPT_KIND_EOL, ..] => return None,
                [OPT_KIND_NOP, ref tail @ ..] => self.rest = tail,
                [kind, len, ref tail @ ..] if len >= 2 && len as usize - 2 <= tail.len() => {
                    let (body, rest) = tail.split_at(len as usize - 2);
                    self.rest = rest;
                    return Some((kind, body));
                }
                _ => {
                    self.malformed = true;
                    self.rest = &[];
                    return None;
                }
            }
        }
    }
}

/// The options area of a segment being built: kind, length and body
/// appended in order into [`MAX_OPTIONS_LEN`] bytes, with no heap and no
/// per-option struct.
///
/// A push that would take the area past 40 bytes writes nothing and marks
/// the area too long, and [`encode_parts`] refuses it with
/// [`WireError::OptionsTooLong`].
#[derive(Clone, Copy, Debug)]
pub struct OptionWriter {
    /// NOP past `len`, so the padding is in place before it is needed.
    buf: [u8; MAX_OPTIONS_LEN],
    len: u8,
    too_long: bool,
}

impl OptionWriter {
    /// An empty options area.
    pub const fn new() -> Self {
        OptionWriter {
            buf: [OPT_KIND_NOP; MAX_OPTIONS_LEN],
            len: 0,
            too_long: false,
        }
    }

    /// Append one option: `kind`, its length octet, then `body`.
    #[inline]
    pub fn push(&mut self, kind: u8, body: &[u8]) {
        let at = self.len as usize;
        let end = at + 2 + body.len();
        if self.too_long || end > MAX_OPTIONS_LEN {
            self.too_long = true;
            return;
        }
        self.buf[at] = kind;
        self.buf[at + 1] = (2 + body.len()) as u8;
        self.buf[at + 2..end].copy_from_slice(body);
        self.len = end as u8;
    }

    /// The options NOP-padded to a 4-byte boundary, as they go on the
    /// wire; `OptionsTooLong` if a push overflowed the area.
    pub(crate) fn padded(&self) -> Result<&[u8], WireError> {
        if self.too_long {
            return Err(WireError::OptionsTooLong);
        }
        Ok(&self.buf[..(self.len as usize).div_ceil(4) * 4])
    }
}

impl Default for OptionWriter {
    fn default() -> Self {
        OptionWriter::new()
    }
}

/// Encode one segment: the fixed header, the options NOP-padded to a
/// 4-byte boundary, then the payload, in one buffer from the `bytes` pool.
///
/// # Errors
/// [`WireError::OptionsTooLong`] if `opts` overflowed its 40 bytes.
pub fn encode_parts(
    hdr: &TcpFixed,
    opts: &OptionWriter,
    payload: &[u8],
) -> Result<Bytes, WireError> {
    // Compose header, options and padding on the stack and append them
    // at once: every `BufMut` call re-checks the buffer's uniqueness and
    // capacity, which costs more than the bytes it writes.
    let mut head = [0u8; TCP_HEADER_LEN + MAX_OPTIONS_LEN];
    let head_len = TCP_HEADER_LEN + opts.padded()?.len();
    head[0..2].copy_from_slice(&hdr.src_port.to_be_bytes());
    head[2..4].copy_from_slice(&hdr.dst_port.to_be_bytes());
    head[4..8].copy_from_slice(&hdr.seq.0.to_be_bytes());
    head[8..12].copy_from_slice(&hdr.ack.0.to_be_bytes());
    head[12] = ((head_len / 4) as u8) << 4;
    head[13] = hdr.flags.to_byte();
    head[14..16].copy_from_slice(&hdr.window.to_be_bytes());
    // 16..18 checksum: not modeled (no corruption in the simulator);
    // 18..20 urgent pointer: unused.
    head[TCP_HEADER_LEN..].copy_from_slice(&opts.buf);
    let mut buf = BytesMut::with_capacity(head_len + payload.len());
    buf.put_slice(&head[..head_len]);
    buf.put_slice(payload);
    Ok(buf.freeze())
}

/// Errors from [`TcpView::parse`] and [`encode_parts`].
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

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "segment truncated"),
            WireError::BadDataOffset => write!(f, "bad data offset"),
            WireError::BadOptionLength => write!(f, "bad option length"),
            WireError::OptionsTooLong => write!(f, "options exceed 40 bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// A pure ACK from port 40000 to 80 whose data offset is valid but whose
/// option area is not: a kind-30 option claiming length 0. Every reader
/// rejects it and every middlebox passes it through untouched. Raw bytes,
/// because the writer cannot produce it.
#[cfg(test)]
#[rustfmt::skip]
pub(crate) const MALFORMED_OPTION_AREA: [u8; 24] = [
    0x9C, 0x40, 0, 80, // ports 40000 -> 80
    0, 0, 0, 1, 0, 0, 0, 1, // seq, ack
    6 << 4, 0x10, 0x10, 0, 0, 0, 0, 0, // data offset 24, ACK, window
    30, 0, 1, 1, // kind 30 claiming length 0, NOP padding
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip() {
        for b in 0..32u8 {
            let f = TcpFlags::from_byte(b);
            assert_eq!(f.to_byte(), b & 0x1F);
        }
    }
}
