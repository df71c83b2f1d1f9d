//! The packet model.
//!
//! A [`Packet`] is an IP-level datagram: a small fixed header that the
//! simulator itself understands (addresses, protocol, TTL) plus an opaque
//! L4 `payload` of real wire bytes, held as a two-part [`Frame`]. End hosts
//! encode and decode transport segments to/from those bytes; routers never
//! parse beyond the first four payload octets (the transport port pair),
//! exactly like ECMP hardware.
//!
//! A segment's frame keeps its TCP header and options in a small pooled
//! buffer and its payload as a slice of the sending application's buffer,
//! the scatter-gather list a NIC transmits from: no payload byte is copied
//! between the sending application and the receiving one.

use bytes::{BufMut, Bytes, BytesMut};

use crate::addr::{Addr, FlowKey};

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for the simulator's ICMP-like control messages.
pub const PROTO_ICMP: u8 = 1;
/// Bytes of IP header accounted for when computing wire length.
pub const IP_HEADER_LEN: usize = 20;
/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// An IP-level packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// IP protocol number (6 = TCP, 1 = ICMP).
    pub proto: u8,
    /// Remaining hop count; routers decrement and drop at zero.
    pub ttl: u8,
    /// Serialized L4 segment (header + data).
    pub payload: Frame,
}

impl Packet {
    /// Build a TCP packet from an encoded segment: a [`Frame`], or one
    /// `Bytes` holding the whole segment.
    pub fn tcp(src: Addr, dst: Addr, payload: impl Into<Frame>) -> Self {
        Packet {
            src,
            dst,
            proto: PROTO_TCP,
            ttl: DEFAULT_TTL,
            payload: payload.into(),
        }
    }

    /// Total bytes this packet occupies on the wire (IP header + payload).
    pub fn wire_len(&self) -> usize {
        IP_HEADER_LEN + self.payload.len()
    }

    /// Wire length in bits, for serialization-delay computation.
    pub fn wire_bits(&self) -> u64 {
        self.wire_len() as u64 * 8
    }

    /// The transport port pair, peeked from the first four payload bytes
    /// (both TCP and our ICMP encapsulation place them there). Returns
    /// `(0, 0)` when the payload is too short.
    pub fn ports(&self) -> (u16, u16) {
        match *self.payload.head() {
            [s0, s1, d0, d1, ..] => (u16::from_be_bytes([s0, s1]), u16::from_be_bytes([d0, d1])),
            _ => (0, 0),
        }
    }

    /// The 5-tuple flow key used by load balancers and middleboxes.
    pub fn flow_key(&self) -> FlowKey {
        let (sp, dp) = self.ports();
        FlowKey {
            src: self.src,
            dst: self.dst,
            src_port: sp,
            dst_port: dp,
            proto: self.proto,
        }
    }

    /// A terse summary for traces. Plain `Copy` data — building one costs
    /// no allocation; render it with `Display` at read-out time.
    pub fn summary(&self) -> PktSummary {
        let (src_port, dst_port) = self.ports();
        PktSummary {
            src: self.src,
            dst: self.dst,
            src_port,
            dst_port,
            proto: self.proto,
            wire_len: self.wire_len() as u32,
        }
    }
}

/// The bytes a packet carries past its IP header, in two parts read as one
/// sequence: the head, then the body.
///
/// A segment built by [`crate::wire::encode_parts`] or rewritten by a
/// middlebox holds exactly its TCP header and options in the head, a
/// buffer from the `bytes` pool, and its payload in the body, the `Bytes`
/// the sender passed in: a slice of the application's buffer, shared and
/// not copied. A frame made from one `Bytes` (an ICMP message, a raw test
/// frame) holds everything in the head and has an empty body.
#[derive(Clone, Debug)]
pub struct Frame {
    head: Bytes,
    body: Bytes,
}

impl Frame {
    /// A segment's frame: `head` is its header and options, exactly as long
    /// as its data offset says, `body` its payload.
    pub(crate) fn segment(head: Bytes, body: Bytes) -> Frame {
        Frame { head, body }
    }

    /// The first part: a segment's header and options, or the whole frame
    /// when it was made from one `Bytes`.
    #[inline]
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// The second part: a segment's payload, sharing the storage of the
    /// `Bytes` it was encoded from; empty when the head holds everything.
    #[inline]
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Both parts, in wire order.
    #[inline]
    pub fn parts(&self) -> [&[u8]; 2] {
        [&self.head, &self.body]
    }

    /// Length in bytes, both parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True when the frame holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes from offset `at` to the end, as a slice of the part they
    /// lie in: a segment's payload (`at` its header length, as a
    /// [`crate::wire::TcpView`] reads it) is its body, uncopied.
    ///
    /// # Panics
    /// When `at` is past the end, like `Bytes::slice`, or inside the head
    /// of a frame with a body: no view reads a payload that starts there.
    pub fn slice_from(&self, at: usize) -> Bytes {
        match at.checked_sub(self.head.len()) {
            Some(in_body) => self.body.slice(in_body..),
            None => {
                assert!(self.body.is_empty(), "{at} is inside a head with a body");
                self.head.slice(at..)
            }
        }
    }

    /// The same frame with its head copied into a fresh buffer and changed
    /// by `edit`; the body is shared. How a middlebox rewrites header fields
    /// without touching the payload.
    pub(crate) fn with_head(&self, edit: impl FnOnce(&mut [u8])) -> Frame {
        let mut head = BytesMut::from(&self.head[..]);
        edit(&mut head);
        Frame::segment(head.freeze(), self.body.clone())
    }

    /// The bytes of both parts, copied into one `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        [&self.head[..], &self.body[..]].concat()
    }
}

impl From<Bytes> for Frame {
    fn from(whole: Bytes) -> Frame {
        Frame {
            head: whole,
            body: Bytes::new(),
        }
    }
}

/// A structured one-line packet summary, recorded by trace sinks instead of
/// a formatted string so untraced fields cost nothing on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PktSummary {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Transport source port (0 when the payload is too short).
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
    /// Total on-wire length (IP header included).
    pub wire_len: u32,
}

impl std::fmt::Display for PktSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} > {}:{} proto={} len={}",
            self.src, self.src_port, self.dst, self.dst_port, self.proto, self.wire_len
        )
    }
}

/// ICMP-like control messages the simulator can generate and hosts can
/// interpret. These are *encoded to bytes* in packet payloads so middleboxes
/// remain byte-oriented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpMsg {
    /// Destination unreachable, with the standard code subset we model.
    DestUnreachable {
        /// Which unreachable variant.
        code: UnreachCode,
        /// Ports of the offending packet (src, dst) as seen by the sender
        /// of the original packet, so hosts can locate the right flow.
        orig_src_port: u16,
        /// Destination port of the offending packet.
        orig_dst_port: u16,
    },
}

/// Subset of ICMP destination-unreachable codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnreachCode {
    /// Code 0: network unreachable.
    Net,
    /// Code 1: host unreachable.
    Host,
    /// Code 3: port unreachable.
    Port,
    /// Code 13: communication administratively prohibited (filtered).
    AdminProhibited,
}

impl UnreachCode {
    fn to_u8(self) -> u8 {
        match self {
            UnreachCode::Net => 0,
            UnreachCode::Host => 1,
            UnreachCode::Port => 3,
            UnreachCode::AdminProhibited => 13,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => UnreachCode::Net,
            1 => UnreachCode::Host,
            3 => UnreachCode::Port,
            13 => UnreachCode::AdminProhibited,
            _ => return None,
        })
    }
}

/// ICMP type number for destination unreachable.
const ICMP_TYPE_UNREACH: u8 = 3;

impl IcmpMsg {
    /// Encode to payload bytes.
    ///
    /// Layout: `orig_src_port:u16 | orig_dst_port:u16 | type:u8 | code:u8`.
    /// The port pair leads so that [`Packet::ports`] works uniformly (real
    /// ICMP embeds the original IP header + 8 payload bytes for the same
    /// purpose).
    pub fn encode(&self) -> Bytes {
        match *self {
            IcmpMsg::DestUnreachable {
                code,
                orig_src_port,
                orig_dst_port,
            } => {
                let mut b = BytesMut::with_capacity(6);
                b.put_u16(orig_src_port);
                b.put_u16(orig_dst_port);
                b.put_u8(ICMP_TYPE_UNREACH);
                b.put_u8(code.to_u8());
                b.freeze()
            }
        }
    }

    /// Decode from payload bytes; `None` if malformed.
    pub fn decode(b: &[u8]) -> Option<IcmpMsg> {
        if b.len() < 6 || b[4] != ICMP_TYPE_UNREACH {
            return None;
        }
        Some(IcmpMsg::DestUnreachable {
            code: UnreachCode::from_u8(b[5])?,
            orig_src_port: u16::from_be_bytes([b[0], b[1]]),
            orig_dst_port: u16::from_be_bytes([b[2], b[3]]),
        })
    }

    /// Wrap this message in a packet from `src` to `dst`.
    pub fn into_packet(self, src: Addr, dst: Addr) -> Packet {
        Packet {
            src,
            dst,
            proto: PROTO_ICMP,
            ttl: DEFAULT_TTL,
            payload: self.encode().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(payload: &[u8]) -> Packet {
        Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            Bytes::copy_from_slice(payload),
        )
    }

    /// A packet sits in every link queue slot and event: its frame is two
    /// 32-byte `Bytes` handles, the addresses and header bytes the rest.
    /// The second handle is what lets the payload be shared instead of
    /// copied into a wire buffer.
    #[test]
    fn packet_is_80_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 80);
    }

    #[test]
    fn wire_len_includes_ip_header() {
        let p = pkt(&[0u8; 100]);
        assert_eq!(p.wire_len(), 120);
        assert_eq!(p.wire_bits(), 960);
    }

    #[test]
    fn ports_peek() {
        // src port 0x1234, dst port 0x0050
        let p = pkt(&[0x12, 0x34, 0x00, 0x50, 0, 0]);
        assert_eq!(p.ports(), (0x1234, 0x50));
        let short = pkt(&[0x12]);
        assert_eq!(short.ports(), (0, 0));
    }

    #[test]
    fn flow_key_from_packet() {
        let p = pkt(&[0x12, 0x34, 0x00, 0x50]);
        let k = p.flow_key();
        assert_eq!(k.src_port, 0x1234);
        assert_eq!(k.dst_port, 0x50);
        assert_eq!(k.proto, PROTO_TCP);
    }

    #[test]
    fn icmp_roundtrip() {
        for code in [
            UnreachCode::Net,
            UnreachCode::Host,
            UnreachCode::Port,
            UnreachCode::AdminProhibited,
        ] {
            let m = IcmpMsg::DestUnreachable {
                code,
                orig_src_port: 43210,
                orig_dst_port: 80,
            };
            let b = m.encode();
            assert_eq!(IcmpMsg::decode(&b), Some(m));
        }
    }

    #[test]
    fn icmp_decode_rejects_malformed() {
        assert_eq!(IcmpMsg::decode(&[]), None);
        assert_eq!(IcmpMsg::decode(&[0, 0, 0, 0, 99, 0]), None); // bad type
        assert_eq!(IcmpMsg::decode(&[0, 0, 0, 0, 3, 77]), None); // bad code
    }

    #[test]
    fn icmp_packet_ports_visible_to_middleboxes() {
        let m = IcmpMsg::DestUnreachable {
            code: UnreachCode::Net,
            orig_src_port: 1000,
            orig_dst_port: 2000,
        };
        let p = m.into_packet(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2));
        assert_eq!(p.ports(), (1000, 2000));
        assert_eq!(p.proto, PROTO_ICMP);
    }
}
