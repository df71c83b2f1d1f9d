//! Generic netlink framing: `nlmsghdr`, `genlmsghdr` and TLV attributes.
//!
//! Byte-compatible with the Linux layouts (RFC 3549 describes the
//! protocol): the 16-byte netlink header, the 4-byte generic-netlink
//! header, and 4-byte-aligned `nlattr` type-length-value attributes with
//! nesting. Multi-byte fields are little-endian, as on the x86-64 hosts
//! the paper's experiments ran on (netlink uses host byte order).

use bytes::{BufMut, Bytes, BytesMut};

/// Length of `nlmsghdr`.
pub const NLMSG_HDRLEN: usize = 16;
/// Length of `genlmsghdr`.
pub const GENL_HDRLEN: usize = 4;
/// `nlattr` header length.
pub const NLA_HDRLEN: usize = 4;
/// Flag bit marking a nested attribute.
pub const NLA_F_NESTED: u16 = 1 << 15;
/// `NLM_F_REQUEST` flag.
pub const NLM_F_REQUEST: u16 = 1;
/// `NLM_F_ACK` flag (sender wants an acknowledgment).
pub const NLM_F_ACK: u16 = 4;

/// The netlink message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NlMsgHdr {
    /// Total message length including this header.
    pub len: u32,
    /// Message type; for generic netlink this is the family id.
    pub ty: u16,
    /// Flags (`NLM_F_*`).
    pub flags: u16,
    /// Sequence number (echoed in replies).
    pub seq: u32,
    /// Sending port id (0 = kernel).
    pub pid: u32,
}

/// The generic-netlink header following `nlmsghdr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenlMsgHdr {
    /// Family command.
    pub cmd: u8,
    /// Family version.
    pub version: u8,
}

/// Errors from frame/attribute parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NlError {
    /// Buffer shorter than the header demands.
    Truncated,
    /// `nlmsghdr.len` disagrees with the buffer.
    BadLength,
    /// An attribute header is malformed.
    BadAttr,
    /// An attribute's payload has the wrong size for its type.
    BadAttrLen {
        /// Attribute type.
        ty: u16,
        /// Payload length found.
        len: usize,
    },
    /// A required attribute is missing.
    MissingAttr(u16),
    /// Unknown family command.
    UnknownCmd(u8),
}

impl std::fmt::Display for NlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NlError::Truncated => write!(f, "netlink message truncated"),
            NlError::BadLength => write!(f, "nlmsghdr length mismatch"),
            NlError::BadAttr => write!(f, "malformed attribute"),
            NlError::BadAttrLen { ty, len } => {
                write!(f, "attribute {ty} has invalid payload length {len}")
            }
            NlError::MissingAttr(ty) => write!(f, "required attribute {ty} missing"),
            NlError::UnknownCmd(c) => write!(f, "unknown family command {c}"),
        }
    }
}

impl std::error::Error for NlError {}

fn align4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Incremental builder for one netlink frame.
pub struct FrameBuilder {
    buf: BytesMut,
    ty: u16,
    flags: u16,
    seq: u32,
    pid: u32,
}

impl FrameBuilder {
    /// Start a frame with the given headers.
    pub fn new(ty: u16, flags: u16, seq: u32, pid: u32, genl: GenlMsgHdr) -> Self {
        let mut buf = BytesMut::with_capacity(64);
        buf.resize(NLMSG_HDRLEN, 0); // patched in finish()
        buf.put_u8(genl.cmd);
        buf.put_u8(genl.version);
        buf.put_u16_le(0); // reserved
        FrameBuilder {
            buf,
            ty,
            flags,
            seq,
            pid,
        }
    }

    fn attr_hdr(&mut self, ty: u16, payload_len: usize) {
        self.buf.put_u16_le((NLA_HDRLEN + payload_len) as u16);
        self.buf.put_u16_le(ty);
    }

    fn pad(&mut self) {
        while self.buf.len() % 4 != 0 {
            self.buf.put_u8(0);
        }
    }

    /// Append a `u8` attribute.
    pub fn attr_u8(&mut self, ty: u16, v: u8) -> &mut Self {
        self.attr_hdr(ty, 1);
        self.buf.put_u8(v);
        self.pad();
        self
    }

    /// Append a `u16` attribute.
    pub fn attr_u16(&mut self, ty: u16, v: u16) -> &mut Self {
        self.attr_hdr(ty, 2);
        self.buf.put_u16_le(v);
        self.pad();
        self
    }

    /// Append a `u32` attribute.
    pub fn attr_u32(&mut self, ty: u16, v: u32) -> &mut Self {
        self.attr_hdr(ty, 4);
        self.buf.put_u32_le(v);
        self.pad();
        self
    }

    /// Append a `u64` attribute.
    pub fn attr_u64(&mut self, ty: u16, v: u64) -> &mut Self {
        self.attr_hdr(ty, 8);
        self.buf.put_u64_le(v);
        self.pad();
        self
    }

    /// Append an attribute of `len` payload bytes that `f` writes in place.
    pub fn attr_with(&mut self, ty: u16, len: usize, f: impl FnOnce(&mut BytesMut)) -> &mut Self {
        self.attr_hdr(ty, len);
        self.buf.reserve(len);
        let start = self.buf.len();
        f(&mut self.buf);
        debug_assert_eq!(self.buf.len() - start, len, "attribute {ty} length");
        self.pad();
        self
    }

    /// Append a nested attribute built by `f`.
    pub fn attr_nested(&mut self, ty: u16, f: impl FnOnce(&mut FrameBuilder)) -> &mut Self {
        let start = self.buf.len();
        self.buf.put_u16_le(0); // placeholder len
        self.buf.put_u16_le(ty | NLA_F_NESTED);
        f(self);
        let total = self.buf.len() - start;
        self.buf[start..start + 2].copy_from_slice(&(total as u16).to_le_bytes());
        // Nested contents are already aligned (every attr pads itself).
        self
    }

    /// Finish: patch the length header and return the frame bytes.
    pub fn finish(mut self) -> Bytes {
        let len = self.buf.len() as u32;
        self.buf[0..4].copy_from_slice(&len.to_le_bytes());
        self.buf[4..6].copy_from_slice(&self.ty.to_le_bytes());
        self.buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        self.buf[8..12].copy_from_slice(&self.seq.to_le_bytes());
        self.buf[12..16].copy_from_slice(&self.pid.to_le_bytes());
        self.buf.freeze()
    }
}

/// A parsed frame: headers plus the attribute region.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Netlink header.
    pub hdr: NlMsgHdr,
    /// Generic-netlink header.
    pub genl: GenlMsgHdr,
    /// Attribute bytes (aligned TLVs).
    pub attrs: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parse one frame from `b`.
    pub fn parse(b: &'a [u8]) -> Result<Frame<'a>, NlError> {
        if b.len() < NLMSG_HDRLEN + GENL_HDRLEN {
            return Err(NlError::Truncated);
        }
        let hdr = NlMsgHdr {
            len: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            ty: u16::from_le_bytes([b[4], b[5]]),
            flags: u16::from_le_bytes([b[6], b[7]]),
            seq: u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            pid: u32::from_le_bytes([b[12], b[13], b[14], b[15]]),
        };
        if hdr.len as usize != b.len() {
            return Err(NlError::BadLength);
        }
        let genl = GenlMsgHdr {
            cmd: b[16],
            version: b[17],
        };
        Ok(Frame {
            hdr,
            genl,
            attrs: &b[NLMSG_HDRLEN + GENL_HDRLEN..],
        })
    }

    /// Iterate the top-level attributes.
    pub fn attrs(&self) -> AttrIter<'a> {
        AttrIter { rest: self.attrs }
    }
}

/// One attribute view.
#[derive(Debug, Clone, Copy)]
pub struct Attr<'a> {
    /// Attribute type (nest flag stripped).
    pub ty: u16,
    /// True when the nested flag was set.
    pub nested: bool,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Attr<'a> {
    /// Payload as `u8`.
    pub fn as_u8(&self) -> Result<u8, NlError> {
        if self.payload.len() != 1 {
            return Err(NlError::BadAttrLen {
                ty: self.ty,
                len: self.payload.len(),
            });
        }
        Ok(self.payload[0])
    }

    /// Payload as `u16`.
    pub fn as_u16(&self) -> Result<u16, NlError> {
        self.payload
            .try_into()
            .map(u16::from_le_bytes)
            .map_err(|_| NlError::BadAttrLen {
                ty: self.ty,
                len: self.payload.len(),
            })
    }

    /// Payload as `u32`.
    pub fn as_u32(&self) -> Result<u32, NlError> {
        self.payload
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| NlError::BadAttrLen {
                ty: self.ty,
                len: self.payload.len(),
            })
    }

    /// Payload as `u64`.
    pub fn as_u64(&self) -> Result<u64, NlError> {
        self.payload
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| NlError::BadAttrLen {
                ty: self.ty,
                len: self.payload.len(),
            })
    }

    /// Iterate a nested attribute's children.
    pub fn nested_attrs(&self) -> AttrIter<'a> {
        AttrIter { rest: self.payload }
    }
}

/// Iterator over a TLV region.
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = Result<Attr<'a>, NlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < NLA_HDRLEN {
            self.rest = &[];
            return Some(Err(NlError::BadAttr));
        }
        let len = u16::from_le_bytes([self.rest[0], self.rest[1]]) as usize;
        let ty_raw = u16::from_le_bytes([self.rest[2], self.rest[3]]);
        if len < NLA_HDRLEN || len > self.rest.len() {
            self.rest = &[];
            return Some(Err(NlError::BadAttr));
        }
        let payload = &self.rest[NLA_HDRLEN..len];
        let advance = align4(len).min(self.rest.len());
        self.rest = &self.rest[advance..];
        Some(Ok(Attr {
            ty: ty_raw & !NLA_F_NESTED,
            nested: ty_raw & NLA_F_NESTED != 0,
            payload,
        }))
    }
}

/// A TLV region that has been walked end to end once and holds only
/// well-formed attributes; lookups re-walk it in place.
#[derive(Debug, Clone, Copy)]
pub struct Attrs<'a> {
    region: &'a [u8],
}

impl<'a> Attrs<'a> {
    /// The attributes, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = Attr<'a>> {
        AttrIter { rest: self.region }.flatten()
    }
}

/// Check every attribute of a region; a malformed one anywhere in it
/// fails the whole region, whichever attribute is looked up later.
pub fn attr_map<'a>(iter: AttrIter<'a>) -> Result<Attrs<'a>, NlError> {
    let region = iter.rest;
    for attr in iter {
        attr?;
    }
    Ok(Attrs { region })
}

/// Find the first attribute with type `ty`.
pub fn find_attr<'a>(attrs: &Attrs<'a>, ty: u16) -> Result<Attr<'a>, NlError> {
    find_attr_opt(attrs, ty).ok_or(NlError::MissingAttr(ty))
}

/// Find an optional attribute with type `ty`.
pub fn find_attr_opt<'a>(attrs: &Attrs<'a>, ty: u16) -> Option<Attr<'a>> {
    attrs.iter().find(|a| a.ty == ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_scalars() {
        let mut fb = FrameBuilder::new(
            0x21,
            NLM_F_REQUEST,
            7,
            1234,
            GenlMsgHdr { cmd: 3, version: 1 },
        );
        fb.attr_u8(1, 0xAB)
            .attr_u16(2, 0xBEEF)
            .attr_u32(3, 0xDEAD_BEEF)
            .attr_u64(4, 0x0102_0304_0506_0708)
            .attr_with(5, 5, |b| b.put_slice(b"hello"));
        let bytes = fb.finish();
        assert_eq!(bytes.len() % 4, (bytes.len() % 4)); // header not padded overall
        let f = Frame::parse(&bytes).unwrap();
        assert_eq!(f.hdr.ty, 0x21);
        assert_eq!(f.hdr.flags, NLM_F_REQUEST);
        assert_eq!(f.hdr.seq, 7);
        assert_eq!(f.hdr.pid, 1234);
        assert_eq!(f.genl.cmd, 3);
        let attrs = attr_map(f.attrs()).unwrap();
        assert_eq!(find_attr(&attrs, 1).unwrap().as_u8().unwrap(), 0xAB);
        assert_eq!(find_attr(&attrs, 2).unwrap().as_u16().unwrap(), 0xBEEF);
        assert_eq!(find_attr(&attrs, 3).unwrap().as_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(
            find_attr(&attrs, 4).unwrap().as_u64().unwrap(),
            0x0102_0304_0506_0708
        );
        assert_eq!(find_attr(&attrs, 5).unwrap().payload, b"hello");
        assert!(find_attr_opt(&attrs, 99).is_none());
    }

    #[test]
    fn nested_attrs_roundtrip() {
        let mut fb = FrameBuilder::new(1, 0, 0, 0, GenlMsgHdr { cmd: 1, version: 0 });
        fb.attr_u32(1, 42).attr_nested(10, |inner| {
            inner.attr_u8(1, 7);
            inner.attr_u32(2, 99);
        });
        let bytes = fb.finish();
        let f = Frame::parse(&bytes).unwrap();
        let attrs = attr_map(f.attrs()).unwrap();
        let nest = find_attr(&attrs, 10).unwrap();
        assert!(nest.nested);
        let inner = attr_map(nest.nested_attrs()).unwrap();
        assert_eq!(find_attr(&inner, 1).unwrap().as_u8().unwrap(), 7);
        assert_eq!(find_attr(&inner, 2).unwrap().as_u32().unwrap(), 99);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(Frame::parse(&[]), Err(NlError::Truncated)));
        assert!(matches!(Frame::parse(&[0u8; 8]), Err(NlError::Truncated)));
    }

    #[test]
    fn parse_rejects_bad_len() {
        let mut fb = FrameBuilder::new(1, 0, 0, 0, GenlMsgHdr { cmd: 1, version: 0 });
        fb.attr_u32(1, 5);
        let bytes = fb.finish();
        let mut v = bytes.to_vec();
        v[0] = v[0].wrapping_add(1); // corrupt length
        assert!(matches!(Frame::parse(&v), Err(NlError::BadLength)));
        // Truncated buffer.
        assert!(matches!(Frame::parse(&v[..10]), Err(NlError::Truncated)));
    }

    #[test]
    fn attr_iter_detects_malformed() {
        let mut fb = FrameBuilder::new(1, 0, 0, 0, GenlMsgHdr { cmd: 1, version: 0 });
        fb.attr_u32(1, 5);
        let bytes = fb.finish();
        let mut v = bytes.to_vec();
        // Corrupt the attr length to overrun the buffer.
        v[NLMSG_HDRLEN + GENL_HDRLEN] = 0xFF;
        let f = Frame::parse(&v).unwrap();
        let errs: Vec<_> = f.attrs().filter(|r| r.is_err()).collect();
        assert!(!errs.is_empty());
    }

    #[test]
    fn wrong_scalar_width_rejected() {
        let mut fb = FrameBuilder::new(1, 0, 0, 0, GenlMsgHdr { cmd: 1, version: 0 });
        fb.attr_u16(3, 7);
        let bytes = fb.finish();
        let f = Frame::parse(&bytes).unwrap();
        let attrs = attr_map(f.attrs()).unwrap();
        let a = find_attr(&attrs, 3).unwrap();
        assert!(a.as_u32().is_err());
        assert!(a.as_u8().is_err());
        assert_eq!(a.as_u16().unwrap(), 7);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            if let Ok(f) = Frame::parse(&data) {
                for a in f.attrs().flatten() {
                    let _ = a.as_u8();
                    let _ = a.as_u16();
                    let _ = a.as_u32();
                    let _ = a.as_u64();
                    for inner in a.nested_attrs() {
                        let _ = inner;
                    }
                }
                // A region is accepted exactly when its walk meets no
                // error, and lookups in an accepted one cannot fail badly.
                match attr_map(f.attrs()) {
                    Ok(attrs) => {
                        prop_assert!(f.attrs().all(|a| a.is_ok()));
                        for ty in 0..4 {
                            let _ = find_attr(&attrs, ty);
                        }
                    }
                    Err(_) => prop_assert!(f.attrs().any(|a| a.is_err())),
                }
            }
            // A malformed attribute *behind* the one a caller wants still
            // fails the frame: attribute 1 is fine, the next header claims
            // more bytes than follow.
            let mut fb = FrameBuilder::new(1, 0, 0, 0, GenlMsgHdr { cmd: 1, version: 0 });
            fb.attr_u32(1, 5);
            let mut v = fb.finish().to_vec();
            v.extend_from_slice(&[0xFF, 0xFF, 2, 0]);
            v.extend_from_slice(&data[..data.len().min(8)]);
            let len = v.len() as u32;
            v[..4].copy_from_slice(&len.to_le_bytes());
            let f = Frame::parse(&v).unwrap();
            prop_assert_eq!(f.attrs().next().unwrap().unwrap().as_u32(), Ok(5));
            prop_assert_eq!(attr_map(f.attrs()).err(), Some(NlError::BadAttr));
        }

        #[test]
        fn scalar_attrs_roundtrip(
            vals in proptest::collection::vec((1u16..100, any::<u64>()), 0..10)
        ) {
            let mut fb = FrameBuilder::new(1, 0, 9, 9, GenlMsgHdr { cmd: 1, version: 0 });
            for (ty, v) in &vals {
                fb.attr_u64(*ty, *v);
            }
            let bytes = fb.finish();
            let f = Frame::parse(&bytes).unwrap();
            let attrs = attr_map(f.attrs()).unwrap();
            prop_assert_eq!(attrs.iter().count(), vals.len());
            for (a, (ty, v)) in attrs.iter().zip(&vals) {
                prop_assert_eq!(a.ty, *ty);
                prop_assert_eq!(a.as_u64().unwrap(), *v);
            }
        }
    }
}
