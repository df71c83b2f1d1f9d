//! The `mptcp_pm` generic-netlink family.
//!
//! This is the wire vocabulary of the SMAPP architecture: every event the
//! kernel path manager exposes (§3 of the paper: `created`, `estab`,
//! `closed`, `sub_estab`, `sub_closed`, `add_addr`, `rem_addr`, `timeout`,
//! `new_local_addr`, `del_local_addr`) and every command userspace can send
//! back (subscribe, create/remove subflow by arbitrary 4-tuple, change
//! backup priority, query TCP_INFO-equivalent state).
//!
//! Events and commands are encoded as real generic-netlink frames —
//! [`crate::wire`] — so the user/kernel boundary in the simulation carries
//! actual bytes, exactly like the paper's 1100-line kernel module +
//! 1900-line library pair.
//!
//! Each message is listed once, in wire order: its command number and one
//! `field: ATTRIBUTE` pair per field (the `listing!` invocations below).
//! Encoding and decoding are both generated from that listing; the private
//! `Field` trait knows how each kind of field rides in attributes. The one
//! reader reads in place ([`decode_into`]), so a message kept between
//! frames keeps the capacity of its vectors; [`decode`] reads into a fresh
//! message.

use std::marker::PhantomData;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use smapp_mptcp::{ConnState, ConnToken, FourTuple, PmAction, PmEvent, SubflowError, SubflowId};
use smapp_sim::Addr;
use smapp_tcp::{TcpInfo, TcpStateInfo};

use crate::wire::{
    attr_map, find_attr, find_attr_opt, Attrs, Frame, FrameBuilder, GenlMsgHdr, NlError,
    NLM_F_REQUEST,
};

/// Generic-netlink family id for `mptcp_pm` (fixed in the simulation; real
/// kernels allocate it dynamically at family registration).
pub const FAMILY_ID: u16 = 0x21;
/// Family version.
pub const FAMILY_VERSION: u8 = 1;
/// Port id used for the kernel side.
pub const KERNEL_PID: u32 = 0;
/// Port id used for the subflow-controller process.
pub const CONTROLLER_PID: u32 = 1001;

/// Attribute type numbers (the listings name them).
mod attr {
    pub(crate) const TOKEN: u16 = 1; // connection token (u32)
    pub(crate) const SUBFLOW_ID: u16 = 2; // subflow id (u8)
    pub(crate) const SADDR: u16 = 3; // source address (u32)
    pub(crate) const SPORT: u16 = 4; // source port (u16)
    pub(crate) const DADDR: u16 = 5; // destination address (u32)
    pub(crate) const DPORT: u16 = 6; // destination port (u16)
    pub(crate) const BACKUP: u16 = 7; // backup flag (u8)
    pub(crate) const ERROR: u16 = 8; // errno-style error code (u16)
    pub(crate) const RTO_US: u16 = 9; // retransmission timeout in microseconds (u64)
    pub(crate) const BACKOFFS: u16 = 10; // consecutive backoffs (u32)
    pub(crate) const ADDR: u16 = 11; // a bare address (u32)
    pub(crate) const ADDR_ID: u16 = 12; // MPTCP address id (u8)
    pub(crate) const PORT: u16 = 13; // a port (u16)
    pub(crate) const MASK: u16 = 14; // event subscription mask (u32)
    pub(crate) const IS_CLIENT: u16 = 15; // client-side flag (u8)
    pub(crate) const INITIATED: u16 = 16; // locally-initiated flag (u8)
    pub(crate) const RESET: u16 = 17; // reset-vs-graceful flag (u8)
    pub(crate) const TCP_INFO: u16 = 18; // `TcpInfo` blob: version byte, then fixed-width LE fields
    pub(crate) const SUBFLOW_NEST: u16 = 19; // nested per-subflow container
    pub(crate) const DATA_SND_UNA: u16 = 20; // connection-level `snd_una` data offset (u64)
    pub(crate) const DATA_SND_NXT: u16 = 21; // connection-level `snd_nxt` data offset (u64)
    pub(crate) const CONN_NEST: u16 = 22; // nested per-connection container of a diag reply
    pub(crate) const CONN_STATE: u16 = 23; // connection state (u8: 1 establishing, 2 estab, 3 closed)
    pub(crate) const FALLBACK: u16 = 24; // plain-TCP fallback inferred flag (u8)
    pub(crate) const TAP_SENT_BYTES: u16 = 25; // bytes pushed through the send-side stream tap (u64)
    pub(crate) const TAP_SENT_DIGEST: u16 = 26; // running `StreamTap` digest of the sent stream (u64)
    pub(crate) const TAP_RECVD_BYTES: u16 = 27; // bytes pushed through the receive-side stream tap (u64)
    pub(crate) const TAP_RECVD_DIGEST: u16 = 28; // running `StreamTap` digest of the received stream (u64)
    pub(crate) const REINJECTIONS: u16 = 29; // connection-level reinjections performed (u64)
}

// The multi-attribute kinds (`FourTuple`, `(u64, u64)`) take consecutive
// attribute numbers from the one their listing names.
const _: () = assert!(
    attr::SPORT == attr::SADDR + 1
        && attr::DADDR == attr::SADDR + 2
        && attr::DPORT == attr::SADDR + 3
        && attr::DATA_SND_NXT == attr::DATA_SND_UNA + 1
        && attr::TAP_SENT_DIGEST == attr::TAP_SENT_BYTES + 1
        && attr::TAP_RECVD_DIGEST == attr::TAP_RECVD_BYTES + 1
);

/// Commands userspace sends to the kernel path manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmNlCommand {
    /// Select which events this controller wants (bitmask of
    /// [`PmEvent::mask_bit`] values).
    Subscribe {
        /// The mask.
        mask: u32,
    },
    /// Query state; the kernel replies with [`PmNlMessage::InfoReply`].
    GetInfo {
        /// Target connection.
        token: ConnToken,
        /// Restrict to one subflow (None = all).
        id: Option<SubflowId>,
    },
    /// Have the kernel path manager act on a connection; it replies with
    /// [`PmNlMessage::Ack`].
    Action(PmAction),
}

/// Any message of the family, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum PmNlMessage {
    /// Kernel → user event.
    Event(PmEvent),
    /// User → kernel command.
    Command {
        /// Sequence number (echoed in the reply).
        seq: u32,
        /// The command.
        cmd: PmNlCommand,
    },
    /// Kernel → user reply to `GetInfo`.
    InfoReply {
        /// Echoed sequence number.
        seq: u32,
        /// Connection token.
        token: ConnToken,
        /// Connection-level `(snd_una, snd_nxt)` in data-stream offsets.
        conn: Option<(u64, u64)>,
        /// Per-subflow snapshots.
        subflows: Vec<(SubflowId, TcpInfo)>,
    },
    /// Kernel → user acknowledgment (errno 0 = success).
    Ack {
        /// Echoed sequence number.
        seq: u32,
        /// errno-style code, 0 on success.
        errno: u16,
    },
    /// Sockdiag-style dump: one [`DiagConn`] per matched connection, in
    /// creation order.
    DiagReply {
        /// Sequence number (the probe's index on its host).
        seq: u32,
        /// Per-connection snapshots.
        conns: Vec<DiagConn>,
    },
}

/// One connection's worth of live state in a [`PmNlMessage::DiagReply`] —
/// the simulation's `ss`/sockdiag equivalent. Everything here is read
/// straight off the running stack without perturbing it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiagConn {
    /// Connection token.
    pub token: ConnToken,
    /// Coarse connection state.
    pub state: ConnState,
    /// True once the stack inferred a plain-TCP fallback.
    pub fallback_inferred: bool,
    /// Data-level first unacknowledged offset (`snd_una`).
    pub meta_una: u64,
    /// Data-level next offset to send (`snd_nxt`).
    pub meta_snd_nxt: u64,
    /// Send-side stream tap `(bytes, digest)`.
    pub tap_sent: (u64, u64),
    /// Receive-side stream tap `(bytes, digest)`.
    pub tap_recvd: (u64, u64),
    /// Meta-level reinjections performed so far.
    pub reinjections: u64,
    /// Per-subflow TCP_INFO snapshots (RTT, cwnd, state, …), live
    /// subflows only, in subflow-id order.
    pub subflows: Vec<(SubflowId, TcpInfo)>,
}

listing! {
    PmEvent {
        EV_CREATED = 1 => ConnCreated {
            token: TOKEN, initial_subflow: SUBFLOW_ID, is_client: IS_CLIENT, tuple: SADDR,
        },
        EV_ESTAB = 2 => ConnEstablished { token: TOKEN, is_client: IS_CLIENT, tuple: SADDR },
        EV_CLOSED = 3 => ConnClosed { token: TOKEN },
        EV_SUB_ESTAB = 4 => SubflowEstablished {
            token: TOKEN, id: SUBFLOW_ID, backup: BACKUP, initiated_here: INITIATED, tuple: SADDR,
        },
        EV_SUB_CLOSED = 5 => SubflowClosed {
            token: TOKEN, id: SUBFLOW_ID, error: ERROR, tuple: SADDR,
        },
        EV_ADD_ADDR = 6 => AddAddrReceived {
            token: TOKEN, addr_id: ADDR_ID, addr: ADDR, port: PORT,
        },
        EV_REM_ADDR = 7 => RemAddrReceived { token: TOKEN, addr_id: ADDR_ID },
        EV_TIMEOUT = 8 => RtoExpired {
            token: TOKEN, id: SUBFLOW_ID, current_rto: RTO_US, backoffs: BACKOFFS,
        },
        EV_NEW_LOCAL_ADDR = 9 => LocalAddrUp { addr: ADDR },
        EV_DEL_LOCAL_ADDR = 10 => LocalAddrDown { addr: ADDR },
    };
    PmAction {
        CMD_SUB_CREATE = 33 => OpenSubflow {
            token: TOKEN, src: SADDR, src_port: SPORT, dst: DADDR, dst_port: DPORT, backup: BACKUP,
        },
        CMD_SUB_CLOSE = 34 => CloseSubflow { token: TOKEN, id: SUBFLOW_ID, reset: RESET },
        CMD_SET_BACKUP = 35 => SetBackup { token: TOKEN, id: SUBFLOW_ID, backup: BACKUP },
        CMD_ANNOUNCE_ADDR = 37 => AnnounceAddr { token: TOKEN, addr_id: ADDR_ID, addr: ADDR },
        CMD_WITHDRAW_ADDR = 38 => WithdrawAddr { token: TOKEN, addr_id: ADDR_ID },
    };
    PmNlCommand {
        CMD_SUBSCRIBE = 32 => Subscribe { mask: MASK },
        CMD_GET_INFO = 36 => GetInfo { token: TOKEN, id: SUBFLOW_ID },
    } wraps { Action { 0: PmAction }, };
    PmNlMessage {
        REPLY_INFO = 64 => InfoReply(seq) {
            token: TOKEN, conn: DATA_SND_UNA, subflows: SUBFLOW_NEST,
        },
        REPLY_ACK = 65 => Ack(seq) { errno: ERROR },
        REPLY_DIAG = 66 => DiagReply(seq) { conns: CONN_NEST },
    } wraps { Event { 0: PmEvent }, Command(seq) { cmd: PmNlCommand }, };
}

nest! { DiagConn {
    token: TOKEN, state: CONN_STATE, fallback_inferred: FALLBACK, meta_una: DATA_SND_UNA,
    meta_snd_nxt: DATA_SND_NXT, tap_sent: TAP_SENT_BYTES, tap_recvd: TAP_RECVD_BYTES,
    reinjections: REINJECTIONS, subflows: SUBFLOW_NEST,
} }

nest! { (id: SUBFLOW_ID, info: TCP_INFO): (SubflowId, TcpInfo) }

tcp_info_blob! {
    version 1;
    state: TcpStateInfo, backup: Padded<bool>, srtt_us: u64, rttvar_us: u64, rto_us: u64,
    cwnd: u64, ssthresh: u64, pacing_rate: u64, snd_una: u64, snd_nxt: u64, in_flight: u64,
    bytes_acked: u64, backoffs: u32, retrans: u64,
}

fn frame(m: &impl Listed, flags: u16, seq: u32, pid: u32) -> Bytes {
    let genl = GenlMsgHdr {
        cmd: m.cmd(),
        version: FAMILY_VERSION,
    };
    let mut b = FrameBuilder::new(FAMILY_ID, flags, seq, pid, genl);
    m.put_attrs(&mut b);
    b.finish()
}

/// Encode a kernel event as a netlink frame.
pub fn encode_event(ev: &PmEvent) -> Bytes {
    frame(ev, 0, 0, KERNEL_PID)
}

/// Encode a userspace command.
pub fn encode_command(seq: u32, c: &PmNlCommand) -> Bytes {
    frame(c, NLM_F_REQUEST, seq, CONTROLLER_PID)
}

/// Encode a kernel reply (`InfoReply`, `Ack`, `DiagReply`), or any other
/// message of the family, framed as [`encode_event`] or [`encode_command`] would.
pub fn encode_reply(m: &PmNlMessage) -> Bytes {
    match m {
        PmNlMessage::Event(ev) => encode_event(ev),
        PmNlMessage::Command { seq, cmd } => encode_command(*seq, cmd),
        PmNlMessage::InfoReply { seq, .. }
        | PmNlMessage::Ack { seq, .. }
        | PmNlMessage::DiagReply { seq, .. } => frame(m, 0, *seq, KERNEL_PID),
    }
}

/// Decode any frame of the family.
pub fn decode(bytes: &[u8]) -> Result<PmNlMessage, NlError> {
    let mut m = PmNlMessage::Ack { seq: 0, errno: 0 };
    decode_into(bytes, &mut m).map(|()| m)
}

/// Decode any frame of the family into `m`: afterwards `m` equals what
/// [`decode`] returns. A frame of the kind `m` holds reuses the capacity
/// of its vectors, so a reply read into the previous reply of its kind
/// allocates nothing. On an error `m` holds some message of the family.
pub fn decode_into(bytes: &[u8], m: &mut PmNlMessage) -> Result<(), NlError> {
    let f = Frame::parse(bytes)?;
    let attrs = attr_map(f.attrs())?;
    let known = m.read_attrs(f.genl.cmd, f.hdr.seq, &attrs)?;
    known.then_some(()).ok_or(NlError::UnknownCmd(f.genl.cmd))
}

/// An enum of the family: each variant has a command number and a listing.
trait Listed: Sized {
    /// The command number of this value's variant.
    fn cmd(&self) -> u8;
    /// Append this value's attributes.
    fn put_attrs(&self, b: &mut FrameBuilder);
    /// The variant numbered `cmd`, every field at its default; `None` when
    /// no variant has that number.
    fn blank(cmd: u8) -> Option<Self>;
    /// Read the variant numbered `cmd` into `self` (`seq` from the netlink
    /// header), in the fields `self` has when it is that variant already;
    /// `false` when no variant has that number.
    fn read_attrs(&mut self, cmd: u8, seq: u32, a: &Attrs<'_>) -> Result<bool, NlError>;
}

/// Implements [`Listed`] for each enum from one line per variant, in wire
/// order: `CMD = number => Variant { field: ATTR, … }`, where
/// `Variant(seq)` also fills the field `seq` from the netlink header. The
/// variants after `wraps` each carry a message of another listed enum in
/// one field. Also defines the `cmd` module of command numbers.
macro_rules! listing {
    ($($ty:ident {
        $($cmd:ident = $num:literal => $var:ident $(($hdr:ident))? {
            $($f:ident: $attr:ident),* $(,)?
        },)*
    } $(wraps { $($wvar:ident $(($whdr:ident))? { $wf:tt: $wty:ty },)* })?;)*) => {
        /// Family command numbers.
        pub mod cmd {
            $($(
                #[doc = concat!("`", stringify!($ty), "::", stringify!($var), "`.")]
                pub const $cmd: u8 = $num;
            )*)*
        }

        $(impl Listed for $ty {
            fn cmd(&self) -> u8 {
                match self {
                    $($ty::$var { .. } => cmd::$cmd,)*
                    $($($ty::$wvar { $wf: inner, .. } => inner.cmd(),)*)?
                }
            }

            fn put_attrs(&self, b: &mut FrameBuilder) {
                match self {
                    $($ty::$var { $($f,)* .. } => { $(Field::put($f, b, attr::$attr);)* })*
                    $($($ty::$wvar { $wf: inner, .. } => inner.put_attrs(b),)*)?
                }
            }

            fn blank(c: u8) -> Option<Self> {
                Some(match c {
                    $(cmd::$cmd => $ty::$var {
                        $($hdr: 0,)?
                        $($f: Default::default(),)*
                    },)*
                    _ => {
                        $($(if let Some(inner) = <$wty>::blank(c) {
                            return Some($ty::$wvar { $($whdr: 0,)? $wf: inner });
                        })*)?
                        return None;
                    }
                })
            }

            fn read_attrs(&mut self, c: u8, seq: u32, a: &Attrs<'_>) -> Result<bool, NlError> {
                if self.cmd() != c {
                    let Some(blank) = Self::blank(c) else {
                        return Ok(false);
                    };
                    *self = blank;
                }
                let _ = seq;
                match self {
                    $($ty::$var { $($hdr,)? $($f,)* } => {
                        $(*$hdr = seq;)?
                        $(Field::read($f, a, attr::$attr)?;)*
                    })*
                    $($($ty::$wvar { $($whdr,)? $wf: inner } => {
                        $(*$whdr = seq;)?
                        inner.read_attrs(c, seq, a)?;
                    })*)?
                }
                Ok(true)
            }
        })*
    };
}
use listing;

/// The attributes inside one nested attribute; a `Vec` of them is a
/// repeated nest.
trait Nest: Default {
    fn put_attrs(&self, b: &mut FrameBuilder);
    fn read_attrs(&mut self, a: &Attrs<'_>) -> Result<(), NlError>;
}

/// Implements [`Nest`] from one listing in wire order, for a struct
/// (`Type { field: ATTR, … }`) or a tuple (`(name: ATTR, …): Type`).
macro_rules! nest {
    ($ty:ident { $($f:ident: $attr:ident,)* }) => {
        impl Nest for $ty {
            fn put_attrs(&self, b: &mut FrameBuilder) {
                $(Field::put(&self.$f, b, attr::$attr);)*
            }
            fn read_attrs(&mut self, a: &Attrs<'_>) -> Result<(), NlError> {
                $(Field::read(&mut self.$f, a, attr::$attr)?;)*
                Ok(())
            }
        }
    };
    (($($f:ident: $attr:ident),*): $ty:ty) => {
        impl Nest for $ty {
            fn put_attrs(&self, b: &mut FrameBuilder) {
                let ($($f),*) = self;
                $(Field::put($f, b, attr::$attr);)*
            }
            fn read_attrs(&mut self, a: &Attrs<'_>) -> Result<(), NlError> {
                let ($($f),*) = self;
                $(Field::read($f, a, attr::$attr)?;)*
                Ok(())
            }
        }
    };
}
use nest;

/// Defines the `TCP_INFO` blob (Linux ships `struct tcp_info` as one
/// binary attribute) from its version byte and its fields in order, each
/// with the kind that gives its width; the length is the sum.
macro_rules! tcp_info_blob {
    (version $v:literal; $($f:ident: $k:ty,)*) => {
        const TCP_INFO_BLOB_VERSION: u8 = $v;
        const TCP_INFO_BLOB_LEN: usize = 1 $(+ <$k as Blob>::WIDTH)*;

        fn put_tcp_info(i: &TcpInfo, b: &mut BytesMut) {
            b.put_u8(TCP_INFO_BLOB_VERSION);
            $(<$k as Blob>::put(i.$f, b);)*
        }

        /// `None` when the blob is short or of another version.
        fn take_tcp_info(blob: &[u8]) -> Option<TcpInfo> {
            let Some((&TCP_INFO_BLOB_VERSION, mut rest)) = blob.split_first() else {
                return None;
            };
            Some(TcpInfo { $($f: <$k as Blob>::take(&mut rest)?,)* })
        }
    };
}
use tcp_info_blob;

/// How one kind of field rides in attributes: appended under attribute
/// `ty`, found again in a checked region and read over the value held.
trait Field: Default {
    fn put(&self, b: &mut FrameBuilder, ty: u16);
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError>;
    /// Whether the field is on the wire at all; `Option` reads it only then.
    fn present(a: &Attrs<'_>, ty: u16) -> bool {
        find_attr_opt(a, ty).is_some()
    }
}

macro_rules! scalar_field {
    ($($t:ty: $put:ident, $as:ident;)*) => {$(
        impl Field for $t {
            fn put(&self, b: &mut FrameBuilder, ty: u16) {
                b.$put(ty, *self);
            }
            fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
                *self = find_attr(a, ty)?.$as()?;
                Ok(())
            }
        }
    )*};
}

scalar_field! {
    u8: attr_u8, as_u8;
    u16: attr_u16, as_u16;
    u32: attr_u32, as_u32;
    u64: attr_u64, as_u64;
}

/// A value carried as another kind (`Raw`), in an attribute or the blob.
trait Via: Copy + Default {
    type Raw;
    fn raw(self) -> Self::Raw;
    fn cook(raw: Self::Raw) -> Self;
}

macro_rules! via {
    ($($t:ty => $raw:ty: $to:expr, $from:expr;)*) => {$(
        impl Via for $t {
            type Raw = $raw;
            fn raw(self) -> $raw {
                let to: fn($t) -> $raw = $to;
                to(self)
            }
            fn cook(raw: $raw) -> Self {
                let from: fn($raw) -> $t = $from;
                from(raw)
            }
        }
    )*};
}

via! {
    bool => u8: |v| v as u8, |raw| raw != 0;
    Addr => u32: |a| a.0, Addr;
    Duration => u64: |d| d.as_micros() as u64, Duration::from_micros;
    SubflowError => u16: SubflowError::errno, SubflowError::from_errno;
    ConnState => u8: |s| state_to_u8(&CONN_STATES, s), |v| state_from_u8(&CONN_STATES, v);
    TcpStateInfo => u8: |s| state_to_u8(&TCP_STATES, s), |v| state_from_u8(&TCP_STATES, v);
}

impl<T: Via<Raw: Field>> Field for T {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        self.raw().put(b, ty);
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        let mut raw = T::Raw::default();
        raw.read(a, ty)?;
        *self = T::cook(raw);
        Ok(())
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        if let Some(v) = self {
            v.put(b, ty);
        }
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        if !T::present(a, ty) {
            *self = None;
            return Ok(());
        }
        self.get_or_insert_with(T::default).read(a, ty)
    }
}

/// Two `u64` attributes, `ty` and `ty + 1`; present only as a pair.
impl Field for (u64, u64) {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        self.0.put(b, ty);
        self.1.put(b, ty + 1);
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        self.0.read(a, ty)?;
        self.1.read(a, ty + 1)
    }
    fn present(a: &Attrs<'_>, ty: u16) -> bool {
        u64::present(a, ty) && u64::present(a, ty + 1)
    }
}

/// Four attributes from `ty` (`SADDR`): source address and port, destination's.
impl Field for FourTuple {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        self.src.put(b, ty);
        self.src_port.put(b, ty + 1);
        self.dst.put(b, ty + 2);
        self.dst_port.put(b, ty + 3);
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        self.src.read(a, ty)?;
        self.src_port.read(a, ty + 1)?;
        self.dst.read(a, ty + 2)?;
        self.dst_port.read(a, ty + 3)
    }
}

/// The blob, written straight into the frame.
impl Field for TcpInfo {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        b.attr_with(ty, TCP_INFO_BLOB_LEN, |buf| put_tcp_info(self, buf));
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        let blob = find_attr(a, ty)?.payload;
        *self = take_tcp_info(blob).ok_or(NlError::BadAttrLen {
            ty,
            len: blob.len(),
        })?;
        Ok(())
    }
}

/// A repeated nest: one nested attribute `ty` per element, read over the
/// elements held.
impl<T: Nest> Field for Vec<T> {
    fn put(&self, b: &mut FrameBuilder, ty: u16) {
        for item in self {
            b.attr_nested(ty, |inner| item.put_attrs(inner));
        }
    }
    fn read(&mut self, a: &Attrs<'_>, ty: u16) -> Result<(), NlError> {
        let mut n = 0;
        for nest in a.iter().filter(|x| x.ty == ty) {
            if n == self.len() {
                self.push(T::default());
            }
            self[n].read_attrs(&attr_map(nest.nested_attrs())?)?;
            n += 1;
        }
        self.truncate(n);
        Ok(())
    }
}

/// The kind of one value inside the blob: its width and little-endian
/// bytes.
trait Blob {
    type Value;
    const WIDTH: usize;
    fn put(v: Self::Value, b: &mut BytesMut);
    fn take(rest: &mut &[u8]) -> Option<Self::Value>;
}

macro_rules! int_blob {
    ($($t:ty),*) => {$(
        impl Blob for $t {
            type Value = $t;
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(v: $t, b: &mut BytesMut) {
                b.put_slice(&v.to_le_bytes());
            }
            fn take(rest: &mut &[u8]) -> Option<$t> {
                let (v, tail) = rest.split_first_chunk()?;
                *rest = tail;
                Some(<$t>::from_le_bytes(*v))
            }
        }
    )*};
}

int_blob!(u8, u32, u64);

impl<T: Via<Raw: Blob<Value = T::Raw>>> Blob for T {
    type Value = T;
    const WIDTH: usize = T::Raw::WIDTH;
    fn put(v: T, b: &mut BytesMut) {
        T::Raw::put(v.raw(), b);
    }
    fn take(rest: &mut &[u8]) -> Option<T> {
        T::Raw::take(rest).map(T::cook)
    }
}

/// Kind `K` followed by one zero pad byte, which reads back as anything.
struct Padded<K>(PhantomData<K>);

impl<K: Blob> Blob for Padded<K> {
    type Value = K::Value;
    const WIDTH: usize = K::WIDTH + 1;
    fn put(v: K::Value, b: &mut BytesMut) {
        K::put(v, b);
        b.put_u8(0);
    }
    fn take(rest: &mut &[u8]) -> Option<K::Value> {
        let v = K::take(rest)?;
        *rest = rest.get(1..)?;
        Some(v)
    }
}

/// The states a `u8` attribute or blob byte numbers 1, 2, …; any other
/// number reads as the last.
const CONN_STATES: [ConnState; 3] = [
    ConnState::Establishing,
    ConnState::Established,
    ConnState::Closed,
];
const TCP_STATES: [TcpStateInfo; 5] = [
    TcpStateInfo::SynSent,
    TcpStateInfo::SynReceived,
    TcpStateInfo::Established,
    TcpStateInfo::Closing,
    TcpStateInfo::Closed,
];

fn state_to_u8<T: PartialEq>(states: &[T], s: T) -> u8 {
    states
        .iter()
        .position(|x| *x == s)
        .map_or(0, |i| i as u8 + 1)
}

fn state_from_u8<T: Copy>(states: &[T], v: u8) -> T {
    let last = states[states.len() - 1];
    states
        .get(usize::from(v).wrapping_sub(1))
        .copied()
        .unwrap_or(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::{BoxedStrategy, Union, ValueTree};
    use proptest::test_runner::TestRunner;
    use std::time::Duration;

    fn tuple() -> FourTuple {
        FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 43210,
            dst: Addr::new(10, 0, 1, 1),
            dst_port: 80,
        }
    }

    /// One of every event, both `AddAddrReceived` port shapes included.
    fn events() -> Vec<PmEvent> {
        vec![
            PmEvent::ConnCreated {
                token: 0xDEAD_BEEF,
                tuple: tuple(),
                initial_subflow: 0,
                is_client: true,
            },
            PmEvent::ConnEstablished {
                token: 1,
                tuple: tuple(),
                is_client: false,
            },
            PmEvent::ConnClosed { token: 2 },
            PmEvent::SubflowEstablished {
                token: 3,
                id: 2,
                tuple: tuple(),
                backup: true,
                initiated_here: false,
            },
            PmEvent::SubflowClosed {
                token: 4,
                id: 1,
                tuple: tuple(),
                error: SubflowError::Reset,
            },
            PmEvent::AddAddrReceived {
                token: 5,
                addr_id: 2,
                addr: Addr::new(192, 168, 0, 9),
                port: Some(8080),
            },
            PmEvent::AddAddrReceived {
                token: 5,
                addr_id: 2,
                addr: Addr::new(192, 168, 0, 9),
                port: None,
            },
            PmEvent::RemAddrReceived {
                token: 6,
                addr_id: 3,
            },
            PmEvent::RtoExpired {
                token: 7,
                id: 0,
                current_rto: Duration::from_millis(1600),
                backoffs: 3,
            },
            PmEvent::LocalAddrUp {
                addr: Addr::new(10, 0, 9, 9),
            },
            PmEvent::LocalAddrDown {
                addr: Addr::new(10, 0, 9, 9),
            },
        ]
    }

    #[test]
    fn all_events_roundtrip() {
        for ev in events() {
            let got = decode(&encode_event(&ev)).unwrap();
            assert_eq!(got, PmNlMessage::Event(ev));
        }
    }

    /// One of every command, both `GetInfo` shapes included.
    fn commands() -> Vec<PmNlCommand> {
        vec![
            PmNlCommand::Subscribe { mask: 0x3FF },
            PmNlCommand::Action(PmAction::OpenSubflow {
                token: 9,
                src: Addr::new(10, 0, 2, 1),
                src_port: 0,
                dst: Addr::new(10, 0, 1, 1),
                dst_port: 80,
                backup: true,
            }),
            PmNlCommand::Action(PmAction::CloseSubflow {
                token: 9,
                id: 4,
                reset: true,
            }),
            PmNlCommand::Action(PmAction::SetBackup {
                token: 9,
                id: 1,
                backup: false,
            }),
            PmNlCommand::GetInfo { token: 9, id: None },
            PmNlCommand::GetInfo {
                token: 9,
                id: Some(2),
            },
            PmNlCommand::Action(PmAction::AnnounceAddr {
                token: 9,
                addr_id: 5,
                addr: Addr::new(172, 16, 0, 1),
            }),
            PmNlCommand::Action(PmAction::WithdrawAddr {
                token: 9,
                addr_id: 5,
            }),
        ]
    }

    #[test]
    fn all_commands_roundtrip() {
        for c in commands() {
            match decode(&encode_command(77, &c)).unwrap() {
                PmNlMessage::Command { seq, cmd } => {
                    assert_eq!(seq, 77);
                    assert_eq!(cmd, c);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// Put `info` in a frame as the `TCP_INFO` attribute and read it back.
    fn blob_roundtrip(info: &TcpInfo) -> Result<TcpInfo, NlError> {
        let genl = GenlMsgHdr { cmd: 0, version: 0 };
        let mut b = FrameBuilder::new(FAMILY_ID, 0, 0, 0, genl);
        info.put(&mut b, attr::TCP_INFO);
        let bytes = b.finish();
        let f = Frame::parse(&bytes)?;
        let mut got = TcpInfo::default();
        got.read(&attr_map(f.attrs())?, attr::TCP_INFO)?;
        Ok(got)
    }

    #[test]
    fn tcp_info_blob_roundtrip() {
        let info = TcpInfo {
            state: TcpStateInfo::Established,
            srtt_us: 20_000,
            rttvar_us: 5_000,
            rto_us: 200_000,
            backoffs: 2,
            cwnd: 140_000,
            ssthresh: 70_000,
            pacing_rate: 1_234_567,
            snd_una: 99,
            snd_nxt: 100,
            in_flight: 1,
            bytes_acked: 98,
            retrans: 7,
            backup: true,
        };
        assert_eq!(blob_roundtrip(&info).unwrap(), info);
    }

    #[test]
    fn tcp_info_blob_rejects_bad() {
        assert!(take_tcp_info(&[]).is_none());
        let mut blob = BytesMut::new();
        put_tcp_info(&TcpInfo::default(), &mut blob);
        assert_eq!(blob.len(), TCP_INFO_BLOB_LEN);
        blob[0] = 99; // wrong version
        assert!(take_tcp_info(&blob).is_none());
    }

    /// Found by `decode_never_panics_on_hostile_bodies`: the length check
    /// stopped 8 bytes short of `retrans`, so a `TCP_INFO` attribute cut
    /// to 88..95 bytes panicked reading it. Mask 5 turns the attribute's
    /// length 100 into 97: a 93-byte blob inside an otherwise valid frame.
    #[test]
    fn short_tcp_info_blob_in_a_frame_is_an_error() {
        let frame = encode_reply(&info_reply(6, None, infos()[..1].to_vec()));
        let len_at = frame.len() - 4 - TCP_INFO_BLOB_LEN;
        assert_eq!(frame[len_at], (4 + TCP_INFO_BLOB_LEN) as u8);
        let mut v = frame.to_vec();
        v[len_at] ^= 5;
        assert_eq!(
            decode(&v),
            Err(NlError::BadAttrLen {
                ty: attr::TCP_INFO,
                len: 93
            })
        );
        let mut blob = BytesMut::new();
        put_tcp_info(&TcpInfo::default(), &mut blob);
        for len in 88..TCP_INFO_BLOB_LEN {
            assert!(take_tcp_info(&blob[..len]).is_none());
        }
    }

    /// Two subflow snapshots, as an info reply carries them.
    fn infos() -> Vec<(SubflowId, TcpInfo)> {
        vec![
            (
                0u8,
                TcpInfo {
                    srtt_us: 10_000,
                    pacing_rate: 5_000_000,
                    ..Default::default()
                },
            ),
            (
                3u8,
                TcpInfo {
                    srtt_us: 40_000,
                    pacing_rate: 1_000_000,
                    backup: true,
                    ..Default::default()
                },
            ),
        ]
    }

    /// An info reply for connection 0xABCD.
    fn info_reply(
        seq: u32,
        conn: Option<(u64, u64)>,
        subflows: Vec<(SubflowId, TcpInfo)>,
    ) -> PmNlMessage {
        PmNlMessage::InfoReply {
            seq,
            token: 0xABCD,
            conn,
            subflows,
        }
    }

    #[test]
    fn info_reply_roundtrip() {
        let reply = info_reply(42, Some((1000, 2000)), infos());
        assert_eq!(decode(&encode_reply(&reply)).unwrap(), reply);
        // Without conn-level info.
        let reply = info_reply(43, None, vec![]);
        assert_eq!(decode(&encode_reply(&reply)).unwrap(), reply);
    }

    #[test]
    fn ack_roundtrip() {
        let ack = PmNlMessage::Ack { seq: 7, errno: 110 };
        assert_eq!(decode(&encode_reply(&ack)).unwrap(), ack);
    }

    /// A live two-subflow connection and a closed fallback one.
    fn diag_conns() -> Vec<DiagConn> {
        vec![
            DiagConn {
                token: 0xA1,
                state: ConnState::Established,
                fallback_inferred: false,
                meta_una: 4_000,
                meta_snd_nxt: 6_500,
                tap_sent: (6_500, 0xDEAD),
                tap_recvd: (1_200, 0xBEEF),
                reinjections: 2,
                subflows: vec![
                    (
                        0u8,
                        TcpInfo {
                            srtt_us: 12_000,
                            cwnd: 20_000,
                            ..Default::default()
                        },
                    ),
                    (
                        1u8,
                        TcpInfo {
                            srtt_us: 55_000,
                            backup: true,
                            ..Default::default()
                        },
                    ),
                ],
            },
            DiagConn {
                token: 0xB2,
                state: ConnState::Closed,
                fallback_inferred: true,
                meta_una: 0,
                meta_snd_nxt: 0,
                tap_sent: (0, 0xcbf29ce484222325),
                tap_recvd: (0, 0xcbf29ce484222325),
                reinjections: 0,
                subflows: vec![],
            },
        ]
    }

    #[test]
    fn diag_reply_roundtrip() {
        let reply = PmNlMessage::DiagReply {
            seq: 21,
            conns: diag_conns(),
        };
        assert_eq!(decode(&encode_reply(&reply)).unwrap(), reply);
        // An empty dump still decodes.
        let empty = PmNlMessage::DiagReply {
            seq: 22,
            conns: vec![],
        };
        assert_eq!(decode(&encode_reply(&empty)).unwrap(), empty);
    }

    #[test]
    fn conn_state_u8_roundtrip() {
        for s in [
            ConnState::Establishing,
            ConnState::Established,
            ConnState::Closed,
        ] {
            assert_eq!(ConnState::cook(s.raw()), s);
        }
    }

    #[test]
    fn unknown_cmd_rejected() {
        // 39 is no command: the family has no userspace dump request.
        for cmd in [39, 200] {
            let genl = GenlMsgHdr { cmd, version: 1 };
            let mut b = FrameBuilder::new(FAMILY_ID, 0, 0, 0, genl);
            b.attr_u32(attr::TOKEN, 1);
            let bytes = b.finish();
            assert_eq!(decode(&bytes), Err(NlError::UnknownCmd(cmd)));
        }
    }

    /// The frames whose bytes are pinned: each event and command, info
    /// replies with and without connection-level offsets and one with no
    /// subflows, a failed ack, and a two-connection and an empty diag reply.
    fn pinned_frames() -> Vec<Bytes> {
        let mut msgs: Vec<PmNlMessage> = events().into_iter().map(PmNlMessage::Event).collect();
        msgs.extend(
            commands()
                .into_iter()
                .map(|cmd| PmNlMessage::Command { seq: 5, cmd }),
        );
        msgs.extend([
            info_reply(6, Some((1000, 2000)), infos()),
            info_reply(7, None, infos()),
            info_reply(8, Some((3, 4)), vec![]),
            PmNlMessage::Ack { seq: 9, errno: 110 },
            PmNlMessage::DiagReply {
                seq: 10,
                conns: diag_conns(),
            },
            PmNlMessage::DiagReply {
                seq: 11,
                conns: vec![],
            },
        ]);
        msgs.iter().map(encode_reply).collect()
    }

    /// `(length, FNV-1a 64 digest)` of each of [`pinned_frames`], in order.
    const PINNED: [(usize, u64); 25] = [
        (76, 0x148c1447960ef678),
        (68, 0xe2e7fac12177a29e),
        (28, 0x50aeb9ae92a39ed3),
        (84, 0x4e5c0861406f34a3),
        (76, 0x5be6e31419ab5ec6),
        (52, 0x38f345ab464aa30e),
        (44, 0xc5e0b06b21c6ca0c),
        (36, 0x5ae0def3a874af11),
        (56, 0x0995c194902aa408),
        (28, 0x01c3e411e47c8e95),
        (28, 0x5047b60db48595ca),
        (28, 0xb4a5a167359060d3),
        (68, 0xa76a0036354139a0),
        (44, 0x3e24c1382251a70f),
        (44, 0x36f55895d5f8bf10),
        (28, 0xd392ef9b827fdc9b),
        (36, 0xeb2d1e529b6307a6),
        (44, 0xa0bed6d50c18d804),
        (36, 0xa8047c6de883d089),
        (276, 0x3d87413ec714570d),
        (252, 0xd30ce9d71969b4aa),
        (52, 0xac6fc7695677b5bc),
        (28, 0xcae27a74f0c7761b),
        (468, 0x692bd1a5528ef6d3),
        (20, 0x5c003f8f0f8c766e),
    ];

    #[test]
    fn frames_keep_their_recorded_bytes() {
        let fnv = |b: &[u8]| {
            b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ x as u64).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let got: Vec<(usize, u64)> = pinned_frames().iter().map(|f| (f.len(), fnv(f))).collect();
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    ({n}, {d:#018x}),\n"))
            .collect();
        assert_eq!(got, PINNED, "frame bytes moved; new table:\n{table}");
    }

    fn addr() -> impl Strategy<Value = Addr> {
        any::<u32>().prop_map(Addr)
    }

    fn four_tuple() -> impl Strategy<Value = FourTuple> {
        (addr(), any::<u16>(), addr(), any::<u16>()).prop_map(|(src, src_port, dst, dst_port)| {
            FourTuple {
                src,
                src_port,
                dst,
                dst_port,
            }
        })
    }

    fn subflow_error() -> impl Strategy<Value = SubflowError> {
        (0usize..7).prop_map(|i| {
            [
                SubflowError::None,
                SubflowError::Timeout,
                SubflowError::Reset,
                SubflowError::Refused,
                SubflowError::NetUnreachable,
                SubflowError::IfaceDown,
                SubflowError::PmRequested,
            ][i]
        })
    }

    fn tcp_info() -> impl Strategy<Value = TcpInfo> {
        let head = (
            (0..TCP_STATES.len()).prop_map(|i| TCP_STATES[i]),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        );
        let tail = (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
        );
        (head, tail).prop_map(
            |(
                (state, backup, srtt_us, rttvar_us, rto_us, cwnd, ssthresh),
                (pacing_rate, snd_una, snd_nxt, in_flight, bytes_acked, backoffs, retrans),
            )| TcpInfo {
                state,
                srtt_us,
                rttvar_us,
                rto_us,
                backoffs,
                cwnd,
                ssthresh,
                pacing_rate,
                snd_una,
                snd_nxt,
                in_flight,
                bytes_acked,
                retrans,
                backup,
            },
        )
    }

    /// Up to `max` subflow snapshots.
    fn subflows(max: usize) -> impl Strategy<Value = Vec<(SubflowId, TcpInfo)>> {
        proptest::collection::vec((any::<u8>(), tcp_info()), 0..max + 1)
    }

    fn diag_conn() -> impl Strategy<Value = DiagConn> {
        let head = (
            any::<u32>(),
            (0..CONN_STATES.len()).prop_map(|i| CONN_STATES[i]),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
        );
        let tail = (
            (any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>()),
            any::<u64>(),
            subflows(2),
        );
        (head, tail).prop_map(
            |(
                (token, state, fallback_inferred, meta_una, meta_snd_nxt),
                (tap_sent, tap_recvd, reinjections, subflows),
            )| DiagConn {
                token,
                state,
                fallback_inferred,
                meta_una,
                meta_snd_nxt,
                tap_sent,
                tap_recvd,
                reinjections,
                subflows,
            },
        )
    }

    fn event(s: impl Strategy<Value = PmEvent> + 'static) -> BoxedStrategy<PmNlMessage> {
        s.prop_map(PmNlMessage::Event).boxed()
    }

    fn command(s: impl Strategy<Value = PmNlCommand> + 'static) -> BoxedStrategy<PmNlMessage> {
        (any::<u32>(), s)
            .prop_map(|(seq, cmd)| PmNlMessage::Command { seq, cmd })
            .boxed()
    }

    fn action(s: impl Strategy<Value = PmAction> + 'static) -> BoxedStrategy<PmNlMessage> {
        command(s.prop_map(PmNlCommand::Action))
    }

    /// One generator per message kind, every field drawn at random.
    fn kinds() -> Vec<BoxedStrategy<PmNlMessage>> {
        let token = any::<u32>;
        let id = any::<u8>;
        vec![
            event((token(), four_tuple(), id(), any::<bool>()).prop_map(
                |(token, tuple, initial_subflow, is_client)| PmEvent::ConnCreated {
                    token,
                    tuple,
                    initial_subflow,
                    is_client,
                },
            )),
            event(
                (token(), four_tuple(), any::<bool>()).prop_map(|(token, tuple, is_client)| {
                    PmEvent::ConnEstablished {
                        token,
                        tuple,
                        is_client,
                    }
                }),
            ),
            event(token().prop_map(|token| PmEvent::ConnClosed { token })),
            event(
                (token(), id(), four_tuple(), any::<bool>(), any::<bool>()).prop_map(
                    |(token, id, tuple, backup, initiated_here)| PmEvent::SubflowEstablished {
                        token,
                        id,
                        tuple,
                        backup,
                        initiated_here,
                    },
                ),
            ),
            event((token(), id(), four_tuple(), subflow_error()).prop_map(
                |(token, id, tuple, error)| PmEvent::SubflowClosed {
                    token,
                    id,
                    tuple,
                    error,
                },
            )),
            event(
                (token(), id(), addr(), proptest::option::of(any::<u16>())).prop_map(
                    |(token, addr_id, addr, port)| PmEvent::AddAddrReceived {
                        token,
                        addr_id,
                        addr,
                        port,
                    },
                ),
            ),
            event(
                (token(), id())
                    .prop_map(|(token, addr_id)| PmEvent::RemAddrReceived { token, addr_id }),
            ),
            event((token(), id(), any::<u64>(), any::<u32>()).prop_map(
                |(token, id, us, backoffs)| PmEvent::RtoExpired {
                    token,
                    id,
                    current_rto: Duration::from_micros(us),
                    backoffs,
                },
            )),
            event(addr().prop_map(|addr| PmEvent::LocalAddrUp { addr })),
            event(addr().prop_map(|addr| PmEvent::LocalAddrDown { addr })),
            command(any::<u32>().prop_map(|mask| PmNlCommand::Subscribe { mask })),
            command(
                (token(), proptest::option::of(id()))
                    .prop_map(|(token, id)| PmNlCommand::GetInfo { token, id }),
            ),
            action(
                (
                    token(),
                    addr(),
                    any::<u16>(),
                    addr(),
                    any::<u16>(),
                    any::<bool>(),
                )
                    .prop_map(|(token, src, src_port, dst, dst_port, backup)| {
                        PmAction::OpenSubflow {
                            token,
                            src,
                            src_port,
                            dst,
                            dst_port,
                            backup,
                        }
                    }),
            ),
            action(
                (token(), id(), any::<bool>())
                    .prop_map(|(token, id, reset)| PmAction::CloseSubflow { token, id, reset }),
            ),
            action(
                (token(), id(), any::<bool>())
                    .prop_map(|(token, id, backup)| PmAction::SetBackup { token, id, backup }),
            ),
            action((token(), id(), addr()).prop_map(|(token, addr_id, addr)| {
                PmAction::AnnounceAddr {
                    token,
                    addr_id,
                    addr,
                }
            })),
            action(
                (token(), id())
                    .prop_map(|(token, addr_id)| PmAction::WithdrawAddr { token, addr_id }),
            ),
            (
                any::<u32>(),
                token(),
                proptest::option::of((any::<u64>(), any::<u64>())),
                subflows(3),
            )
                .prop_map(|(seq, token, conn, subflows)| PmNlMessage::InfoReply {
                    seq,
                    token,
                    conn,
                    subflows,
                })
                .boxed(),
            (any::<u32>(), any::<u16>())
                .prop_map(|(seq, errno)| PmNlMessage::Ack { seq, errno })
                .boxed(),
            (any::<u32>(), proptest::collection::vec(diag_conn(), 0..3))
                .prop_map(|(seq, conns)| PmNlMessage::DiagReply { seq, conns })
                .boxed(),
        ]
    }

    proptest::proptest! {
        #[test]
        fn every_message_roundtrips(m in Union::new(kinds())) {
            prop_assert_eq!(decode(&encode_reply(&m)), Ok(m));
        }
    }

    /// The [`pinned_frames`], whose replies always carry `TCP_INFO` blobs
    /// and nests, then two frames of every message kind, drawn from
    /// [`kinds`].
    fn every_frame() -> Vec<Bytes> {
        let mut runner = TestRunner::deterministic();
        let kinds = kinds();
        let drawn = (0..2)
            .flat_map(|_| &kinds)
            .map(|k| encode_reply(&k.new_tree(&mut runner).unwrap().current()));
        pinned_frames().into_iter().chain(drawn).collect()
    }

    /// Each of [`every_frame`] read into each message of the family
    /// decodes to, one after another into one message, and into a fresh
    /// copy of each: the same result as [`decode`], whatever the target
    /// held — another kind, or the same kind with more or fewer subflows
    /// and connections. Frames cut short by one attribute's worth, with
    /// the header length agreeing, bring in the errors and what a failed
    /// read leaves behind.
    #[test]
    fn decode_into_agrees_with_decode_whatever_the_target_held() {
        let frames = every_frame();
        let targets: Vec<PmNlMessage> = frames.iter().map(|f| decode(f).unwrap()).collect();
        let cut = frames.iter().map(|f| relength(f[..f.len() - 4].to_vec()));
        let inputs: Vec<Vec<u8>> = frames.iter().map(|f| f.to_vec()).chain(cut).collect();
        assert!(inputs.iter().any(|i| decode(i).is_err()));
        let mut kept = PmNlMessage::Ack { seq: 0, errno: 0 };
        for target in &targets {
            for input in &inputs {
                let want = decode(input);
                let mut m = target.clone();
                assert_eq!(decode_into(input, &mut m).map(|()| m), want);
                let got = decode_into(input, &mut kept);
                assert_eq!(got.map(|()| kept.clone()), want);
            }
        }
    }

    /// Rewrite `nlmsghdr.len` to the buffer's length, so that a cut or
    /// extended frame passes `Frame::parse` and the damage reaches the
    /// family's attribute decoding.
    fn relength(mut v: Vec<u8>) -> Vec<u8> {
        if v.len() >= 4 {
            let len = v.len() as u32;
            v[..4].copy_from_slice(&len.to_le_bytes());
        }
        v
    }

    proptest::proptest! {
        #[test]
        fn decode_never_panics_on_hostile_bodies(
            mask in 1u8..=255,
            cut in proptest::prelude::any::<u16>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..24),
        ) {
            // Returning at all is the property: `Ok` or `Err`, never a panic.
            for frame in every_frame() {
                // One byte flipped, at every position in turn: lengths,
                // types, nest flags and payloads of every attribute.
                for i in 0..frame.len() {
                    let mut v = frame.to_vec();
                    v[i] ^= mask;
                    let _ = decode(&v);
                }
                // Cut short, as received and with the header length agreeing.
                let head = &frame[..cut as usize % frame.len()];
                let _ = decode(head);
                let _ = decode(&relength(head.to_vec()));
                // Extended, likewise.
                let mut v = frame.to_vec();
                v.extend_from_slice(&tail);
                let _ = decode(&v);
                let _ = decode(&relength(v));
            }
        }
    }
}
