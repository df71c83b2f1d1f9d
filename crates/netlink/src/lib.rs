//! # smapp-netlink — the Netlink boundary of the SMAPP architecture
//!
//! The paper's central artifact is a Netlink path manager: a kernel module
//! that re-exposes the in-kernel path-manager interface as a generic
//! netlink family, plus a userspace library hiding the framing. This crate
//! provides the shared vocabulary of that boundary:
//!
//! * [`wire`] — byte-level `nlmsghdr` / `genlmsghdr` / TLV attribute
//!   framing (RFC 3549 shapes, Linux alignment rules);
//! * [`family`] — the `mptcp_pm` family: every §3 event and command of the
//!   paper, and the kernel's replies, each listed once (command number and
//!   attributes in wire order) and encoded to and decoded from real
//!   netlink frames from that listing;
//! * [`channel`] — the user/kernel boundary cost model ([`LatencyModel`])
//!   and the [`UserProcess`] trait that subflow controllers implement.
//!
//! The kernel side of the boundary (`NetlinkPm`) lives in `smapp-pm`; the
//! userspace side (the controller runtime) in the `smapp` core crate.

#![warn(missing_docs)]

pub mod channel;
pub mod family;
pub mod wire;

pub use channel::{LatencyModel, UserCtx, UserProcess};
pub use family::{
    cmd, decode, decode_into, encode_command, encode_event, encode_reply, DiagConn, PmNlCommand,
    PmNlMessage, CONTROLLER_PID, FAMILY_ID, FAMILY_VERSION, KERNEL_PID,
};
pub use wire::{Attr, AttrIter, Frame, FrameBuilder, GenlMsgHdr, NlError, NlMsgHdr};
