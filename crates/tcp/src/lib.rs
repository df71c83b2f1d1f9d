//! # smapp-tcp — TCP protocol mechanics
//!
//! Building blocks for the TCP engine underneath the SMAPP Multipath TCP
//! stack. This crate deliberately contains *mechanisms*, not a socket: the
//! state machine that composes them into subflows lives in `smapp-mptcp`
//! (a Multipath TCP subflow **is** a TCP connection; a plain TCP connection
//! is an MPTCP connection that never grew a second subflow).
//!
//! Modules:
//!
//! * [`seq`] — 32-bit wrapping sequence arithmetic and 64-bit unwrapping.
//! * [`wire`] — the owned TCP segment, over the byte-exact header codec of
//!   `smapp_sim::wire` that it re-exports (MPTCP options are carried
//!   opaquely as option kind 30 and decoded by `smapp-mptcp`).
//! * [`rtt`] — RFC 6298 smoothed RTT estimation.
//! * [`rto`] — retransmission-timeout policy: clamping, exponential
//!   backoff, and the Linux-style give-up after 15 doublings that drives
//!   the paper's §4.2 narrative.
//! * [`cc`] — congestion control: NewReno and the coupled LIA of RFC 6356.
//! * [`buffer`] — send buffer and out-of-order reassembly.
//! * [`flight`] — in-flight segment tracking, Karn's algorithm, cumulative
//!   ACK processing.
//! * [`pacing`] — Linux-style `sk_pacing_rate`, the signal polled by the
//!   paper's §4.4 refresh controller.
//! * [`info`] — the `TCP_INFO`-equivalent snapshot exposed to subflow
//!   controllers.

#![warn(missing_docs)]

pub mod buffer;
pub mod cc;
pub mod check;
pub mod flight;
pub mod info;
pub mod pacing;
pub mod rto;
pub mod rtt;
pub mod seq;
pub mod wire;

pub use buffer::{Reassembly, SendBuffer};
pub use cc::{lia_alpha, CongestionControl, Lia, Reno, ALPHA_SCALE};
pub use check::StreamTap;
pub use flight::{AckResult, Flight, SentSeg};
pub use info::{TcpInfo, TcpStateInfo};
pub use pacing::pacing_rate;
pub use rto::{RtoPolicy, RtoState};
pub use rtt::RttEstimator;
pub use seq::{unwrap_u32, SeqNum};
pub use wire::{
    encode_parts, OptBytes, OptionWriter, TcpFixed, TcpFlags, TcpHeader, TcpOption, TcpOptions,
    TcpSegment, TcpView, WireError, MAX_WINDOW_SCALE, OPT_KIND_MPTCP, OPT_KIND_MSS,
    OPT_KIND_WINDOW_SCALE,
};
