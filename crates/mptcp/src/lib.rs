//! # smapp-mptcp — a Multipath TCP engine (RFC 6824 subset)
//!
//! The data plane of the SMAPP reproduction: connections composed of
//! subflows, with the in-kernel path-manager interface the paper's Netlink
//! path manager plugs into.
//!
//! * [`crypto`] / [`token`] — SHA-1, HMAC-SHA1 and the key→token/IDSN
//!   derivations of RFC 6824.
//! * [`options`] — byte-exact MPTCP option codec (MP_CAPABLE, MP_JOIN,
//!   DSS, ADD_ADDR, REMOVE_ADDR, MP_PRIO, MP_FAIL, MP_FASTCLOSE).
//! * [`subflow`] — per-path TCP machinery.
//! * [`conn`] — the meta socket: handshakes, DSS mappings, scheduling,
//!   reinjection, DATA_FIN teardown.
//! * [`stack`] — per-host connection table, demux (including MP_JOIN by
//!   token), timers, path-manager actions.
//! * [`scheduler`] — lowest-RTT (Linux default), round-robin, redundant.
//! * [`pm`] — the path-manager hook interface ("red interface" in the
//!   paper's Fig. 1) plus event/action types.
//! * [`app`] / [`apps`] — the socket-like application interface and the
//!   experiment workloads.
//! * [`harness`] — a deterministic two-host in-memory harness used by the
//!   protocol tests.
//!
//! ## Example: bulk transfer over the harness
//!
//! ```
//! use smapp_mptcp::harness::{Harness, Side};
//! use smapp_mptcp::apps::{BulkSender, Sink};
//! use smapp_sim::{Addr, SimTime};
//! use std::time::Duration;
//!
//! let mut h = Harness::new(42, Duration::from_millis(10),
//!                          vec![Addr::new(10, 0, 0, 1)],
//!                          vec![Addr::new(10, 0, 1, 1)]);
//! h.b.listen(80, Box::new(|| Box::new(Sink::default())));
//! h.connect(Side::A, 80, Box::new(BulkSender::new(100_000).close_when_done()));
//! h.run_until(SimTime::from_secs(10));
//! let sink = h.b.connections().next().unwrap().app().unwrap()
//!     .as_any().downcast_ref::<Sink>().unwrap();
//! assert_eq!(sink.received, 100_000);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod config;
pub mod conn;
pub mod crypto;
pub mod env;
pub mod harness;
pub mod options;
pub mod pm;
pub mod scheduler;
pub mod stack;
pub mod subflow;
pub mod token;

pub use app::{App, AppCtx, NullApp};
pub use config::{CcAlgo, StackConfig};
pub use conn::{ConnInfo, ConnState, Connection, Role};
pub use env::{ConnectRequest, OutPacket, StackEnv};
pub use options::{Dss, DssMapping, MpOption, MpParseError};
pub use pm::{
    ConnToken, FourTuple, NoopPm, PathManagerHook, PmAction, PmActions, PmEvent, RecordingPm,
    StackView, SubflowError, SubflowId, EVENT_MASK_ALL,
};
pub use scheduler::{LowestRtt, Redundant, RoundRobin, SchedCandidate, Scheduler};
pub use stack::{parse_timer_token, timer_token, HostStack, TimerKind};
pub use subflow::{SfState, Subflow};
pub use token::{idsn_from_key, join_hmac_a, join_hmac_b, token_from_key, Key};
