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
//! * [`node`] — the stack and its kernel path manager as one simulator
//!   node: the drive loop every simulated endpoint runs.
//!
//! ## Example: bulk transfer across a router, under the oracle
//!
//! ```
//! use smapp_mptcp::apps::{BulkSender, Sink};
//! use smapp_mptcp::{StackConfig, StackNode};
//! use smapp_sim::{oracle, Addr, AddrPrefix, LinkCfg, Oracle, Router, SimTime, Simulator};
//!
//! let (a, b) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
//! let mut client = StackNode::new(StackConfig::default());
//! let app = BulkSender::new(100_000).close_when_done();
//! client.connect_at(SimTime::ZERO, None, b, 80, Box::new(app));
//! let mut server = StackNode::new(StackConfig::default());
//! server.stack.listen(80, Box::new(|| Box::new(Sink::default())));
//!
//! let mut sim = Simulator::new(42);
//! sim.core.set_trace(Box::new(Oracle::new()));
//! let r = sim.add_node(Box::new(Router::new(0)));
//! let [_, s] = [(client, a), (server, b)].map(|(node, addr)| {
//!     let id = sim.add_node(Box::new(node));
//!     let (iface, port) = (sim.add_iface(id, addr, "eth0"), sim.add_iface(r, addr, "r"));
//!     sim.connect(iface, port, LinkCfg::mbps_ms(10, 5));
//!     sim.with_node(r, |r: &mut Router, _| { r.add_route(AddrPrefix::host(addr), vec![port]); });
//!     id
//! });
//! let run = sim.run_until(SimTime::from_secs(10));
//! assert!(oracle::conclude(&mut sim.core, &run).violations.is_empty());
//! let server = sim.node_as::<StackNode>(s).unwrap();
//! let sink = server.stack.connections().next().unwrap().app().unwrap()
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
pub mod node;
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
pub use node::{StackNode, Subscription};
pub use options::{Dss, DssMapping, MpOption, MpParseError};
pub use pm::{
    ConnToken, FourTuple, NoopPm, PathManagerHook, PmAction, PmActions, PmEvent, StackView,
    SubflowError, SubflowId, EVENT_MASK_ALL,
};
pub use scheduler::{LowestRtt, Redundant, RoundRobin, SchedCandidate, Scheduler};
pub use stack::{parse_timer_token, timer_token, HostStack, TimerKind};
pub use subflow::{SfState, Subflow};
pub use token::{idsn_from_key, join_hmac_a, join_hmac_b, token_from_key, Key};

// The protocol suite's two-host world, shared with the unit tests, which
// name this crate as its users do.
#[cfg(test)]
extern crate self as smapp_mptcp;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod world;
