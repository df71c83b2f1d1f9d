//! # smapp-sim — deterministic discrete-event network simulator
//!
//! This crate is the testbed substrate for the SMAPP reproduction: it plays
//! the role Mininet plays in the paper. It provides
//!
//! * a nanosecond event clock ([`SimTime`]) and a deterministic run loop
//!   ([`Simulator`]) driven by a single seeded RNG ([`SimRng`]),
//! * IP-style packets carrying real L4 wire bytes ([`Packet`]), and the
//!   TCP header reader and writer every layer shares ([`wire`]),
//! * full-duplex links with bandwidth, propagation delay, drop-tail queues
//!   and random loss ([`LinkCfg`], [`LossModel`]),
//! * ECMP routers with per-ingress middlebox [`Stage`]s ([`Router`]),
//! * stateful firewall/NAT middleboxes with idle timeouts ([`Firewall`]),
//! * scripted deterministic network dynamics — link parameter changes,
//!   link/interface flaps, middlebox control — written in one typed
//!   `tc`-style language ([`Netem`] clauses in a [`NetemScript`], see
//!   [`netem`]) whose actions ([`DynAction`], see [`dynamics`]) run
//!   through the event queue,
//! * a tracing facility equivalent to running tcpdump on every link
//!   ([`TraceSink`]),
//! * an always-on protocol-invariant checker built on that tracing
//!   facility ([`Oracle`]): time monotonicity, per-link packet
//!   conservation, TCP/MPTCP wire sanity — composable around any other
//!   sink.
//!
//! Hosts (TCP/MPTCP stacks, applications, subflow controllers) are built in
//! the upper crates by implementing the [`Node`] trait.
//!
//! ## Example
//!
//! ```
//! use smapp_sim::{Simulator, LinkCfg, Addr, Node, Ctx, IfaceId, Packet};
//! use bytes::Bytes;
//!
//! struct Sender;
//! impl Node for Sender {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         let (iface, meta) = ctx.my_ifaces().next().unwrap();
//!         let src = meta.addr;
//!         let pkt = Packet::tcp(src, Addr::new(10, 0, 0, 2),
//!                               Bytes::from_static(&[0, 80, 1, 2]));
//!         ctx.send(iface, pkt);
//!     }
//!     fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! struct Counter(usize);
//! impl Node for Counter {
//!     fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) { self.0 += 1; }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(Box::new(Sender));
//! let b = sim.add_node(Box::new(Counter(0)));
//! let ia = sim.add_iface(a, Addr::new(10, 0, 0, 1), "eth0");
//! let ib = sim.add_iface(b, Addr::new(10, 0, 0, 2), "eth0");
//! sim.connect(ia, ib, LinkCfg::mbps_ms(100, 5));
//! sim.run();
//! assert_eq!(sim.node(b).as_any().downcast_ref::<Counter>().unwrap().0, 1);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod adversary;
pub mod coverage;
pub mod dynamics;
pub(crate) mod equeue;
pub mod firewall;
pub mod hash;
pub mod link;
pub mod netem;
pub mod node;
pub mod oracle;
pub mod packet;
pub mod rewrite;
pub mod rng;
pub mod router;
pub mod spare;
pub mod time;
pub mod trace;
pub mod wire;
pub mod world;

pub use addr::{Addr, AddrPrefix, FlowKey};
pub use adversary::FloodSource;
pub use coverage::Coverage;
pub use dynamics::{DynAction, NodeCommand};
pub use firewall::{DenyPolicy, Firewall};
pub use hash::{FxHashMap, FxHashSet};
pub use link::{Dir, DropReason, Eviction, LinkCfg, LinkDirStats, LinkId, LossModel, ReorderModel};
pub use netem::{LossPct, Netem, NetemScript, OneWayDelay, QueueLen, RateBps};
pub use node::{Iface, IfaceId, Node, NodeId};
pub use oracle::{Oracle, OracleOutcome, Violation};
pub use packet::{
    Frame, IcmpMsg, Packet, PktSummary, UnreachCode, IP_HEADER_LEN, PROTO_ICMP, PROTO_TCP,
};
pub use rng::SimRng;
pub use router::{Router, RouterCounters, Stage};
pub use spare::{Recycle, Spare};
pub use time::{tx_time, SimTime};
pub use trace::{CollectorSink, TraceEvent, TraceKind, TraceSink};
pub use world::{Ctx, InstallPolicy, RunSummary, SimCore, Simulator, StopReason, TimerHandle};
