//! # smapp-pm — path managers and the simulated host
//!
//! The path-manager layer of the SMAPP reproduction:
//!
//! * [`FullMeshPm`] / [`NdiffportsPm`] — the two in-kernel strategies that
//!   shipped with the Linux MPTCP kernel, used as baselines throughout the
//!   paper's evaluation;
//! * [`netlink_pm`] — the paper's contribution on the kernel side: a path
//!   manager that delegates every decision to userspace over netlink;
//! * [`mod@host`] — a complete simulated endpoint ([`Host`]): stack + kernel
//!   path manager + optional userspace controller behind a latency-modeled
//!   netlink boundary, pluggable into `smapp-sim` as a node;
//! * [`topo`] — the paper's Mininet topologies (two-path, ECMP fan,
//!   firewalled) as one-call builders;
//! * [`verify`] — run-level protocol-invariant oracle verdicts: the wire
//!   oracle (`smapp_sim::Oracle`) plus every host's connection taps,
//!   cross-checked, in one [`conclude`] call.

#![warn(missing_docs)]

mod fullmesh;
pub mod host;
mod ndiffports;
pub mod netlink_pm;
pub mod topo;
pub mod verify;

pub use fullmesh::FullMeshPm;
pub use host::{DiagLog, Host};
pub use ndiffports::NdiffportsPm;
pub use netlink_pm::NetlinkPm;
pub use topo::{ecmp, firewalled, host, host_mut, two_path, EcmpNet, FirewalledNet, TwoPathNet};
pub use verify::{conclude, RunVerdict};
