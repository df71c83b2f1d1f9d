//! # smapp — Smart Multipath TCP-enabled APPlications
//!
//! A Rust reproduction of *SMAPP: Towards Smart Multipath TCP-enabled
//! APPlications* (Hesmans, Detal, Barré, Bauduin, Bonaventure —
//! CoNEXT '15). The paper separates Multipath TCP's control plane from its
//! data plane: the kernel keeps moving bytes, while *which subflows exist*
//! is delegated over netlink to a userspace **subflow controller** that
//! knows what the application actually wants.
//!
//! This crate is the userspace side plus the paper's four controllers:
//!
//! * [`SubflowController`] / [`ControllerRuntime`] / [`ControlApi`] — the
//!   netlink library (the paper's 1900-line C library): write your own
//!   controller against decoded events and typed commands; the runtime
//!   speaks netlink for you, numbering commands through its [`PmClient`].
//! * [`controllers`] — the §4 use cases: userspace full-mesh with
//!   re-establishment, break-before-make backup, smart streaming, and the
//!   ECMP refresh controller.
//! * [`InUserspace`] — runs a kernel path manager from `smapp-pm`
//!   unchanged as a controller, so a policy is written once: the §4.5
//!   [`NdiffportsController`] is the kernel ndiffports behind netlink,
//!   and [`FullMeshController`] is the kernel full mesh plus §4.1's
//!   re-establishment.
//!
//! Everything below the netlink boundary lives in the sibling crates:
//! `smapp-mptcp` (the MPTCP engine), `smapp-pm` (kernel path managers and
//! the host), `smapp-sim` (the deterministic network simulator used as the
//! testbed), `smapp-netlink` (the wire protocol).
//!
//! ## Quickstart
//!
//! ```
//! use smapp::prelude::*;
//! use smapp_mptcp::apps::{BulkSender, Sink};
//!
//! // Client with the §4.4 refresh controller, over an ECMP fabric.
//! let controller = RefreshController::new(RefreshConfig::default());
//! let mut client = Host::new("client", StackConfig::default())
//!     .with_user(ControllerRuntime::boxed(controller), LatencyModel::idle_host());
//! client.connect_at(
//!     SimTime::from_millis(10),
//!     None,
//!     smapp_pm::topo::SERVER_ADDR,
//!     80,
//!     Box::new(BulkSender::new(1_000_000).close_when_done().stop_sim_when_acked()),
//! );
//! let mut server = Host::new("server", StackConfig::default());
//! server.listen(80, Box::new(|| Box::new(Sink::default())));
//!
//! let paths: Vec<LinkCfg> = (1..=4).map(|i| LinkCfg::mbps_ms(8, 10 * i)).collect();
//! let net = smapp_pm::topo::ecmp(42, client, server, &paths);
//! let mut sim = net.sim;
//! sim.run_until(SimTime::from_secs(60));
//! # let _ = sim;
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod controller;
pub mod controllers;

pub use client::PmClient;
pub use controller::{controller_of, ControlApi, ControllerRuntime, SubflowController};
pub use controllers::{
    BackupConfig, BackupController, FullMeshConfig, FullMeshController, InUserspace,
    NdiffportsController, RefreshConfig, RefreshController, ServerLimitConfig,
    ServerLimitController, StreamConfig, StreamController,
};

/// Convenient glob import for examples and experiments.
pub mod prelude {
    pub use crate::client::PmClient;
    pub use crate::controller::{controller_of, ControlApi, ControllerRuntime, SubflowController};
    pub use crate::controllers::{
        BackupConfig, BackupController, FullMeshConfig, FullMeshController, InUserspace,
        NdiffportsController, RefreshConfig, RefreshController, ServerLimitConfig,
        ServerLimitController, StreamConfig, StreamController,
    };
    pub use smapp_mptcp::{ConnToken, PmEvent, StackConfig, SubflowError, SubflowId};
    pub use smapp_netlink::{DiagConn, LatencyModel};
    pub use smapp_pm::{DiagLog, FullMeshPm, Host, NdiffportsPm};
    // The typed netem impairment language plus the raw script layer it
    // compiles to, so examples can use either.
    pub use smapp_sim::{
        Addr, DynAction, DynamicsScript, Eviction, Handle, InstallPolicy, LinkCfg, LossModel,
        LossPct, Netem, NetemScript, NodeCommand, OneWayDelay, QueueLen, RateBps, SimTime,
        Simulator,
    };
}
