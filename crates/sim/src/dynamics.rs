//! Scripted, deterministic network dynamics: the actions a script runs.
//!
//! The paper's headline scenarios are stories about *networks that change
//! under the connection*: a WiFi path that degrades as the user walks away
//! (§4.2), flapping bottlenecks that a refresh controller routes around
//! (§4.4), middleboxes that strip the MPTCP options and force a fallback
//! to plain TCP (§1, the classic deployment hazard). A
//! [`crate::NetemScript`] of [`crate::Netem`] clauses compiles each such
//! change to one [`DynAction`] at an instant; [`crate::Simulator::install`]
//! schedules them on the same event queue as every packet and timer — so
//! a scripted run is exactly as deterministic, seed-stable and
//! sweep-parallel-safe as an unscripted one.
//!
//! # Determinism contract
//!
//! * Entries execute in `(time, installation order)` order: `install`
//!   stably sorts a script by time, so entries sharing an instant run in
//!   the order they were added.
//! * Actions mutate only simulation state (link parameters, interface
//!   admin state, router stages) through the same code paths node
//!   callbacks use, so per-seed trajectories are bit-identical whether the
//!   world runs alone, re-run, or inside the parallel sweep engine.
//!
//! # Action semantics
//!
//! * Rate/delay/queue/loss changes take effect for *subsequently started*
//!   transmissions; a packet already on the wire keeps the serialization
//!   time and propagation delay it started with (hardware does not recall
//!   bits in flight).
//! * [`DynAction::LinkAdmin`] flips the administrative state of **both**
//!   endpoint interfaces of a link (carrier loss is seen by both ends),
//!   delivering [`crate::Node::on_iface_admin`] to each owner.
//! * [`DynAction::Command`] delivers a [`NodeCommand`] to one node via
//!   [`crate::Node::on_command`] — the hook middleboxes implement for
//!   out-of-band control (state flush, a router's [`Stage`]s).

use std::time::Duration;

use crate::link::{Dir, Eviction, LinkId, LossModel};
use crate::node::{IfaceId, NodeId};
use crate::router::Stage;

/// An out-of-band control command delivered to a node by
/// [`DynAction::Command`] (see [`crate::Node::on_command`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeCommand {
    /// Flush all dynamic state of a stateful middlebox — a firewall/NAT
    /// reboot. Ignored by nodes that keep no middlebox state.
    FlushState,
    /// Switch one middlebox [`Stage`] of a [`crate::Router`] on or off
    /// for the packets arriving on one ingress interface (`iface: None` =
    /// every ingress, so both directions). See [`crate::Router::middlebox`].
    Middlebox {
        /// Ingress interface, or `None` for every ingress.
        iface: Option<IfaceId>,
        /// The stage.
        stage: Stage,
        /// Whether the stage is on.
        on: bool,
    },
    /// Take a sockdiag-style snapshot of the node's live connection state
    /// (subflows with RTT/cwnd/state, meta-level send offsets, fallback
    /// and tap digests). Strictly read-only: a probed node records the
    /// snapshot for later inspection but sends nothing, arms nothing and
    /// draws no randomness, so probing never perturbs a trajectory.
    /// Ignored by nodes without a transport stack.
    Probe,
}

/// One deterministic scripted change to the network.
#[derive(Clone, Debug, PartialEq)]
pub enum DynAction {
    /// Set the serialization rate (bits/s) of a link direction
    /// (`dir: None` = both directions).
    SetRate {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// New rate in bits per second.
        rate_bps: u64,
    },
    /// Set the one-way propagation delay of a link direction.
    SetDelay {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// New one-way propagation delay.
        delay: Duration,
    },
    /// Set the drop-tail queue capacity (packets) of a link direction.
    /// Whether a shrink evicts already-queued packets is governed by
    /// `evict`; the default [`Eviction::Keep`] preserves the historical
    /// shrink-does-not-evict rule.
    SetQueue {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// New queue capacity in packets.
        pkts: usize,
        /// Policy for already-queued packets on shrink.
        evict: Eviction,
    },
    /// Replace the random-loss model of a link direction.
    SetLoss {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// New loss model.
        loss: LossModel,
    },
    /// Set netem-style reordering of a link direction: with probability
    /// `pct`, a packet finishing serialization is held back an extra
    /// `hold` beyond the propagation delay.
    SetReorder {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// Hold-back probability in `[0, 1]` (`0.0` disables).
        pct: f64,
        /// Extra one-way delay for held-back packets.
        hold: Duration,
    },
    /// Set the netem-style duplication probability of a link direction:
    /// with probability `pct`, a packet finishing serialization re-enters
    /// the tail of the same queue as an extra copy.
    SetDuplicate {
        /// Target link.
        link: LinkId,
        /// Direction, or `None` for both.
        dir: Option<Dir>,
        /// Duplication probability in `[0, 1]` (`0.0` disables).
        pct: f64,
    },
    /// Take a whole link down or up: both endpoint interfaces change
    /// administrative state and both owning nodes are notified.
    LinkAdmin {
        /// Target link.
        link: LinkId,
        /// New administrative state.
        up: bool,
    },
    /// Take one interface down or up (mobility: an access technology
    /// appears or disappears on one host while the far end stays up).
    IfaceAdmin {
        /// Target interface.
        iface: IfaceId,
        /// New administrative state.
        up: bool,
    },
    /// Deliver a [`NodeCommand`] to a node (middlebox control).
    Command {
        /// Target node.
        node: NodeId,
        /// The command.
        cmd: NodeCommand,
    },
    /// Request the simulation to stop (scenario-level cutoff).
    Stop,
}
