//! Scripted, deterministic network dynamics.
//!
//! The paper's headline scenarios are stories about *networks that change
//! under the connection*: a WiFi path that degrades as the user walks away
//! (§4.2), flapping bottlenecks that a refresh controller routes around
//! (§4.4), middleboxes that strip the MPTCP options and force a fallback
//! to plain TCP (§1, the classic deployment hazard). This module makes
//! those changes first-class: a [`DynamicsScript`] is a time-ordered list
//! of [`DynAction`]s installed on the [`crate::Simulator`] with
//! [`crate::Simulator::install`] and executed through the same
//! event queue as every packet and timer — so a scripted run is
//! exactly as deterministic, seed-stable and sweep-parallel-safe as an
//! unscripted one.
//!
//! # Determinism contract
//!
//! * Entries are executed in `(time, installation order)` order. A script
//!   whose entries are out of order is either **stably sorted** at install
//!   time ([`crate::InstallPolicy::Sort`]) or **rejected**
//!   ([`DynamicsScript::validate`] / [`crate::InstallPolicy::Strict`]) —
//!   both behaviours are deterministic, there is no silent reordering
//!   ambiguity: ties at the same instant always preserve the order entries
//!   were added in.
//! * Actions mutate only simulation state (link parameters, interface
//!   admin state, node middlebox knobs) through the same code paths node
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
//!   out-of-band control (state flush, option stripping).

use std::time::Duration;

use bytes::{Bytes, BytesMut};

use crate::link::{Dir, Eviction, LinkId, LossModel};
use crate::node::{IfaceId, NodeId};
use crate::time::SimTime;
use crate::wire::{OptionWriter, TcpView, OPT_KIND_MPTCP, TCP_HEADER_LEN};

/// An out-of-band control command delivered to a node by
/// [`DynAction::Command`] (see [`crate::Node::on_command`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeCommand {
    /// Flush all dynamic state of a stateful middlebox — a firewall/NAT
    /// reboot. Ignored by nodes that keep no middlebox state.
    FlushState,
    /// Enable or disable stripping of Multipath TCP options (TCP option
    /// kind 30) from forwarded packets — the interference of a
    /// "transparent" middlebox that normalizes unknown TCP options, the
    /// deployment hazard MPTCP's plain-TCP fallback exists for.
    StripMptcp(bool),
    /// Enable or disable NAT-style sequence-number rewriting on forwarded
    /// TCP segments (see [`crate::rewrite::rewrite_seq_ack`]).
    SeqNat(bool),
    /// Enable or disable re-segmentation of option-free data segments
    /// into two halves (see [`crate::rewrite::split_segment`]).
    SplitSegments(bool),
    /// Enable or disable LRO/GRO-style coalescing of contiguous
    /// option-free data segments (see [`crate::rewrite::coalesce_pair`]).
    CoalesceSegments(bool),
    /// Drop every n-th eligible pure ACK per flow (`0` disables). ACKs
    /// completing a FIN exchange are never thinned.
    AckThin(u32),
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

/// One scripted entry: an action and the instant it executes.
#[derive(Clone, Debug, PartialEq)]
pub struct DynEntry {
    /// When the action runs.
    pub at: SimTime,
    /// What happens.
    pub action: DynAction,
}

/// Error returned by [`DynamicsScript::validate`] when entries are not in
/// non-decreasing time order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfOrderError {
    /// Index of the first entry whose time precedes its predecessor's.
    pub index: usize,
    /// The offending entry's time.
    pub at: SimTime,
    /// The predecessor's time.
    pub prev: SimTime,
}

impl std::fmt::Display for OutOfOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dynamics entry {} at {} precedes its predecessor at {}",
            self.index, self.at, self.prev
        )
    }
}

impl std::error::Error for OutOfOrderError {}

/// A time-ordered list of deterministic network changes.
///
/// Build one with the chainable [`DynamicsScript::at`] (or
/// [`DynamicsScript::push`]), then install it with
/// [`crate::Simulator::install`]. Entries may be added in any order; the
/// [`crate::InstallPolicy::Sort`] policy stably sorts by time, so entries
/// sharing an instant run in the order they were added. Use
/// [`DynamicsScript::validate`] (or [`crate::InstallPolicy::Strict`]) to
/// *reject* out-of-order scripts instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicsScript {
    entries: Vec<DynEntry>,
}

impl DynamicsScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an action at `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, action: DynAction) -> Self {
        self.push(at, action);
        self
    }

    /// Add an action at `at`.
    pub fn push(&mut self, at: SimTime, action: DynAction) {
        self.entries.push(DynEntry { at, action });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the script has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[DynEntry] {
        &self.entries
    }

    /// Check that entries are already in non-decreasing time order;
    /// returns the first violation otherwise.
    pub fn validate(&self) -> Result<(), OutOfOrderError> {
        for (i, w) in self.entries.windows(2).enumerate() {
            if w[1].at < w[0].at {
                return Err(OutOfOrderError {
                    index: i + 1,
                    at: w[1].at,
                    prev: w[0].at,
                });
            }
        }
        Ok(())
    }

    /// Consume the script, returning entries stably sorted by time:
    /// entries at the same instant keep their insertion order. This is the
    /// deterministic normalization [`crate::Simulator::install`] applies
    /// under [`crate::InstallPolicy::Sort`].
    pub fn into_ordered(mut self) -> Vec<DynEntry> {
        self.entries.sort_by_key(|e| e.at);
        self.entries
    }
}

/// Strip every MPTCP option (kind 30) from a raw TCP segment.
///
/// `payload` is the L4 bytes of a [`crate::Packet`] with `proto ==`
/// [`crate::PROTO_TCP`]. Returns the rewritten segment plus the number of
/// options removed, or `None` when there is nothing to strip — the segment
/// carries no kind-30 option, or [`TcpView::parse`] rejects it (a
/// middlebox must never corrupt what it cannot parse).
///
/// Remaining options are re-packed in order through an [`OptionWriter`],
/// which NOP-pads them to a 4-byte boundary; the data offset is rewritten
/// accordingly. All other header bits, reserved ones included, and the
/// application payload pass through untouched — exactly the behaviour of a
/// protocol-normalizing middlebox that "cleans" unknown TCP options while
/// forwarding the connection itself.
pub fn strip_mptcp_options(payload: &[u8]) -> Option<(Bytes, u32)> {
    let seg = TcpView::parse(payload).ok()?;
    let mut kept = OptionWriter::new();
    let mut stripped = 0u32;
    for (kind, body) in seg.options() {
        if kind == OPT_KIND_MPTCP {
            stripped += 1;
        } else {
            kept.push(kind, body);
        }
    }
    if stripped == 0 {
        return None;
    }
    // The survivors came out of a valid 40-byte area: they fit in one.
    let area = kept.padded().ok()?;
    let mut out = BytesMut::with_capacity(TCP_HEADER_LEN + area.len() + seg.payload.len());
    out.extend_from_slice(&payload[..TCP_HEADER_LEN]);
    out.extend_from_slice(area);
    out.extend_from_slice(seg.payload);
    out[12] = (((TCP_HEADER_LEN + area.len()) / 4) as u8) << 4 | (payload[12] & 0x0F);
    Some((out.freeze(), stripped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_parts, TcpFixed, TcpFlags, OPT_KIND_MSS, OPT_KIND_WINDOW_SCALE};

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn validate_accepts_ordered_rejects_unordered() {
        let ok = DynamicsScript::new()
            .at(at(1), DynAction::Stop)
            .at(at(1), DynAction::Stop)
            .at(at(5), DynAction::Stop);
        assert!(ok.validate().is_ok());

        let bad = DynamicsScript::new()
            .at(at(5), DynAction::Stop)
            .at(at(1), DynAction::Stop);
        let err = bad.validate().unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.at, at(1));
        assert_eq!(err.prev, at(5));
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    fn into_ordered_is_a_stable_sort() {
        // Two entries at the same instant must keep insertion order even
        // when a later-added earlier entry is sorted in front of them.
        let s = DynamicsScript::new()
            .at(
                at(10),
                DynAction::IfaceAdmin {
                    iface: IfaceId(0),
                    up: false,
                },
            )
            .at(
                at(10),
                DynAction::IfaceAdmin {
                    iface: IfaceId(0),
                    up: true,
                },
            )
            .at(at(2), DynAction::Stop);
        let ordered = s.into_ordered();
        assert_eq!(ordered.len(), 3);
        assert_eq!(ordered[0].at, at(2));
        assert!(matches!(
            ordered[1].action,
            DynAction::IfaceAdmin { up: false, .. }
        ));
        assert!(matches!(
            ordered[2].action,
            DynAction::IfaceAdmin { up: true, .. }
        ));
    }

    /// A valid PSH|ACK segment from port 4321 to 80 carrying `options`
    /// (kind, body) NOP-padded by the writer, then `payload`.
    fn tcp_seg(options: &[(u8, &[u8])], payload: &[u8]) -> Vec<u8> {
        let hdr = TcpFixed {
            src_port: 4321,
            dst_port: 80,
            flags: TcpFlags::PSH_ACK,
            ..TcpFixed::default()
        };
        let mut opts = OptionWriter::new();
        for (kind, body) in options {
            opts.push(*kind, body);
        }
        encode_parts(&hdr, &opts, payload).unwrap().to_vec()
    }

    #[test]
    fn strip_removes_only_kind_30() {
        // MSS (4) + MPTCP dss-ish (4) + WScale (3, then one NOP of padding).
        let seg = tcp_seg(
            &[
                (OPT_KIND_MSS, &1460u16.to_be_bytes()),
                (OPT_KIND_MPTCP, &[0x20, 0x00]),
                (OPT_KIND_WINDOW_SCALE, &[7]),
            ],
            b"hello",
        );
        let (out, n) = strip_mptcp_options(&seg).expect("stripped");
        assert_eq!(n, 1);
        // Survivors: MSS(4) + WScale(3) -> 7 -> padded to 8.
        assert_eq!((out[12] >> 4) as usize * 4, TCP_HEADER_LEN + 8);
        assert_eq!(
            &out[TCP_HEADER_LEN..TCP_HEADER_LEN + 7],
            &[2, 4, 0x05, 0xB4, 3, 3, 7]
        );
        assert_eq!(out[TCP_HEADER_LEN + 7], 1, "NOP padded");
        assert_eq!(&out[out.len() - 5..], b"hello");
        // Ports and flags untouched.
        assert_eq!(&out[..12], &seg[..12]);
        assert_eq!(out[13], seg[13]);
    }

    #[test]
    fn strip_is_noop_without_mptcp_options() {
        let seg = tcp_seg(&[(OPT_KIND_MSS, &1460u16.to_be_bytes())], b"data");
        assert!(strip_mptcp_options(&seg).is_none());
        assert!(strip_mptcp_options(b"short").is_none());
    }

    #[test]
    fn strip_passes_malformed_segments_through() {
        // Option with length 0 — unparseable; middlebox must not touch it.
        assert!(strip_mptcp_options(&crate::wire::MALFORMED_OPTION_AREA).is_none());
        // Bad data offset.
        let mut seg = tcp_seg(&[], b"x");
        seg[12] = 0xF0;
        assert!(strip_mptcp_options(&seg).is_none());
    }

    #[test]
    fn strip_handles_multiple_mptcp_options_and_eol() {
        let mut seg = tcp_seg(
            &[(OPT_KIND_MPTCP, &[0x20, 0x00]), (OPT_KIND_MPTCP, &[0x50])],
            b"zz",
        );
        // EOL where the writer put its NOP pad: the rest is padding.
        seg[TCP_HEADER_LEN + 7] = 0;
        let (out, n) = strip_mptcp_options(&seg).expect("stripped");
        assert_eq!(n, 2);
        assert_eq!(
            (out[12] >> 4) as usize * 4,
            TCP_HEADER_LEN,
            "no options left"
        );
        assert_eq!(&out[TCP_HEADER_LEN..], b"zz");
    }
}
