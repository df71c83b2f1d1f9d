//! Links: bandwidth, propagation delay, drop-tail queues and loss models.
//!
//! A link is full duplex: each direction has an independent serializer,
//! queue and loss model. Packets experience, in order:
//!
//! 1. queueing (drop-tail when the queue is full),
//! 2. serialization delay (`wire_len * 8 / rate`),
//! 3. a loss trial (a lost packet still consumed serializer time),
//! 4. propagation delay.
//!
//! A script changes a loss model mid-run ([`crate::Netem::loss`]), which is
//! how the Fig. 2a experiment raises the primary path's loss ratio to 30 %
//! one second into the transfer.

use std::collections::VecDeque;
use std::time::Duration;

use crate::packet::Packet;

/// Identifies a link within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// One direction of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// From endpoint A to endpoint B.
    AtoB,
    /// From endpoint B to endpoint A.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }
}

/// Random-loss behaviour of one link direction.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum LossModel {
    /// No random loss (queue drops still happen).
    #[default]
    None,
    /// Independent Bernoulli loss with the given probability.
    Bernoulli(f64),
}

impl LossModel {
    /// The loss probability of one trial.
    pub fn ratio(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli(p) => *p,
        }
    }
}

/// netem-style reordering of one link direction: with probability `pct`,
/// a packet that finished serialization is held back an extra `hold`
/// beyond the propagation delay, letting later packets overtake it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReorderModel {
    /// Probability in `[0, 1]` that a packet is held back. `0.0` disables
    /// reordering (and performs no RNG draw).
    pub pct: f64,
    /// Extra one-way delay applied to held-back packets.
    pub hold: Duration,
}

/// What happens to already-queued packets when a drop-tail queue's
/// capacity shrinks below its current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Eviction {
    /// Keep queued packets; the new bound applies only to subsequent
    /// admissions (the historical behaviour).
    #[default]
    Keep,
    /// Evict newest-queued packets until occupancy fits the new bound
    /// (traced as [`DropReason::Evicted`]).
    DropNewest,
}

/// Static configuration of one link (both directions share it unless
/// overridden with [`crate::Simulator::connect_asym`]).
#[derive(Clone, Debug)]
pub struct LinkCfg {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Queue capacity in packets (drop-tail).
    pub queue_pkts: usize,
    /// Random loss model.
    pub loss: LossModel,
    /// netem-style reordering (disabled by default).
    pub reorder: ReorderModel,
    /// Probability in `[0, 1]` that a packet finishing serialization is
    /// duplicated: the copy re-enters the tail of the same queue and is
    /// serialized again, exactly like netem's `duplicate`. `0.0` disables
    /// duplication (and performs no RNG draw).
    pub duplicate_pct: f64,
}

impl LinkCfg {
    /// A link with the given rate (bits/s) and one-way delay, a 100-packet
    /// queue and no random loss.
    pub fn new(rate_bps: u64, delay: Duration) -> Self {
        LinkCfg {
            rate_bps,
            delay,
            queue_pkts: 100,
            loss: LossModel::None,
            reorder: ReorderModel::default(),
            duplicate_pct: 0.0,
        }
    }

    /// Convenience: rate in Mb/s and delay in ms.
    pub fn mbps_ms(mbps: u64, ms: u64) -> Self {
        LinkCfg::new(mbps * 1_000_000, Duration::from_millis(ms))
    }

    /// Set the queue capacity (packets).
    pub fn queue(mut self, pkts: usize) -> Self {
        self.queue_pkts = pkts;
        self
    }

    /// Set the loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Set netem-style reordering: probability `pct` in `[0, 1]`, extra
    /// hold-back delay `hold`.
    pub fn reorder(mut self, pct: f64, hold: Duration) -> Self {
        self.reorder = ReorderModel { pct, hold };
        self
    }

    /// Set the netem-style duplication probability (`[0, 1]`).
    pub fn duplicate(mut self, pct: f64) -> Self {
        self.duplicate_pct = pct;
        self
    }
}

/// Why a packet was dropped on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The drop-tail queue was full.
    QueueFull,
    /// The random loss model fired.
    Random,
    /// The interface at the receiving end was administratively down.
    IfaceDown,
    /// TTL expired at a router.
    TtlExpired,
    /// A router had no route to the destination.
    NoRoute,
    /// A stateful middlebox had no state for the flow.
    StateDenied,
    /// Evicted from a queue whose capacity shrank under
    /// [`Eviction::DropNewest`].
    Evicted,
}

/// Runtime state of one direction of one link.
#[derive(Debug)]
pub struct LinkDirState {
    /// Configuration for this direction.
    pub cfg: LinkCfg,
    /// Queued packets awaiting serialization.
    pub queue: VecDeque<Packet>,
    /// Whether the serializer is currently transmitting a packet. Only a
    /// busy line has packets queued.
    pub busy: bool,
    /// Cumulative counters for reporting.
    pub stats: LinkDirStats,
}

/// Counters kept per link direction.
#[derive(Debug, Default, Clone)]
pub struct LinkDirStats {
    /// Packets admitted: queued, or put straight on an idle serializer.
    pub enqueued: u64,
    /// Packets fully delivered to the far end.
    pub delivered: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by the random loss model.
    pub dropped_random: u64,
    /// Packets evicted by a capacity shrink under
    /// [`Eviction::DropNewest`].
    pub dropped_evicted: u64,
    /// Extra copies injected by the duplication model.
    pub duplicated: u64,
    /// Packets held back by the reordering model.
    pub reordered: u64,
    /// Total payload+header bytes delivered.
    pub bytes_delivered: u64,
}

impl LinkDirState {
    /// New idle direction with the given configuration.
    pub fn new(cfg: LinkCfg) -> Self {
        Self::reusing(cfg, VecDeque::new())
    }

    /// New idle direction queueing into `ring`, an emptied ring another
    /// link gave up.
    pub(crate) fn reusing(cfg: LinkCfg, ring: VecDeque<Packet>) -> Self {
        debug_assert!(ring.is_empty(), "a spare ring holds no packet");
        LinkDirState {
            cfg,
            queue: ring,
            busy: false,
            stats: LinkDirStats::default(),
        }
    }

    /// Free slots in the drop-tail queue: how many more packets it takes
    /// now. The admission policy lives in this module: callers that need
    /// to act between the check and the push (e.g. trace the packet before
    /// moving it) pair this with [`LinkDirState::admit`] /
    /// [`LinkDirState::count_queue_drop`].
    pub fn room(&self) -> usize {
        self.cfg.queue_pkts.saturating_sub(self.queue.len())
    }

    /// Record a drop-tail rejection (call when [`LinkDirState::room`] was
    /// 0).
    pub fn count_queue_drop(&mut self) {
        self.stats.dropped_queue += 1;
    }

    /// Accept a packet the caller already checked room for. A busy line
    /// queues it at the tail. An idle line has nothing queued: it is
    /// marked busy and hands the packet back to start serializing at once,
    /// so it never passes through the ring, and a line that never queues
    /// never allocates one. Either way it counts as enqueued.
    pub fn admit(&mut self, pkt: Packet) -> Option<Packet> {
        debug_assert!(self.room() > 0, "admit() without room()");
        self.stats.enqueued += 1;
        if self.busy {
            self.queue.push_back(pkt);
            return None;
        }
        debug_assert!(self.queue.is_empty(), "an idle line has nothing queued");
        self.busy = true;
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use bytes::Bytes;

    fn pkt() -> Packet {
        Packet::tcp(Addr::new(1, 0, 0, 1), Addr::new(1, 0, 0, 2), Bytes::new())
    }

    #[test]
    fn bernoulli_ratio() {
        assert_eq!(LossModel::Bernoulli(0.25).ratio(), 0.25);
        assert_eq!(LossModel::None.ratio(), 0.0);
    }

    #[test]
    fn queue_drop_tail() {
        let mut d = LinkDirState::new(LinkCfg::mbps_ms(10, 5).queue(2));
        assert_eq!(d.room(), 2);
        // The first packet of an idle line goes to the serializer, not the
        // queue.
        assert!(d.admit(pkt()).is_some());
        assert!(d.busy && d.queue.capacity() == 0);
        assert!(d.admit(pkt()).is_none());
        assert!(d.admit(pkt()).is_none());
        assert_eq!(d.room(), 0);
        d.count_queue_drop();
        assert_eq!(d.stats.enqueued, 3);
        assert_eq!(d.stats.dropped_queue, 1);
        assert_eq!(d.queue.len(), 2);
    }

    #[test]
    fn mbps_ms_builder() {
        let c = LinkCfg::mbps_ms(8, 40);
        assert_eq!(c.rate_bps, 8_000_000);
        assert_eq!(c.delay, Duration::from_millis(40));
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::AtoB.flip(), Dir::BtoA);
        assert_eq!(Dir::BtoA.flip(), Dir::AtoB);
    }
}
