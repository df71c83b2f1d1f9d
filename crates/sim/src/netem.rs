//! Typed, `tc`-style impairment language: the one way to script a world.
//!
//! A [`Netem`] clause reads like a `tc qdisc`/`tc netem` command line; each
//! builder call compiles to exactly one [`DynAction`], in call order. A
//! [`NetemScript`] holds the `(instant, action)` entries its clauses
//! compiled to, and [`crate::Simulator::install`] schedules them on the
//! world's event queue, stably sorted by time: entries sharing an instant
//! run in the order they were added. A change that must read world state
//! first (a watchdog that stops the run once every transfer is done) is a
//! hook on [`crate::Simulator::at`] instead; both kinds wait on one list.
//!
//! Quantities are typed newtypes ([`RateBps`], [`OneWayDelay`],
//! [`QueueLen`], [`LossPct`]) so a rate cannot be passed where a delay is
//! expected and percent/ratio confusion is impossible at the call site.
//!
//! # Example
//!
//! Degrade a link's egress direction one second in, then add netem-style
//! reordering and duplication everywhere on the link a second later:
//!
//! ```
//! use smapp_sim::netem::{LossPct, Netem, NetemScript, OneWayDelay, QueueLen, RateBps};
//! use smapp_sim::{LinkId, SimTime};
//!
//! let wifi = LinkId(0);
//! let script = NetemScript::new()
//!     .at(
//!         SimTime::from_secs(1),
//!         Netem::on(wifi)
//!             .egress()
//!             .rate(RateBps::mbps(2))
//!             .delay(OneWayDelay::ms(40))
//!             .loss(LossPct::percent(3.0))
//!             .queue(QueueLen::pkts(50)),
//!     )
//!     .at(
//!         SimTime::from_secs(2),
//!         Netem::on(wifi)
//!             .both()
//!             .reorder(LossPct::percent(10.0), OneWayDelay::ms(5))
//!             .duplicate(LossPct::percent(1.0)),
//!     );
//! assert_eq!(script.len(), 6);
//! ```
//!
//! Middlebox and host control use per-peer clauses. Here a router strips
//! MPTCP options from what the client sends only, and probing a host takes
//! a live sockdiag-style snapshot of its connections:
//!
//! ```
//! use smapp_sim::netem::{Netem, NetemScript};
//! use smapp_sim::{IfaceId, NodeId, SimTime, Stage};
//!
//! let router = NodeId(2);
//! let client = NodeId(0);
//! let client_port = IfaceId(3); // the router's port facing the client
//! let strip = Netem::peer(router).middlebox(Some(client_port), Stage::StripMptcp, true);
//! let script = NetemScript::new()
//!     .at(SimTime::from_millis(500), strip)
//!     .at(SimTime::from_secs(2), Netem::peer(client).probe());
//! assert_eq!(script.len(), 2);
//! ```

use std::time::Duration;

use crate::dynamics::{DynAction, NodeCommand};
use crate::link::{Dir, Eviction, LinkId, LossModel};
use crate::node::{IfaceId, NodeId};
use crate::router::Stage;
use crate::time::SimTime;

/// A serialization rate in bits per second.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RateBps(u64);

impl RateBps {
    /// Bits per second.
    pub const fn bps(v: u64) -> Self {
        RateBps(v)
    }
    /// Kilobits per second.
    pub const fn kbps(v: u64) -> Self {
        RateBps(v * 1_000)
    }
    /// Megabits per second.
    pub const fn mbps(v: u64) -> Self {
        RateBps(v * 1_000_000)
    }
    /// Gigabits per second.
    pub const fn gbps(v: u64) -> Self {
        RateBps(v * 1_000_000_000)
    }
    /// The raw value in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.0
    }
}

/// A one-way propagation (or hold-back) delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OneWayDelay(Duration);

impl OneWayDelay {
    /// Milliseconds.
    pub const fn ms(v: u64) -> Self {
        OneWayDelay(Duration::from_millis(v))
    }
    /// Microseconds.
    pub const fn us(v: u64) -> Self {
        OneWayDelay(Duration::from_micros(v))
    }
    /// The underlying [`Duration`].
    pub const fn duration(self) -> Duration {
        self.0
    }
}

impl From<Duration> for OneWayDelay {
    fn from(d: Duration) -> Self {
        OneWayDelay(d)
    }
}

/// A drop-tail queue capacity in packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueueLen(usize);

impl QueueLen {
    /// Capacity in packets.
    pub const fn pkts(v: usize) -> Self {
        QueueLen(v)
    }
    /// The raw capacity in packets.
    pub const fn get(self) -> usize {
        self.0
    }
}

/// A probability expressed netem-style as a percentage (`0..=100`),
/// stored as a ratio in `[0, 1]`. Used for loss, reorder and duplicate
/// trials.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct LossPct(f64);

impl LossPct {
    /// From a percentage; clamped to `0..=100`.
    pub fn percent(v: f64) -> Self {
        LossPct((v / 100.0).clamp(0.0, 1.0))
    }
    /// From a ratio; clamped to `[0, 1]`.
    pub fn ratio(v: f64) -> Self {
        LossPct(v.clamp(0.0, 1.0))
    }
    /// The probability as a ratio in `[0, 1]`.
    pub const fn as_ratio(self) -> f64 {
        self.0
    }
}

/// What a clause is attached to.
#[derive(Clone, Copy, Debug)]
enum Target {
    Link(LinkId),
    Iface(IfaceId),
    Node(NodeId),
    World,
}

/// One `tc`-style clause: a target plus a chain of impairment/control
/// operations, each compiling to exactly one [`DynAction`] in call order.
///
/// Link clauses ([`Netem::on`]) default to both directions; select one
/// with [`Netem::egress`] / [`Netem::ingress`] (the selection applies to
/// subsequent calls, so a single clause can mix directions). Peer clauses
/// ([`Netem::peer`]) carry middlebox/host commands; interface clauses
/// ([`Netem::iface`]) flip one attachment point; [`Netem::world`] stops
/// the run.
///
/// Misusing a clause — e.g. calling [`Netem::rate`] on a peer clause — is
/// a scenario bug and panics with a message naming the offending call.
#[derive(Clone, Debug)]
pub struct Netem {
    target: Target,
    dir: Option<Dir>,
    actions: Actions,
}

/// A clause's compiled actions. The first is held inline, so a
/// one-action clause (a probe, an interface flip) allocates nothing; a
/// second call moves both to the heap.
#[derive(Clone, Debug, Default)]
enum Actions {
    #[default]
    Empty,
    One(DynAction),
    Many(Vec<DynAction>),
}

impl Actions {
    fn push(&mut self, action: DynAction) {
        *self = match std::mem::take(self) {
            Actions::Empty => Actions::One(action),
            Actions::One(first) => Actions::Many(vec![first, action]),
            Actions::Many(mut all) => {
                all.push(action);
                Actions::Many(all)
            }
        };
    }

    fn as_slice(&self) -> &[DynAction] {
        match self {
            Actions::Empty => &[],
            Actions::One(first) => std::slice::from_ref(first),
            Actions::Many(all) => all,
        }
    }
}

impl Netem {
    fn with_target(target: Target) -> Self {
        Netem {
            target,
            dir: None,
            actions: Actions::Empty,
        }
    }

    /// A qdisc-style clause on a link (both directions until a direction
    /// selector is applied).
    pub fn on(link: LinkId) -> Self {
        Netem::with_target(Target::Link(link))
    }

    /// A clause on one interface ([`Netem::down`] / [`Netem::up`]).
    pub fn iface(iface: IfaceId) -> Self {
        Netem::with_target(Target::Iface(iface))
    }

    /// A middlebox/host clause on one node.
    pub fn peer(node: NodeId) -> Self {
        Netem::with_target(Target::Node(node))
    }

    /// A clause on the whole world ([`Netem::stop`]).
    pub fn world() -> Self {
        Netem::with_target(Target::World)
    }

    fn link(&self, what: &str) -> LinkId {
        match self.target {
            Target::Link(l) => l,
            _ => panic!("netem: .{what}() requires a Netem::on(link) clause"),
        }
    }

    fn node(&self, what: &str) -> NodeId {
        match self.target {
            Target::Node(n) => n,
            _ => panic!("netem: .{what}() requires a Netem::peer(node) clause"),
        }
    }

    /// Apply subsequent link operations to the egress direction
    /// ([`Dir::AtoB`]: traffic leaving the link's A end).
    #[must_use]
    pub fn egress(mut self) -> Self {
        self.link("egress");
        self.dir = Some(Dir::AtoB);
        self
    }

    /// Apply subsequent link operations to the ingress direction
    /// ([`Dir::BtoA`]: traffic arriving at the link's A end).
    #[must_use]
    pub fn ingress(mut self) -> Self {
        self.link("ingress");
        self.dir = Some(Dir::BtoA);
        self
    }

    /// Apply subsequent link operations to both directions (the default).
    #[must_use]
    pub fn both(mut self) -> Self {
        self.link("both");
        self.dir = None;
        self
    }

    /// Set the serialization rate.
    #[must_use]
    pub fn rate(mut self, rate: RateBps) -> Self {
        let link = self.link("rate");
        self.actions.push(DynAction::SetRate {
            link,
            dir: self.dir,
            rate_bps: rate.bits_per_sec(),
        });
        self
    }

    /// Set the one-way propagation delay.
    #[must_use]
    pub fn delay(mut self, delay: OneWayDelay) -> Self {
        let link = self.link("delay");
        self.actions.push(DynAction::SetDelay {
            link,
            dir: self.dir,
            delay: delay.duration(),
        });
        self
    }

    /// Set independent Bernoulli loss.
    #[must_use]
    pub fn loss(self, pct: LossPct) -> Self {
        self.loss_model(LossModel::Bernoulli(pct.as_ratio()))
    }

    /// Replace the whole loss model ([`LossModel::None`] clears loss).
    #[must_use]
    pub fn loss_model(mut self, loss: LossModel) -> Self {
        let link = self.link("loss");
        self.actions.push(DynAction::SetLoss {
            link,
            dir: self.dir,
            loss,
        });
        self
    }

    /// Set the drop-tail queue capacity, keeping already-queued packets
    /// on shrink (the historical rule; see [`Netem::queue_with`]).
    #[must_use]
    pub fn queue(self, len: QueueLen) -> Self {
        self.queue_with(len, Eviction::Keep)
    }

    /// Set the drop-tail queue capacity with an explicit eviction policy
    /// for already-queued packets on shrink.
    #[must_use]
    pub fn queue_with(mut self, len: QueueLen, evict: Eviction) -> Self {
        let link = self.link("queue");
        self.actions.push(DynAction::SetQueue {
            link,
            dir: self.dir,
            pkts: len.get(),
            evict,
        });
        self
    }

    /// Set netem-style reordering: with probability `pct` a packet is
    /// held back an extra `hold` beyond the propagation delay.
    #[must_use]
    pub fn reorder(mut self, pct: LossPct, hold: OneWayDelay) -> Self {
        let link = self.link("reorder");
        self.actions.push(DynAction::SetReorder {
            link,
            dir: self.dir,
            pct: pct.as_ratio(),
            hold: hold.duration(),
        });
        self
    }

    /// Set netem-style duplication: with probability `pct` a packet
    /// finishing serialization re-enters the tail of the same queue.
    #[must_use]
    pub fn duplicate(mut self, pct: LossPct) -> Self {
        let link = self.link("duplicate");
        self.actions.push(DynAction::SetDuplicate {
            link,
            dir: self.dir,
            pct: pct.as_ratio(),
        });
        self
    }

    fn admin(mut self, up: bool, what: &str) -> Self {
        match self.target {
            Target::Link(link) => self.actions.push(DynAction::LinkAdmin { link, up }),
            Target::Iface(iface) => self.actions.push(DynAction::IfaceAdmin { iface, up }),
            _ => panic!("netem: .{what}() requires a link or iface clause"),
        }
        self
    }

    /// Take the link (both endpoint interfaces) or interface down.
    #[must_use]
    pub fn down(self) -> Self {
        self.admin(false, "down")
    }

    /// Bring the link (both endpoint interfaces) or interface back up.
    #[must_use]
    pub fn up(self) -> Self {
        self.admin(true, "up")
    }

    fn command(mut self, cmd: NodeCommand, what: &str) -> Self {
        let node = self.node(what);
        self.actions.push(DynAction::Command { node, cmd });
        self
    }

    /// Middlebox: switch a router [`Stage`] on or off for the packets
    /// arriving on `iface`, or on every ingress with `None` (see
    /// [`NodeCommand::Middlebox`]).
    #[must_use]
    pub fn middlebox(self, iface: Option<IfaceId>, stage: Stage, on: bool) -> Self {
        let cmd = NodeCommand::Middlebox { iface, stage, on };
        self.command(cmd, "middlebox")
    }

    /// Middlebox: flush all dynamic state (firewall/NAT reboot).
    #[must_use]
    pub fn flush_state(self) -> Self {
        self.command(NodeCommand::FlushState, "flush_state")
    }

    /// Host: take a sockdiag-style snapshot of live connection state
    /// (strictly read-only; see [`NodeCommand::Probe`]).
    #[must_use]
    pub fn probe(self) -> Self {
        self.command(NodeCommand::Probe, "probe")
    }

    /// Request the simulation to stop.
    #[must_use]
    pub fn stop(mut self) -> Self {
        match self.target {
            Target::World => self.actions.push(DynAction::Stop),
            _ => panic!("netem: .stop() requires a Netem::world() clause"),
        }
        self
    }

    /// The compiled actions, in call order (one per builder call).
    pub fn actions(&self) -> &[DynAction] {
        self.actions.as_slice()
    }
}

/// A timed program of [`Netem`] clauses: the `(instant, action)` entries
/// they compiled to, one per builder call, in the order they were added.
/// Install it with [`crate::Simulator::install`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetemScript {
    pub(crate) entries: Vec<(SimTime, DynAction)>,
}

impl NetemScript {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a clause at `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, clause: Netem) -> Self {
        self.add(at, clause);
        self
    }

    /// Add a clause at `at`.
    pub fn add(&mut self, at: SimTime, clause: Netem) {
        match clause.actions {
            Actions::Empty => {}
            Actions::One(action) => self.entries.push((at, action)),
            Actions::Many(all) => all.into_iter().for_each(|a| self.entries.push((at, a))),
        }
    }

    /// Number of entries (compiled actions) added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in the order they were added.
    pub fn entries(&self) -> &[(SimTime, DynAction)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_compiles_one_action_per_call_in_order() {
        let c = Netem::on(LinkId(3))
            .egress()
            .rate(RateBps::mbps(8))
            .delay(OneWayDelay::ms(25))
            .ingress()
            .loss(LossPct::percent(30.0))
            .both()
            .reorder(LossPct::ratio(0.1), OneWayDelay::ms(5))
            .duplicate(LossPct::ratio(0.01))
            .queue(QueueLen::pkts(64));
        let a = c.actions();
        assert_eq!(a.len(), 6);
        assert!(matches!(
            a[0],
            DynAction::SetRate {
                link: LinkId(3),
                dir: Some(Dir::AtoB),
                rate_bps: 8_000_000
            }
        ));
        assert!(matches!(
            a[1],
            DynAction::SetDelay {
                dir: Some(Dir::AtoB),
                ..
            }
        ));
        assert!(
            matches!(a[2], DynAction::SetLoss { dir: Some(Dir::BtoA), loss: LossModel::Bernoulli(p), .. } if p == 0.3)
        );
        assert!(matches!(a[3], DynAction::SetReorder { dir: None, pct, .. } if pct == 0.1));
        assert!(matches!(a[4], DynAction::SetDuplicate { dir: None, pct, .. } if pct == 0.01));
        assert!(matches!(
            a[5],
            DynAction::SetQueue {
                pkts: 64,
                evict: Eviction::Keep,
                ..
            }
        ));
    }

    #[test]
    fn peer_and_world_clauses() {
        let c = Netem::peer(NodeId(7))
            .middlebox(None, Stage::StripMptcp, true)
            .probe();
        assert!(matches!(
            c.actions()[0],
            DynAction::Command {
                node: NodeId(7),
                cmd: NodeCommand::Middlebox {
                    iface: None,
                    stage: Stage::StripMptcp,
                    on: true
                }
            }
        ));
        assert!(matches!(
            c.actions()[1],
            DynAction::Command {
                cmd: NodeCommand::Probe,
                ..
            }
        ));
        assert!(matches!(
            Netem::world().stop().actions()[0],
            DynAction::Stop
        ));
        assert!(matches!(
            Netem::iface(IfaceId(2)).down().actions()[0],
            DynAction::IfaceAdmin {
                iface: IfaceId(2),
                up: false
            }
        ));
    }

    #[test]
    #[should_panic(expected = "requires a Netem::on(link) clause")]
    fn rate_on_peer_clause_panics() {
        let _ = Netem::peer(NodeId(0)).rate(RateBps::mbps(1));
    }

    #[test]
    fn script_keeps_entries_in_the_order_they_were_added() {
        let mut s = NetemScript::new();
        s.add(
            SimTime::from_secs(2),
            Netem::on(LinkId(0)).loss(LossPct::percent(10.0)),
        );
        s.add(SimTime::from_secs(1), Netem::on(LinkId(0)).down());
        assert_eq!(s.len(), 2);
        let times: Vec<_> = s.entries().iter().map(|&(at, _)| at).collect();
        assert_eq!(times, [SimTime::from_secs(2), SimTime::from_secs(1)]);
    }

    /// One-, two- and three-action clauses reach the script whole and in
    /// call order, whether their actions were held inline or not.
    #[test]
    fn clauses_of_any_length_compile_in_order() {
        let mut s = NetemScript::new();
        let t = SimTime::from_secs;
        s.add(t(1), Netem::peer(NodeId(1)).probe());
        s.add(t(2), Netem::on(LinkId(0)).down().up());
        let c = Netem::peer(NodeId(2))
            .middlebox(None, Stage::StripMptcp, true)
            .middlebox(Some(IfaceId(1)), Stage::SeqNat, true)
            .probe();
        assert_eq!(c.clone().actions().len(), 3);
        s.add(t(3), c);
        let cmd = |node, cmd| DynAction::Command { node, cmd };
        let middlebox = |iface, stage| NodeCommand::Middlebox {
            iface,
            stage,
            on: true,
        };
        let link = |up| DynAction::LinkAdmin {
            link: LinkId(0),
            up,
        };
        let expect = [
            (t(1), cmd(NodeId(1), NodeCommand::Probe)),
            (t(2), link(false)),
            (t(2), link(true)),
            (t(3), cmd(NodeId(2), middlebox(None, Stage::StripMptcp))),
            (
                t(3),
                cmd(NodeId(2), middlebox(Some(IfaceId(1)), Stage::SeqNat)),
            ),
            (t(3), cmd(NodeId(2), NodeCommand::Probe)),
        ];
        assert_eq!(s.entries(), expect);
    }

    #[test]
    fn units_convert() {
        assert_eq!(RateBps::kbps(5).bits_per_sec(), 5_000);
        assert_eq!(RateBps::gbps(1).bits_per_sec(), 1_000_000_000);
        assert_eq!(
            OneWayDelay::us(1500).duration(),
            Duration::from_micros(1500)
        );
        assert_eq!(
            OneWayDelay::from(Duration::from_secs(1)).duration(),
            Duration::from_secs(1)
        );
        assert_eq!(QueueLen::pkts(9).get(), 9);
        assert_eq!(LossPct::percent(250.0).as_ratio(), 1.0);
        assert_eq!(LossPct::ratio(-0.5).as_ratio(), 0.0);
    }
}
