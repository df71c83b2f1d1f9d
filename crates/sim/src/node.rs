//! Nodes and interfaces.
//!
//! Everything attached to the simulated network — hosts, routers,
//! middleboxes — implements [`Node`]. The simulator owns the nodes and
//! dispatches packet deliveries, timer expiries and administrative interface
//! changes to them, handing each callback a [`crate::world::Ctx`] through
//! which the node sends packets and arms timers.

use std::any::Any;
use std::borrow::Cow;

use crate::addr::Addr;
use crate::link::{Dir, LinkId};
use crate::packet::Packet;
use crate::world::Ctx;

/// Index of a node within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Global index of an interface within a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct IfaceId(pub usize);

/// A network interface: the attachment point between a node and a link.
#[derive(Clone, Debug)]
pub struct Iface {
    /// Owning node.
    pub node: NodeId,
    /// Address assigned to this interface.
    pub addr: Addr,
    /// The link this interface is plugged into and the direction used when
    /// *sending* from it. `None` for unplugged interfaces.
    pub link: Option<(LinkId, Dir)>,
    /// Administrative + operational state. A down interface neither sends
    /// nor receives; deliveries to it are dropped.
    pub up: bool,
    /// Human-readable name for traces (e.g. `"wlan0"`, `"lte0"`); a
    /// literal costs no allocation.
    pub name: Cow<'static, str>,
}

/// Behaviour of a simulated network element.
///
/// All callbacks receive a [`Ctx`] scoped to this node. Implementations must
/// be deterministic: any randomness must come from `ctx.rng()`.
///
/// # Threading
///
/// `Node` deliberately has **no** `Send` bound: a whole simulation world
/// (simulator, nodes, apps) is *thread-confined* — built, run, and read
/// back on one thread. This keeps `Rc`/`RefCell` available to node and app
/// internals (e.g. the chained-GET progress record shared between
/// successive client apps). Multi-core execution happens one level up:
/// the sweep engine dispatches *scenario-builder closures* (which are
/// `Send`) to worker threads, and each worker constructs and runs its own
/// world locally. Things that cross the thread boundary — builder
/// closures, trace-sink constructors ([`crate::trace::TraceSink`] is
/// `Send`), and run results — carry `Send` bounds instead.
pub trait Node {
    /// Called once at simulation start (time zero), in node-creation order.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet has been delivered to `iface`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet);

    /// A timer armed via [`Ctx::set_timer_after`] has fired. `token` is the
    /// value passed when arming. Cancelled timers never reach this
    /// callback; owners that do not cancel should keep their own expected
    /// deadline and ignore stale firings.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// An interface owned by this node changed administrative state.
    fn on_iface_admin(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        let _ = (ctx, iface, up);
    }

    /// An out-of-band control command from a dynamics script (see
    /// [`crate::dynamics`]) — how scenarios reboot a middlebox or toggle
    /// its interference without reaching into node internals. The default
    /// ignores every command.
    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: &crate::dynamics::NodeCommand) {
        let _ = (ctx, cmd);
    }

    /// Downcast support so scenario code can inspect node state after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
