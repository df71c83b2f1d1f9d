//! A two-host world for the protocol suite: two [`StackNode`]s on either
//! side of a [`Router`], one link per address, under the [`Oracle`].
//!
//! Side A and side B each own a list of addresses; each address gets its
//! own link to the router, half the one-way delay on either hop. Links
//! serialize in about a nanosecond and queue without bound unless a test
//! sets a rate, so a world with neither rate nor loss is a pure delay
//! line. Tests hand the nodes work (connects, path-manager actions)
//! between `run_until` calls through [`Simulator::with_node`], and the
//! oracle's verdict is checked when the world drops.
//!
//! The library's unit tests include this file as `crate::world`, and the
//! `spares` micro-bench as `world`.

#![allow(dead_code)] // each test target uses its own part

use std::time::Duration;

use smapp_mptcp::stack::AppFactory;
use smapp_mptcp::{App, ConnToken, HostStack, PmAction, RecordingPm, StackConfig, StackNode};
use smapp_sim::{
    oracle, Addr, AddrPrefix, Ctx, Dir, IfaceId, LinkCfg, LinkId, LossModel, NodeId, Oracle,
    Router, RunSummary, SimTime, Simulator, Stage,
};

/// Which host of the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// Host A (conventionally the client).
    A,
    /// Host B (conventionally the server).
    B,
}

/// Two stack nodes and a router, built and started.
pub(crate) struct World {
    /// The simulator, with the oracle installed.
    pub(crate) sim: Simulator,
    nodes: [NodeId; 2],
    router: NodeId,
    /// Each side's links, one per address; `Dir::AtoB` carries what the
    /// side sends.
    links: [Vec<LinkId>; 2],
    /// The router's interface at the far end of each of those links.
    ports: [Vec<IfaceId>; 2],
    addrs: [Vec<Addr>; 2],
    last: RunSummary,
}

impl World {
    /// Two default-config stacks `delay` apart, A owning `a`, B owning `b`.
    pub(crate) fn new(seed: u64, delay: Duration, a: &[Addr], b: &[Addr]) -> World {
        World::with_configs(seed, delay, [a, b], Default::default())
    }

    /// As [`World::new`], with each side's stack configuration.
    pub(crate) fn with_configs(
        seed: u64,
        delay: Duration,
        addrs: [&[Addr]; 2],
        cfgs: [StackConfig; 2],
    ) -> World {
        let mut sim = Simulator::new(seed);
        sim.core.set_trace(Box::new(Oracle::new()));
        let router = sim.add_node(Box::new(Router::new(0)));
        let hop = LinkCfg::new(u64::MAX, delay / 2).queue(usize::MAX);
        let mut links = [Vec::new(), Vec::new()];
        let mut ports = [Vec::new(), Vec::new()];
        let nodes = [0, 1].map(|side| {
            let id = sim.add_node(Box::new(StackNode::new(cfgs[side].clone())));
            for &addr in addrs[side] {
                let iface = sim.add_iface(id, addr, "eth");
                let port = sim.add_iface(router, addr, "port");
                links[side].push(sim.connect(iface, port, hop.clone()));
                ports[side].push(port);
                sim.with_node(router, |r: &mut Router, _| {
                    r.add_route(AddrPrefix::host(addr), vec![port]);
                });
            }
            id
        });
        let last = sim.run_until(SimTime::ZERO);
        World {
            sim,
            nodes,
            router,
            links,
            ports,
            addrs: addrs.map(<[Addr]>::to_vec),
            last,
        }
    }

    /// Call `f` with `side`'s node and its context.
    pub(crate) fn with<R>(
        &mut self,
        side: Side,
        f: impl FnOnce(&mut StackNode, &mut Ctx<'_>) -> R,
    ) -> R {
        let id = self.nodes[side as usize];
        self.sim.with_node(id, f).expect("a stack node")
    }

    /// `side`'s stack.
    pub(crate) fn stack(&self, side: Side) -> &HostStack {
        let node = self.sim.node_as::<StackNode>(self.nodes[side as usize]);
        &node.expect("a stack node").stack
    }

    /// Host A's stack.
    pub(crate) fn a(&self) -> &HostStack {
        self.stack(Side::A)
    }

    /// Host B's stack.
    pub(crate) fn b(&self) -> &HostStack {
        self.stack(Side::B)
    }

    /// Listen on `port` on `side`.
    pub(crate) fn listen(&mut self, side: Side, port: u16, factory: AppFactory) {
        self.with(side, |n, _| n.stack.listen(port, factory));
    }

    /// Open a connection from `side` to the other side's first address.
    pub(crate) fn connect(
        &mut self,
        side: Side,
        port: u16,
        app: Box<dyn App>,
    ) -> Option<ConnToken> {
        let dst = self.addrs[1 - side as usize][0];
        self.with(side, |n, ctx| {
            n.drive(ctx, |stack, env| stack.connect(env, None, dst, port, app))
        })
    }

    /// Apply a path-manager action on `side` (tests driving subflows
    /// without a real path manager).
    pub(crate) fn apply(&mut self, side: Side, action: &PmAction) -> bool {
        self.with(side, |n, ctx| {
            n.drive(ctx, |stack, env| stack.apply_action(env, action))
        })
    }

    /// Put a [`RecordingPm`] in as `side`'s path manager.
    pub(crate) fn record(&mut self, side: Side) {
        self.with(side, |n, _| n.pm = Box::new(RecordingPm::default()));
    }

    /// The events `side`'s [`RecordingPm`] has seen so far.
    pub(crate) fn recorded(&mut self, side: Side) -> RecordingPm {
        self.with(side, |n, _| {
            let pm = n.pm.as_any_mut().downcast_mut::<RecordingPm>();
            let events = pm.expect("a recording path manager").events.clone();
            RecordingPm { events }
        })
    }

    /// Run until the queue drains, an app stops the run, or `horizon`.
    pub(crate) fn run_until(&mut self, horizon: SimTime) -> RunSummary {
        self.last = self.sim.run_until(horizon);
        self.last
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.sim.core.now()
    }

    /// Drop each packet `from` sends with probability `p`.
    pub(crate) fn set_loss(&mut self, from: Side, p: f64) {
        let loss = if p > 0.0 {
            LossModel::Bernoulli(p)
        } else {
            LossModel::None
        };
        for &link in &self.links[from as usize] {
            self.sim.core.set_loss(link, Dir::AtoB, loss.clone());
        }
    }

    /// Serialize what `from` sends at `bps` on the receiver's links, where
    /// all of `from`'s subflows to one address share one line.
    pub(crate) fn set_rate(&mut self, from: Side, bps: u64) {
        for &link in &self.links[1 - from as usize] {
            self.sim.core.set_rate(link, Dir::BtoA, bps);
        }
    }

    /// Switch the router's MPTCP-option stripping for the packets `from`
    /// sends, or (`None`) for both sides' packets.
    pub(crate) fn strip(&mut self, from: Option<Side>, on: bool) {
        let ingress: Vec<_> = match from {
            Some(side) => self.ports[side as usize].iter().map(|&p| Some(p)).collect(),
            None => vec![None],
        };
        self.sim.with_node(self.router, |r: &mut Router, _| {
            for &iface in &ingress {
                r.middlebox(iface, Stage::StripMptcp, on);
            }
        });
    }

    /// MPTCP options the router has stripped so far.
    pub(crate) fn stripped(&self) -> u64 {
        let router = self.sim.node_as::<Router>(self.router);
        router.expect("the router").counters.options_stripped
    }

    /// Packets sent into each link direction, side A's links first.
    pub(crate) fn sent(&self) -> Vec<u64> {
        let links = self.links.iter().flatten();
        let dirs = links.flat_map(|&l| [Dir::AtoB, Dir::BtoA].map(|d| (l, d)));
        dirs.map(|(l, d)| self.sim.core.link_stats(l, d).enqueued)
            .collect()
    }
}

impl Drop for World {
    /// Every world ends with a clean oracle.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let verdict = oracle::conclude(&mut self.sim.core, &self.last);
        assert!(
            verdict.violations.is_empty(),
            "oracle violations: {:?}",
            verdict.violations
        );
    }
}
