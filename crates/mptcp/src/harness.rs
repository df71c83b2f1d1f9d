//! In-memory two-host harness.
//!
//! Drives two [`HostStack`]s against each other over an idealized pipe
//! (constant delay, optional Bernoulli loss, infinite bandwidth) with a
//! private event queue. This is *not* the full network simulator — that is
//! `smapp-sim` — but it exercises every protocol path deterministically and
//! is what the protocol test-suite and doc examples are built on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use smapp_sim::{Addr, Packet, SimRng, SimTime};

use crate::app::App;
use crate::env::{ConnectRequest, OutPacket, StackEnv};
use crate::pm::{ConnToken, NoopPm, PathManagerHook, PmActions};
use crate::stack::HostStack;

/// Which host an event targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// Host A (conventionally the client).
    A,
    /// Host B (conventionally the server).
    B,
}

impl Side {
    /// The other side.
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

#[derive(Debug)]
enum Ev {
    Deliver(Side, Packet),
    Timer(Side, u64),
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// Owned leftovers of a `StackEnv` after a stack call.
struct EnvParts {
    out: Vec<OutPacket>,
    timers: Vec<(Duration, u64)>,
    connects: Vec<ConnectRequest>,
}

/// The two-host harness.
pub struct Harness {
    /// Host A's stack.
    pub a: HostStack,
    /// Host B's stack.
    pub b: HostStack,
    /// Host A's path manager.
    pub pm_a: Box<dyn PathManagerHook>,
    /// Host B's path manager.
    pub pm_b: Box<dyn PathManagerHook>,
    /// One-way delay of the pipe.
    pub delay: Duration,
    /// Loss probability A→B.
    pub loss_a2b: f64,
    /// Loss probability B→A.
    pub loss_b2a: f64,
    /// Serialization rate A→B in bits/s (None = infinite).
    pub rate_a2b: Option<u64>,
    /// Serialization rate B→A in bits/s (None = infinite).
    pub rate_b2a: Option<u64>,
    /// Strip MPTCP options from A→B segments (an option-normalizing
    /// middlebox on the pipe; see `smapp_sim::dynamics`).
    pub strip_a2b: bool,
    /// Strip MPTCP options from B→A segments.
    pub strip_b2a: bool,
    /// Options stripped so far, per direction (A→B, B→A).
    pub stripped: [u64; 2],
    /// Per-direction serializer busy-until time (A→B, B→A).
    busy: [SimTime; 2],
    now: SimTime,
    rng: SimRng,
    queue: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    a_addrs: Vec<Addr>,
    b_addrs: Vec<Addr>,
    /// Packets delivered per side (diagnostics).
    pub delivered: [u64; 2],
    /// Set when an app requested the run to stop.
    pub stopped: bool,
}

impl Harness {
    /// Two default-config stacks joined by a pipe with the given one-way
    /// delay. Host A owns `a_addrs`, host B `b_addrs` (all up).
    pub fn new(seed: u64, delay: Duration, a_addrs: Vec<Addr>, b_addrs: Vec<Addr>) -> Self {
        let mut a = HostStack::new(Default::default());
        let mut b = HostStack::new(Default::default());
        for &ad in &a_addrs {
            a.set_local_addr(ad, true);
        }
        for &bd in &b_addrs {
            b.set_local_addr(bd, true);
        }
        Harness {
            a,
            b,
            pm_a: Box::new(NoopPm),
            pm_b: Box::new(NoopPm),
            delay,
            loss_a2b: 0.0,
            loss_b2a: 0.0,
            rate_a2b: None,
            rate_b2a: None,
            strip_a2b: false,
            strip_b2a: false,
            stripped: [0, 0],
            busy: [SimTime::ZERO; 2],
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed),
            queue: BinaryHeap::new(),
            seq: 0,
            a_addrs,
            b_addrs,
            delivered: [0, 0],
            stopped: false,
        }
    }

    /// Current harness time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Run `f` against one stack with a fresh env, then dispatch whatever
    /// the call produced. The RNG is temporarily moved out of `self` so the
    /// env can borrow it while `self` stays usable afterwards.
    fn call<R>(&mut self, side: Side, f: impl FnOnce(&mut HostStack, &mut StackEnv<'_>) -> R) -> R {
        let mut rng = std::mem::replace(&mut self.rng, SimRng::seed_from_u64(0));
        let now = self.now;
        let (r, parts, stop) = {
            let mut env = StackEnv::new(now, &mut rng);
            let stack = match side {
                Side::A => &mut self.a,
                Side::B => &mut self.b,
            };
            let r = f(stack, &mut env);
            let StackEnv {
                out,
                timers,
                connects,
                stop,
                ..
            } = env;
            (
                r,
                EnvParts {
                    out,
                    timers,
                    connects,
                },
                stop,
            )
        };
        self.rng = rng;
        self.stopped |= stop;
        self.dispatch(side, parts);
        r
    }

    fn dispatch(&mut self, side: Side, parts: EnvParts) {
        for (d, tok) in parts.timers {
            self.push(self.now + d, Ev::Timer(side, tok));
        }
        for p in parts.out {
            let to = if self.b_addrs.contains(&p.dst) {
                Side::B
            } else {
                Side::A
            };
            let (loss, rate, strip, dir) = match side {
                Side::A => (self.loss_a2b, self.rate_a2b, self.strip_a2b, 0),
                Side::B => (self.loss_b2a, self.rate_b2a, self.strip_b2a, 1),
            };
            if self.rng.chance(loss) {
                continue;
            }
            let mut pkt = Packet::tcp(p.src, p.dst, p.seg);
            if strip {
                if let Some((cleaned, n)) = smapp_sim::dynamics::strip_mptcp_options(&pkt.payload) {
                    pkt.payload = cleaned;
                    self.stripped[dir] += n as u64;
                }
            }
            // Serialize at the pipe rate (FIFO per direction), then propagate.
            let tx_end = match rate {
                Some(bps) => {
                    let start = self.busy[dir].max(self.now);
                    let end = start + smapp_sim::tx_time(pkt.wire_bits(), bps);
                    self.busy[dir] = end;
                    end
                }
                None => self.now,
            };
            self.push(tx_end + self.delay, Ev::Deliver(to, pkt));
        }
        // Kernel path manager loop over the events this call raised.
        self.run_pm(side);
        // App-driven connects (each may itself produce packets/timers).
        for c in parts.connects {
            self.call(side, |stack, env| {
                stack.connect(env, c.src, c.dst, c.dst_port, c.app)
            });
        }
    }

    /// Run the side's path manager over pending stack events until quiet.
    fn run_pm(&mut self, side: Side) {
        let mut events = Vec::new();
        for _ in 0..8 {
            match side {
                Side::A => self.a.swap_events(&mut events),
                Side::B => self.b.swap_events(&mut events),
            }
            if events.is_empty() {
                break;
            }
            let mut actions = PmActions::new();
            {
                let (stack, pm) = match side {
                    Side::A => (&self.a, &mut self.pm_a),
                    Side::B => (&self.b, &mut self.pm_b),
                };
                for ev in &events {
                    pm.on_event(ev, stack, &mut actions);
                }
            }
            let acts = actions.drain();
            if acts.is_empty() {
                continue;
            }
            self.call(side, |stack, env| {
                for a in &acts {
                    stack.apply_action(env, a);
                }
            });
        }
    }

    /// Apply a path-manager action directly (tests driving subflow
    /// creation without a real path manager).
    pub fn apply(&mut self, side: Side, action: &crate::pm::PmAction) -> bool {
        self.call(side, |stack, env| stack.apply_action(env, action))
    }

    /// Open a connection from `side` to the other side's first address.
    pub fn connect(&mut self, side: Side, dst_port: u16, app: Box<dyn App>) -> Option<ConnToken> {
        let dst = match side {
            Side::A => self.b_addrs[0],
            Side::B => self.a_addrs[0],
        };
        self.call(side, |stack, env| {
            stack.connect(env, None, dst, dst_port, app)
        })
    }

    /// Run until the queue drains, an app stops the run, or `horizon`
    /// passes. Returns the end time.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        let mut guard = 0u64;
        loop {
            if self.stopped {
                break;
            }
            let Some(Reverse(head)) = self.queue.peek() else {
                break;
            };
            if head.at > horizon {
                break;
            }
            guard += 1;
            assert!(guard < 50_000_000, "harness runaway");
            let Reverse(Scheduled { at, ev, .. }) = self.queue.pop().unwrap();
            self.now = at;
            match ev {
                Ev::Deliver(side, pkt) => {
                    self.delivered[side as usize] += 1;
                    self.call(side, |stack, env| stack.on_packet(env, &pkt));
                }
                Ev::Timer(side, tok) => {
                    self.call(side, |stack, env| stack.on_timer(env, tok));
                }
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::apps::{BulkSender, Sink};
    use crate::conn::ConnState;

    fn addr_a() -> Addr {
        Addr::new(10, 0, 0, 1)
    }
    fn addr_b() -> Addr {
        Addr::new(10, 0, 1, 1)
    }

    fn harness(seed: u64) -> Harness {
        let mut h = Harness::new(
            seed,
            Duration::from_millis(10),
            vec![addr_a()],
            vec![addr_b()],
        );
        h.b.listen(
            80,
            Box::new(|| {
                Box::new(Sink {
                    close_on_eof: true,
                    ..Default::default()
                })
            }),
        );
        h
    }

    #[test]
    fn three_way_handshake_establishes() {
        let mut h = harness(1);
        let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
        h.run_until(SimTime::from_secs(2));
        let conn = h.a.conn_by_token(token).unwrap();
        assert_eq!(conn.state, ConnState::Established);
        // Server side established too, with a different (its own) token.
        let server_conn = h.b.connections().next().unwrap();
        assert_eq!(server_conn.state, ConnState::Established);
        assert_eq!(conn.remote_token(), Some(server_conn.token));
        // Handshake RTT sample: one-way 10 ms -> RTT 20 ms.
        let info = conn.subflow_info(0).unwrap();
        assert_eq!(info.srtt_us, 20_000);
    }

    #[test]
    fn bulk_transfer_delivers_every_byte() {
        let mut h = harness(2);
        let total = 300_000u64;
        h.connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
        h.run_until(SimTime::from_secs(30));
        let server_conn = h.b.connections().next().unwrap();
        let sink = server_conn
            .app()
            .unwrap()
            .as_any()
            .downcast_ref::<Sink>()
            .unwrap();
        assert_eq!(sink.received, total);
        assert!(sink.eof_at.is_some(), "DATA_FIN must reach the sink");
        // Full close on both sides.
        assert_eq!(server_conn.state, ConnState::Closed);
        assert_eq!(h.a.connections().next().unwrap().state, ConnState::Closed);
    }

    #[test]
    fn transfer_survives_moderate_loss() {
        let mut h = harness(3);
        h.loss_a2b = 0.05;
        h.loss_b2a = 0.05;
        let total = 100_000u64;
        h.connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
        h.run_until(SimTime::from_secs(120));
        let server_conn = h.b.connections().next().unwrap();
        let sink = server_conn
            .app()
            .unwrap()
            .as_any()
            .downcast_ref::<Sink>()
            .unwrap();
        assert_eq!(sink.received, total, "reliable delivery under loss");
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let mut h = harness(4);
        let token = h.connect(Side::A, 9999, Box::new(NullApp)).unwrap();
        h.run_until(SimTime::from_secs(5));
        let conn = h.a.conn_by_token(token).unwrap();
        assert_eq!(conn.state, ConnState::Closed);
        assert!(h.b.rst_sent >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut h = harness(seed);
            h.loss_a2b = 0.1;
            h.connect(
                Side::A,
                80,
                Box::new(BulkSender::new(50_000).close_when_done()),
            );
            h.run_until(SimTime::from_secs(60));
            (h.delivered, h.now().as_nanos())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
