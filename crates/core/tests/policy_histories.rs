//! One policy, two transports, the same decisions: event histories fed to
//! a kernel path manager directly and to the same manager under
//! [`InUserspace`] must produce the same commands, in the same order.
//!
//! The kernel side reads a reference [`StackView`] kept here the way
//! `HostStack` and `Connection` keep their state. The userspace side gets
//! only the events its subscription asks for, encoded as netlink frames
//! and run through a [`ControllerRuntime`]; the commands it sends are
//! decoded back into [`PmAction`]s. The generated histories mix client
//! and server connections, `ADD_ADDR` and `REMOVE_ADDR`, a third local
//! address going down and up again, and connection closes.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::ValueTree;
use proptest::test_runner::TestRunner;
use smapp::{ControllerRuntime, InUserspace, NdiffportsController, SubflowController};
use smapp_mptcp::{
    ConnToken, FourTuple, PathManagerHook, PmAction, PmActions, PmEvent, StackView, SubflowError,
    SubflowId,
};
use smapp_netlink::{decode, encode_event, PmNlCommand, PmNlMessage, UserCtx, UserProcess};
use smapp_pm::{FullMeshPm, NdiffportsPm};
use smapp_sim::{Addr, SimRng, SimTime};

const LOCALS: [Addr; 3] = [
    Addr::new(10, 0, 1, 1),
    Addr::new(10, 0, 2, 1),
    Addr::new(10, 0, 3, 1),
];
/// What a client connection's peer may announce, its first address first.
const SERVER_ADDRS: [Addr; 3] = [
    Addr::new(10, 0, 9, 1),
    Addr::new(10, 0, 8, 1),
    Addr::new(10, 0, 7, 1),
];
/// A server connection's peer.
const PEER: Addr = Addr::new(10, 5, 0, 1);
const ERRORS: [SubflowError; 7] = [
    SubflowError::None,
    SubflowError::Timeout,
    SubflowError::Reset,
    SubflowError::Refused,
    SubflowError::NetUnreachable,
    SubflowError::IfaceDown,
    SubflowError::PmRequested,
];

/// The stack as a path manager reads it: addresses with their state in
/// first-seen order, and per connection the initial remote followed by
/// the announced ones (an announcement without a port takes the initial
/// remote's, which every subflow here goes to).
#[derive(Default)]
struct RefStack {
    locals: Vec<(Addr, bool)>,
    remotes: BTreeMap<ConnToken, Vec<(u8, Addr, u16)>>,
}

impl RefStack {
    fn apply(&mut self, ev: &PmEvent) {
        match *ev {
            PmEvent::ConnCreated { token, tuple, .. } => {
                let initial = (0, tuple.dst, tuple.dst_port);
                self.remotes.insert(token, vec![initial]);
            }
            PmEvent::ConnClosed { token } => {
                self.remotes.remove(&token);
            }
            PmEvent::AddAddrReceived {
                token,
                addr_id,
                addr,
                port,
            } => {
                if let Some(r) = self.remotes.get_mut(&token) {
                    let port = port.unwrap_or(r[0].2);
                    r.push((addr_id, addr, port));
                }
            }
            PmEvent::RemAddrReceived { token, addr_id } => {
                if let Some(r) = self.remotes.get_mut(&token) {
                    let announced = r.split_off(1);
                    r.extend(announced.into_iter().filter(|e| e.0 != addr_id));
                }
            }
            PmEvent::LocalAddrUp { addr } => self.set_local(addr, true),
            PmEvent::LocalAddrDown { addr } => self.set_local(addr, false),
            _ => {}
        }
    }

    fn set_local(&mut self, addr: Addr, up: bool) {
        match self.locals.iter().position(|(a, _)| *a == addr) {
            Some(i) => self.locals[i].1 = up,
            None => self.locals.push((addr, up)),
        }
    }
}

impl StackView for RefStack {
    fn local_addrs(&self) -> Vec<Addr> {
        let up = self.locals.iter().filter(|l| l.1);
        up.map(|l| l.0).collect()
    }
    fn remote_addrs(&self, token: ConnToken) -> Vec<(u8, Addr, u16)> {
        self.remotes.get(&token).cloned().unwrap_or_default()
    }
}

/// One generated step: `(kind, a, b, c)`, read by [`history`].
type Op = (u8, u8, u8, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..10, 0u8..8, 0u8..8, 0u8..8), 1..60)
}

/// A connection as [`history`] tracks it.
struct Conn {
    token: ConnToken,
    tuple: FourTuple,
    is_client: bool,
    established: bool,
    subflows: SubflowId,
    /// Ids of the addresses the peer has announced and not withdrawn.
    announced: Vec<u8>,
}

/// Turn steps into events the stack could raise: the subscription-time
/// dump of the local addresses, then one event per step that applies to
/// the state so far (a step on a connection picks among the open ones).
fn history(ops: &[Op]) -> Vec<PmEvent> {
    let mut evs: Vec<PmEvent> = LOCALS.map(|addr| PmEvent::LocalAddrUp { addr }).into();
    let mut conns: Vec<Conn> = Vec::new();
    for (n, &(kind, a, b, c)) in ops.iter().enumerate() {
        if kind == 0 {
            let is_client = a % 2 == 0;
            let token = 100 + n as ConnToken;
            let (src_port, peer, peer_port) = match is_client {
                true => (40_000 + n as u16, SERVER_ADDRS[0], 80),
                false => (80, PEER, 40_000 + n as u16),
            };
            let tuple = FourTuple {
                src: LOCALS[b as usize % 2],
                src_port,
                dst: peer,
                dst_port: peer_port,
            };
            evs.push(PmEvent::ConnCreated {
                token,
                tuple,
                initial_subflow: 0,
                is_client,
            });
            conns.push(Conn {
                token,
                tuple,
                is_client,
                established: false,
                subflows: 1,
                announced: Vec::new(),
            });
            continue;
        }
        if kind == 1 {
            let addr = LOCALS[a as usize % 3];
            evs.push(match b % 2 {
                0 => PmEvent::LocalAddrDown { addr },
                _ => PmEvent::LocalAddrUp { addr },
            });
            continue;
        }
        if conns.is_empty() {
            continue;
        }
        let idx = a as usize % conns.len();
        let conn = &mut conns[idx];
        let token = conn.token;
        let subflow_tuple = FourTuple {
            src: LOCALS[b as usize % 3],
            src_port: 50_000 + n as u16,
            dst: conn.tuple.dst,
            dst_port: conn.tuple.dst_port,
        };
        match kind {
            2 | 3 if !conn.established => {
                conn.established = true;
                evs.push(PmEvent::ConnEstablished {
                    token,
                    tuple: conn.tuple,
                    is_client: conn.is_client,
                });
            }
            2 => {
                evs.push(PmEvent::SubflowEstablished {
                    token,
                    id: conn.subflows,
                    tuple: subflow_tuple,
                    backup: false,
                    initiated_here: conn.is_client,
                });
                conn.subflows += 1;
            }
            3 => evs.push(PmEvent::SubflowClosed {
                token,
                id: c % conn.subflows,
                tuple: subflow_tuple,
                error: ERRORS[c as usize % ERRORS.len()],
            }),
            // The stack raises an announcement only for an id it does not
            // hold already.
            4 | 5 if !conn.announced.contains(&(b % 3 + 1)) => {
                let addr_id = b % 3 + 1;
                conn.announced.push(addr_id);
                let addr = match conn.is_client {
                    true => SERVER_ADDRS[c as usize % 3],
                    false => Addr::new(10, 5, 0, 2 + c),
                };
                let port = (c == 7).then_some(8080);
                evs.push(PmEvent::AddAddrReceived {
                    token,
                    addr_id,
                    addr,
                    port,
                });
            }
            4..=6 => {
                let addr_id = b % 3 + 1;
                conn.announced.retain(|&id| id != addr_id);
                evs.push(PmEvent::RemAddrReceived { token, addr_id });
            }
            7 => evs.push(PmEvent::RtoExpired {
                token,
                id: 0,
                current_rto: std::time::Duration::from_secs(1 << (c % 4)),
                backoffs: c as u32,
            }),
            _ => {
                evs.push(PmEvent::ConnClosed { token });
                conns.remove(idx);
            }
        }
    }
    evs
}

/// The actions `pm` asks for, handling `history` in the kernel.
fn in_kernel(mut pm: impl PathManagerHook, history: &[PmEvent]) -> Vec<PmAction> {
    let (mut stack, mut actions) = (RefStack::default(), PmActions::new());
    for ev in history {
        stack.apply(ev);
        pm.on_event(ev, &stack, &mut actions);
    }
    actions.drain().collect()
}

/// The commands `ctl` sends, handed the part of `history` it subscribed
/// to as netlink frames.
fn in_userspace<P: PathManagerHook + 'static>(
    ctl: InUserspace<P>,
    history: &[PmEvent],
) -> Vec<PmAction> {
    let mask = ctl.subscription();
    let mut rt = ControllerRuntime::new(ctl);
    let mut rng = SimRng::seed_from_u64(1);
    let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
    for ev in history.iter().filter(|ev| ev.mask_bit() & mask != 0) {
        rt.on_message(&mut ctx, encode_event(ev));
    }
    let commands = ctx.to_kernel.iter().map(|frame| match decode(frame) {
        Ok(PmNlMessage::Command {
            cmd: PmNlCommand::Action(action),
            ..
        }) => action,
        other => panic!("not an action command: {other:?}"),
    });
    commands.collect()
}

/// What the drawn histories exercised, so the property cannot pass by
/// never reaching the cases it is about.
#[derive(Debug, Default)]
struct Reached {
    server_established: bool,
    add_then_rem: bool,
    third_local_down_then_up: bool,
    conn_closed: bool,
    opens: usize,
    announces: usize,
}

impl Reached {
    fn note(&mut self, history: &[PmEvent], actions: &[PmAction]) {
        let mut added = Vec::new();
        let mut third_down = false;
        for ev in history {
            match *ev {
                PmEvent::ConnEstablished {
                    is_client: false, ..
                } => self.server_established = true,
                PmEvent::AddAddrReceived { token, addr_id, .. } => added.push((token, addr_id)),
                PmEvent::RemAddrReceived { token, addr_id } => {
                    self.add_then_rem |= added.contains(&(token, addr_id))
                }
                PmEvent::LocalAddrDown { addr } => third_down |= addr == LOCALS[2],
                PmEvent::LocalAddrUp { addr } => {
                    self.third_local_down_then_up |= third_down && addr == LOCALS[2]
                }
                PmEvent::ConnClosed { .. } => self.conn_closed = true,
                _ => {}
            }
        }
        for a in actions {
            match a {
                PmAction::OpenSubflow { .. } => self.opens += 1,
                PmAction::AnnounceAddr { .. } => self.announces += 1,
                _ => {}
            }
        }
    }
}

#[test]
fn both_transports_of_a_policy_send_the_same_commands() {
    let mut runner = TestRunner::deterministic();
    let mut reached = Reached::default();
    for case in 0..128 {
        let history = history(&ops().new_tree(&mut runner).unwrap().current());
        let kernel = in_kernel(NdiffportsPm::new(3), &history);
        let user = in_userspace(NdiffportsController::new(3), &history);
        assert_eq!(user, kernel, "ndiffports, case {case}: {history:#?}");
        let kernel = in_kernel(FullMeshPm::new(), &history);
        let user = in_userspace(InUserspace::<FullMeshPm>::new(), &history);
        assert_eq!(user, kernel, "full mesh, case {case}: {history:#?}");
        reached.note(&history, &kernel);
    }
    assert!(
        reached.server_established
            && reached.add_then_rem
            && reached.third_local_down_then_up
            && reached.conn_closed
            && reached.opens > 0
            && reached.announces > 0,
        "{reached:?}"
    );
}
