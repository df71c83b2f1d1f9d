//! The in-kernel `fullmesh` path manager (baseline).
//!
//! "The full-mesh path manager listens to events from the underlying
//! network interfaces and creates one subflow towards the server over each
//! active interface. These subflows are created immediately after the
//! creation of the connection or when an interface becomes active." (§2.)
//!
//! Like the Linux module, it acts only on the client side of a connection
//! (servers never create subflows); on the server side it announces
//! additional local addresses via `ADD_ADDR` so the client's mesh can grow.

use smapp_mptcp::{ConnToken, PathManagerHook, PmAction, PmActions, PmEvent, StackView};
use smapp_sim::{Addr, FxHashMap, FxHashSet};

#[derive(Debug, Default)]
struct ConnRec {
    /// Creation rank: interface events walk the connections in this order,
    /// so the subflows they open — each drawing a port and an ISS from the
    /// world RNG — come out the same in every process.
    seq: u64,
    is_client: bool,
    dst_port: u16,
    /// (local, remote) pairs with a live (or in-progress) subflow.
    pairs: FxHashSet<(Addr, Addr)>,
    /// Local addresses announced to the peer (server side).
    announced: FxHashSet<Addr>,
}

/// The kernel full-mesh path manager.
#[derive(Debug, Default)]
pub struct FullMeshPm {
    conns: FxHashMap<ConnToken, ConnRec>,
    conns_created: u64,
    /// Subflows opened over the lifetime (diagnostics).
    pub subflows_opened: u64,
}

impl FullMeshPm {
    /// Fresh instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create every missing (local × remote) subflow for `token`.
    fn mesh(&mut self, token: ConnToken, view: &dyn StackView, actions: &mut PmActions) {
        let Some(rec) = self.conns.get_mut(&token) else {
            return;
        };
        if !rec.is_client {
            return;
        }
        for local in view.local_addrs() {
            for (_, remote, port) in view.remote_addrs(token) {
                if rec.pairs.insert((local, remote)) {
                    self.subflows_opened += 1;
                    actions.push(PmAction::OpenSubflow {
                        token,
                        src: local,
                        src_port: 0,
                        dst: remote,
                        dst_port: if port != 0 { port } else { rec.dst_port },
                        backup: false,
                    });
                }
            }
        }
    }

    /// Take the pair `(src, dst)` of client connection `token` for a
    /// subflow about to be re-opened, if the mesh would open it: both
    /// addresses are in `view` and no subflow holds the pair.
    pub fn claim(&mut self, token: ConnToken, src: Addr, dst: Addr, view: &dyn StackView) -> bool {
        let known = view.local_addrs().contains(&src)
            && view.remote_addrs(token).iter().any(|&(_, a, _)| a == dst);
        let rec = self.conns.get_mut(&token).filter(|rec| rec.is_client);
        known && rec.is_some_and(|rec| rec.pairs.insert((src, dst)))
    }

    /// Server side: announce local addresses the peer cannot see.
    fn announce(&mut self, token: ConnToken, view: &dyn StackView, actions: &mut PmActions) {
        let Some(rec) = self.conns.get_mut(&token) else {
            return;
        };
        if rec.is_client {
            return;
        }
        let mut next_id = rec.announced.len() as u8 + 1;
        for local in view.local_addrs() {
            // The address the connection already uses needs no announcing.
            let already_used = rec.pairs.iter().any(|(l, _)| *l == local);
            if !already_used && rec.announced.insert(local) {
                actions.push(PmAction::AnnounceAddr {
                    token,
                    addr_id: next_id,
                    addr: local,
                });
                next_id += 1;
            }
        }
    }
}

impl PathManagerHook for FullMeshPm {
    fn on_event(&mut self, ev: &PmEvent, view: &dyn StackView, actions: &mut PmActions) {
        match ev {
            PmEvent::ConnCreated {
                token,
                tuple,
                is_client,
                ..
            } => {
                let seq = self.conns_created;
                self.conns_created += 1;
                let rec = self.conns.entry(*token).or_insert_with(|| ConnRec {
                    seq,
                    ..Default::default()
                });
                rec.is_client = *is_client;
                rec.dst_port = tuple.dst_port;
                rec.pairs.insert((tuple.src, tuple.dst));
            }
            PmEvent::ConnEstablished { token, .. } => {
                self.mesh(*token, view, actions);
                self.announce(*token, view, actions);
            }
            PmEvent::ConnClosed { token } => {
                self.conns.remove(token);
            }
            PmEvent::SubflowEstablished { token, tuple, .. } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.pairs.insert((tuple.src, tuple.dst));
                }
            }
            PmEvent::SubflowClosed { token, tuple, .. } => {
                // Forget the pair so a future address event can recreate it.
                // (The kernel fullmesh does not retry by itself — that is
                // exactly the gap the paper's userspace fullmesh fills.)
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.pairs.remove(&(tuple.src, tuple.dst));
                }
            }
            PmEvent::AddAddrReceived { token, .. } => {
                self.mesh(*token, view, actions);
            }
            PmEvent::RemAddrReceived { .. } => {
                // Stack already forgot the address; mesh state updates when
                // the subflows close.
            }
            PmEvent::LocalAddrUp { .. } => {
                let mut tokens: Vec<(u64, ConnToken)> =
                    self.conns.iter().map(|(t, rec)| (rec.seq, *t)).collect();
                tokens.sort_unstable();
                for (_, t) in tokens {
                    self.mesh(t, view, actions);
                    self.announce(t, view, actions);
                }
            }
            PmEvent::LocalAddrDown { addr } => {
                for rec in self.conns.values_mut() {
                    rec.pairs.retain(|(l, _)| l != addr);
                }
            }
            PmEvent::RtoExpired { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "fullmesh"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_mptcp::FourTuple;

    /// A canned view for unit tests.
    struct FakeView {
        locals: Vec<Addr>,
        remotes: Vec<(u8, Addr, u16)>,
    }
    impl StackView for FakeView {
        fn local_addrs(&self) -> Vec<Addr> {
            self.locals.clone()
        }
        fn remote_addrs(&self, _: ConnToken) -> Vec<(u8, Addr, u16)> {
            self.remotes.clone()
        }
    }

    const L1: Addr = Addr::new(10, 0, 0, 1);
    const L2: Addr = Addr::new(10, 0, 2, 1);
    const R1: Addr = Addr::new(10, 0, 1, 1);
    const R2: Addr = Addr::new(10, 0, 3, 1);

    fn tuple() -> FourTuple {
        FourTuple {
            src: L1,
            src_port: 40000,
            dst: R1,
            dst_port: 80,
        }
    }

    fn created_and_estab(pm: &mut FullMeshPm, view: &FakeView, is_client: bool) -> PmActions {
        let mut actions = PmActions::new();
        pm.on_event(
            &PmEvent::ConnCreated {
                token: 1,
                tuple: tuple(),
                initial_subflow: 0,
                is_client,
            },
            view,
            &mut actions,
        );
        pm.on_event(
            &PmEvent::ConnEstablished {
                token: 1,
                tuple: tuple(),
                is_client,
            },
            view,
            &mut actions,
        );
        actions
    }

    #[test]
    fn meshes_local_by_remote() {
        let view = FakeView {
            locals: vec![L1, L2],
            remotes: vec![(0, R1, 80), (1, R2, 80)],
        };
        let mut pm = FullMeshPm::new();
        let mut actions = created_and_estab(&mut pm, &view, true);
        let opens: Vec<PmAction> = actions.drain().collect();
        // 2 locals x 2 remotes = 4 pairs, minus the initial (L1,R1) = 3.
        let count = opens
            .iter()
            .filter(|a| matches!(a, PmAction::OpenSubflow { .. }))
            .count();
        assert_eq!(count, 3);
        assert_eq!(pm.subflows_opened, 3);
    }

    #[test]
    fn server_announces_not_meshes() {
        let view = FakeView {
            locals: vec![R1, R2],
            remotes: vec![(0, L1, 40000)],
        };
        let mut pm = FullMeshPm::new();
        // Server perspective: tuple src=R1 (local), dst=L1.
        let mut actions = PmActions::new();
        pm.on_event(
            &PmEvent::ConnCreated {
                token: 1,
                tuple: FourTuple {
                    src: R1,
                    src_port: 80,
                    dst: L1,
                    dst_port: 40000,
                },
                initial_subflow: 0,
                is_client: false,
            },
            &view,
            &mut actions,
        );
        pm.on_event(
            &PmEvent::ConnEstablished {
                token: 1,
                tuple: FourTuple {
                    src: R1,
                    src_port: 80,
                    dst: L1,
                    dst_port: 40000,
                },
                is_client: false,
            },
            &view,
            &mut actions,
        );
        let acts: Vec<PmAction> = actions.drain().collect();
        assert!(acts
            .iter()
            .all(|a| !matches!(a, PmAction::OpenSubflow { .. })));
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(a, PmAction::AnnounceAddr { addr, .. } if *addr == R2))
                .count(),
            1
        );
    }

    #[test]
    fn add_addr_extends_mesh() {
        let view = FakeView {
            locals: vec![L1],
            remotes: vec![(0, R1, 80)],
        };
        let mut pm = FullMeshPm::new();
        created_and_estab(&mut pm, &view, true);
        // Remote announces R2.
        let view2 = FakeView {
            locals: vec![L1],
            remotes: vec![(0, R1, 80), (5, R2, 80)],
        };
        let mut actions = PmActions::new();
        pm.on_event(
            &PmEvent::AddAddrReceived {
                token: 1,
                addr_id: 5,
                addr: R2,
                port: None,
            },
            &view2,
            &mut actions,
        );
        let acts: Vec<PmAction> = actions.drain().collect();
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], PmAction::OpenSubflow { dst, .. } if dst == R2));
    }

    #[test]
    fn local_addr_up_re_meshes() {
        let view = FakeView {
            locals: vec![L1],
            remotes: vec![(0, R1, 80)],
        };
        let mut pm = FullMeshPm::new();
        created_and_estab(&mut pm, &view, true);
        let view2 = FakeView {
            locals: vec![L1, L2],
            remotes: vec![(0, R1, 80)],
        };
        let mut actions = PmActions::new();
        pm.on_event(&PmEvent::LocalAddrUp { addr: L2 }, &view2, &mut actions);
        let acts: Vec<PmAction> = actions.drain().collect();
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(a, PmAction::OpenSubflow { src, .. } if *src == L2))
                .count(),
            1
        );
    }

    #[test]
    fn local_addr_up_opens_subflows_in_connection_creation_order() {
        const CREATED: [ConnToken; 8] = [70, 3, 41, 9, 88, 15, 62, 27];
        let view = FakeView {
            locals: vec![L1, L2],
            remotes: vec![(0, R1, 80)],
        };
        let opened_for = || {
            let mut pm = FullMeshPm::new();
            let mut actions = PmActions::new();
            for token in CREATED {
                let created = PmEvent::ConnCreated {
                    token,
                    tuple: tuple(),
                    initial_subflow: 0,
                    is_client: true,
                };
                pm.on_event(&created, &view, &mut actions);
            }
            pm.on_event(&PmEvent::LocalAddrUp { addr: L2 }, &view, &mut actions);
            let opened = actions.drain().map(|a| match a {
                PmAction::OpenSubflow { token, .. } => token,
                other => panic!("unexpected {other:?}"),
            });
            opened.collect::<Vec<_>>()
        };
        // Two instances fed the same events agree, on creation order.
        assert_eq!(opened_for(), CREATED);
        assert_eq!(opened_for(), CREATED);
    }

    #[test]
    fn no_duplicate_subflows() {
        let view = FakeView {
            locals: vec![L1, L2],
            remotes: vec![(0, R1, 80)],
        };
        let mut pm = FullMeshPm::new();
        created_and_estab(&mut pm, &view, true);
        let opened = pm.subflows_opened;
        // Re-delivering establish-like events must not re-open.
        let mut actions = PmActions::new();
        pm.on_event(&PmEvent::LocalAddrUp { addr: L2 }, &view, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(pm.subflows_opened, opened);
    }

    #[test]
    fn closed_subflow_pair_can_reopen_on_addr_event() {
        let view = FakeView {
            locals: vec![L1, L2],
            remotes: vec![(0, R1, 80)],
        };
        let mut pm = FullMeshPm::new();
        created_and_estab(&mut pm, &view, true);
        let mut actions = PmActions::new();
        pm.on_event(
            &PmEvent::SubflowClosed {
                token: 1,
                id: 1,
                tuple: FourTuple {
                    src: L2,
                    src_port: 5,
                    dst: R1,
                    dst_port: 80,
                },
                error: smapp_mptcp::SubflowError::Timeout,
            },
            &view,
            &mut actions,
        );
        pm.on_event(&PmEvent::LocalAddrUp { addr: L2 }, &view, &mut actions);
        let acts: Vec<PmAction> = actions.drain().collect();
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(a, PmAction::OpenSubflow { src, .. } if *src == L2))
                .count(),
            1,
            "pair freed by sub_closed can be re-created"
        );
    }
}
