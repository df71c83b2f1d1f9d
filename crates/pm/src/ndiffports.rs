//! The in-kernel `ndiffports` path manager (baseline).
//!
//! "The ndiffports path manager creates n subflows over the same interface
//! as the initial one immediately after the establishment of the
//! connection. This path manager was designed for datacenters where it
//! enables the utilisation of paths that are load-balanced with Equal Cost
//! Multipath." (§2.) Source ports are ephemeral (random), so each subflow
//! hashes to a — hopefully — different ECMP path. §4.4 shows the weakness
//! this implies: with n close to the number of paths, collisions are
//! likely, and the kernel manager never rebalances.

use smapp_mptcp::{PathManagerHook, PmAction, PmActions, PmEvent, StackView};

/// The kernel ndiffports path manager.
#[derive(Debug)]
pub struct NdiffportsPm {
    /// Total subflows per connection (including the initial one).
    pub n: u8,
    /// Subflows opened over the lifetime (diagnostics).
    pub subflows_opened: u64,
}

impl NdiffportsPm {
    /// A manager creating `n` subflows per connection in total.
    pub fn new(n: u8) -> Self {
        assert!(n >= 1);
        NdiffportsPm {
            n,
            subflows_opened: 0,
        }
    }
}

impl PathManagerHook for NdiffportsPm {
    fn on_event(&mut self, ev: &PmEvent, _view: &dyn StackView, actions: &mut PmActions) {
        if let PmEvent::ConnEstablished {
            token,
            tuple,
            is_client: true,
        } = ev
        {
            for _ in 1..self.n {
                self.subflows_opened += 1;
                actions.push(PmAction::OpenSubflow {
                    token: *token,
                    src: tuple.src,
                    src_port: 0, // ephemeral: a fresh ECMP hash
                    dst: tuple.dst,
                    dst_port: tuple.dst_port,
                    backup: false,
                });
            }
        }
    }

    fn name(&self) -> &'static str {
        "ndiffports"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_mptcp::{ConnToken, FourTuple};
    use smapp_sim::Addr;

    struct NullView;
    impl StackView for NullView {
        fn local_addrs(&self) -> Vec<Addr> {
            vec![]
        }
        fn remote_addrs(&self, _: ConnToken) -> Vec<(u8, Addr, u16)> {
            vec![]
        }
    }

    fn estab(is_client: bool) -> PmEvent {
        PmEvent::ConnEstablished {
            token: 7,
            tuple: FourTuple {
                src: Addr::new(10, 0, 0, 1),
                src_port: 40000,
                dst: Addr::new(10, 0, 1, 1),
                dst_port: 80,
            },
            is_client,
        }
    }

    #[test]
    fn opens_n_minus_one_on_establish() {
        let mut pm = NdiffportsPm::new(5);
        let mut actions = PmActions::new();
        pm.on_event(&estab(true), &NullView, &mut actions);
        let acts: Vec<PmAction> = actions.drain().collect();
        assert_eq!(acts.len(), 4);
        for a in &acts {
            match a {
                PmAction::OpenSubflow {
                    src_port, backup, ..
                } => {
                    assert_eq!(*src_port, 0, "ephemeral port for a fresh hash");
                    assert!(!backup);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn server_side_does_nothing() {
        let mut pm = NdiffportsPm::new(5);
        let mut actions = PmActions::new();
        pm.on_event(&estab(false), &NullView, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn n_one_is_single_path() {
        let mut pm = NdiffportsPm::new(1);
        let mut actions = PmActions::new();
        pm.on_event(&estab(true), &NullView, &mut actions);
        assert!(actions.is_empty());
    }
}
