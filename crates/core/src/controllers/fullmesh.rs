//! §4.1 — userspace full-mesh with error-aware re-establishment.
//!
//! "Our first subflow controller is a reimplementation of the fullmesh
//! path manager [...] In addition, it also listens to the `sub_closed`
//! event to react to the failure of any subflow. When such an event
//! occurs, the subflow controller analyses the error condition (excessive
//! timeout, RST, reception of an ICMP message, etc.) and reacts
//! accordingly. It tries to reestablish the failed subflow and sets
//! different timeouts based on the error condition (e.g. a short timeout
//! if a RST was received and a longer timeout upon reception of an ICMP
//! network unreachable message)."
//!
//! ## Example
//!
//! ```
//! use smapp::{ControllerRuntime, FullMeshConfig, FullMeshController};
//! use std::time::Duration;
//!
//! // Paper defaults: short retry after a RST, longer after ICMP unreachable.
//! let dflt = FullMeshController::new();
//!
//! // Or tune the per-error backoffs before handing it to the runtime.
//! let ctl = FullMeshController::with_config(FullMeshConfig {
//!     retry_after_reset: Duration::from_millis(200),
//!     ..Default::default()
//! });
//! let user_process = ControllerRuntime::boxed(ctl);
//! # let _ = (dflt, user_process);
//! ```

use std::time::Duration;

use smapp_mptcp::{ConnToken, PmEvent, SubflowError};
use smapp_sim::{Addr, FxHashMap, FxHashSet};

use crate::controller::{ControlApi, SubflowController};

/// Re-establishment backoffs per error class.
#[derive(Clone, Debug)]
pub struct FullMeshConfig {
    /// Delay before retrying after an RST (middlebox lost state — retry
    /// quickly, the path itself works).
    pub retry_after_reset: Duration,
    /// Delay after excessive retransmission timeouts (path congested or
    /// broken — give it a moment).
    pub retry_after_timeout: Duration,
    /// Delay after ICMP unreachable (routing problem — wait longest).
    pub retry_after_unreachable: Duration,
}

impl Default for FullMeshConfig {
    fn default() -> Self {
        FullMeshConfig {
            retry_after_reset: Duration::from_secs(1),
            retry_after_timeout: Duration::from_secs(3),
            retry_after_unreachable: Duration::from_secs(10),
        }
    }
}

#[derive(Debug, Default)]
struct ConnRec {
    /// Creation rank: interface events walk the connections in this order,
    /// so the open commands they send — each making the kernel draw a port
    /// and an ISS from the world RNG — come out the same in every process.
    seq: u64,
    is_client: bool,
    /// Remote addresses (initial + ADD_ADDR), with ports.
    remotes: Vec<(Addr, u16)>,
    /// (src, dst) pairs believed to have a subflow (or one in progress).
    pairs: FxHashSet<(Addr, Addr)>,
}

/// A pending re-establishment attempt.
#[derive(Debug, Clone)]
struct Retry {
    token: ConnToken,
    src: Addr,
    dst: Addr,
    dst_port: u16,
}

/// The §4.1 controller.
#[derive(Debug, Default)]
pub struct FullMeshController {
    cfg: FullMeshConfig,
    conns: FxHashMap<ConnToken, ConnRec>,
    conns_created: u64,
    /// Local addresses currently up, in arrival order (learned from
    /// `new_local_addr` / `del_local_addr`; the kernel dumps existing
    /// addresses at subscription time).
    locals: Vec<Addr>,
    retries: Vec<Retry>,
    /// Subflows opened (diagnostics).
    pub subflows_opened: u64,
    /// Re-establishment attempts made (diagnostics).
    pub reestablishments: u64,
}

impl FullMeshController {
    /// With default backoffs.
    pub fn new() -> Self {
        Self::default()
    }

    /// With custom backoffs.
    pub fn with_config(cfg: FullMeshConfig) -> Self {
        FullMeshController {
            cfg,
            ..Default::default()
        }
    }

    fn retry_delay(&self, error: SubflowError) -> Option<Duration> {
        match error {
            SubflowError::Reset | SubflowError::Refused => Some(self.cfg.retry_after_reset),
            SubflowError::Timeout => Some(self.cfg.retry_after_timeout),
            SubflowError::NetUnreachable => Some(self.cfg.retry_after_unreachable),
            // Interface down: the new_local_addr event will re-mesh.
            SubflowError::IfaceDown => None,
            // Graceful or intentional closes are not failures.
            SubflowError::None | SubflowError::PmRequested => None,
        }
    }

    fn mesh(&mut self, api: &mut ControlApi<'_, '_>, token: ConnToken) {
        let Some(rec) = self.conns.get_mut(&token) else {
            return;
        };
        if !rec.is_client {
            return;
        }
        for &local in &self.locals {
            for &(remote, port) in &rec.remotes {
                if rec.pairs.insert((local, remote)) {
                    self.subflows_opened += 1;
                    api.open_subflow(token, local, 0, remote, port, false);
                }
            }
        }
    }
}

impl SubflowController for FullMeshController {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
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
                rec.remotes.push((tuple.dst, tuple.dst_port));
                rec.pairs.insert((tuple.src, tuple.dst));
            }
            PmEvent::ConnEstablished { token, .. } => self.mesh(api, *token),
            PmEvent::ConnClosed { token } => {
                self.conns.remove(token);
            }
            PmEvent::SubflowEstablished { token, tuple, .. } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.pairs.insert((tuple.src, tuple.dst));
                }
            }
            PmEvent::SubflowClosed {
                token,
                tuple,
                error,
                ..
            } => {
                let Some(rec) = self.conns.get_mut(token) else {
                    return;
                };
                rec.pairs.remove(&(tuple.src, tuple.dst));
                if let Some(delay) = self.retry_delay(*error) {
                    let idx = self.retries.len() as u64;
                    self.retries.push(Retry {
                        token: *token,
                        src: tuple.src,
                        dst: tuple.dst,
                        dst_port: tuple.dst_port,
                    });
                    api.set_timer(delay, idx);
                }
            }
            PmEvent::AddAddrReceived {
                token, addr, port, ..
            } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    let port =
                        port.unwrap_or_else(|| rec.remotes.first().map(|(_, p)| *p).unwrap_or(0));
                    if !rec.remotes.iter().any(|(a, _)| a == addr) {
                        rec.remotes.push((*addr, port));
                    }
                }
                self.mesh(api, *token);
            }
            PmEvent::RemAddrReceived { .. } => {
                // Subflows to the removed address will fail and not be
                // retried once the remote list is updated; conservative.
            }
            PmEvent::LocalAddrUp { addr } => {
                if !self.locals.contains(addr) {
                    self.locals.push(*addr);
                }
                let mut tokens: Vec<(u64, ConnToken)> =
                    self.conns.iter().map(|(t, rec)| (rec.seq, *t)).collect();
                tokens.sort_unstable();
                for (_, t) in tokens {
                    self.mesh(api, t);
                }
            }
            PmEvent::LocalAddrDown { addr } => {
                self.locals.retain(|l| l != addr);
                for rec in self.conns.values_mut() {
                    rec.pairs.retain(|(l, _)| l != addr);
                }
            }
            PmEvent::RtoExpired { .. } => {}
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let Some(r) = self.retries.get(token as usize).cloned() else {
            return;
        };
        let Some(rec) = self.conns.get_mut(&r.token) else {
            return; // connection is gone
        };
        if !self.locals.contains(&r.src) {
            return; // interface still down; new_local_addr will re-mesh
        }
        if rec.pairs.insert((r.src, r.dst)) {
            self.reestablishments += 1;
            api.open_subflow(r.token, r.src, 0, r.dst, r.dst_port, false);
        }
    }

    fn name(&self) -> &'static str {
        "fullmesh-user"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerRuntime;
    use smapp_mptcp::{FourTuple, PmAction};
    use smapp_netlink::{decode, encode_event, PmNlCommand, PmNlMessage, UserCtx, UserProcess};
    use smapp_sim::{SimRng, SimTime};

    #[test]
    fn mesh_commands_follow_connection_creation_and_address_arrival_order() {
        const CREATED: [ConnToken; 8] = [70, 3, 41, 9, 88, 15, 62, 27];
        let [l1, l2, l3, r1] = [1, 2, 3, 9].map(|n| Addr::new(10, 0, n, 1));
        let commands = || {
            let mut rng = SimRng::seed_from_u64(1);
            let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
            let mut rt = ControllerRuntime::new(FullMeshController::new());
            let mut feed = |ev: PmEvent| rt.on_message(&mut ctx, encode_event(&ev));
            feed(PmEvent::LocalAddrUp { addr: l2 });
            feed(PmEvent::LocalAddrUp { addr: l1 });
            for token in CREATED {
                feed(PmEvent::ConnCreated {
                    token,
                    tuple: FourTuple {
                        src: l1,
                        src_port: 40_000,
                        dst: r1,
                        dst_port: 80,
                    },
                    initial_subflow: 0,
                    is_client: true,
                });
            }
            feed(PmEvent::LocalAddrUp { addr: l3 });
            let opened = ctx.to_kernel.iter().map(|f| match decode(f).unwrap() {
                PmNlMessage::Command {
                    cmd: PmNlCommand::Action(PmAction::OpenSubflow { token, src, .. }),
                    ..
                } => (token, src),
                other => panic!("unexpected {other:?}"),
            });
            opened.collect::<Vec<_>>()
        };
        // Two instances fed the same events agree: connections in creation
        // order, and within each the addresses in arrival order.
        let expect: Vec<_> = CREATED.iter().flat_map(|&t| [(t, l2), (t, l3)]).collect();
        assert_eq!(commands(), expect);
        assert_eq!(commands(), expect);
    }
}
