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
//!
//! The mesh itself is the kernel's [`FullMeshPm`] under [`InUserspace`];
//! this module adds only the re-establishment layer.

use std::time::Duration;

use smapp_mptcp::{ConnToken, FourTuple, PmEvent, SubflowError};
use smapp_pm::FullMeshPm;
use smapp_sim::FxHashMap;

use super::InUserspace;
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

/// The §4.1 controller: the kernel [`FullMeshPm`] run in userspace, plus
/// the re-establishment of failed subflows.
#[derive(Debug, Default)]
pub struct FullMeshController {
    cfg: FullMeshConfig,
    mesh: InUserspace<FullMeshPm>,
    /// The failed subflows whose retry timer has not fired, by timer
    /// token.
    retries: FxHashMap<u64, (ConnToken, FourTuple)>,
    next_retry: u64,
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
}

impl SubflowController for FullMeshController {
    fn subscription(&self) -> u32 {
        self.mesh.subscription()
    }

    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        self.mesh.on_event(api, ev);
        if let PmEvent::SubflowClosed {
            token,
            tuple,
            error,
            ..
        } = *ev
        {
            if let Some(delay) = self.retry_delay(error) {
                self.retries.insert(self.next_retry, (token, tuple));
                api.set_timer(delay, self.next_retry);
                self.next_retry += 1;
            }
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let Some((conn, tuple)) = self.retries.remove(&token) else {
            return;
        };
        // The connection may be gone, an address down or withdrawn, or the
        // mesh may have re-opened the pair itself.
        let InUserspace { policy, view, .. } = &mut self.mesh;
        if policy.claim(conn, tuple.src, tuple.dst, view) {
            self.reestablishments += 1;
            api.open_subflow(conn, tuple.src, 0, tuple.dst, tuple.dst_port, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerRuntime;
    use smapp_mptcp::PmAction;
    use smapp_netlink::{decode, encode_event, PmNlCommand, PmNlMessage, UserCtx, UserProcess};
    use smapp_sim::{Addr, SimRng, SimTime};

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

    /// Every failed subflow takes one entry in the retry table, and its
    /// timer gives it back, whether it re-opens the subflow or finds the
    /// connection gone.
    #[test]
    fn retry_table_is_empty_once_the_timers_have_fired() {
        let [l1, l2, r1] = [1, 2, 9].map(|n| Addr::new(10, 0, n, 1));
        let subflow = |token, src| FourTuple {
            src,
            src_port: 40_000 + token as u16,
            dst: r1,
            dst_port: 80,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = UserCtx::new(SimTime::ZERO, &mut rng);
        let mut rt = ControllerRuntime::new(FullMeshController::new());
        let mut feed = |ctx: &mut UserCtx<'_>, ev: PmEvent| rt.on_message(ctx, encode_event(&ev));
        for addr in [l1, l2] {
            feed(&mut ctx, PmEvent::LocalAddrUp { addr });
        }
        for token in [1, 2] {
            let tuple = subflow(token, l1);
            let (initial_subflow, is_client) = (0, true);
            feed(
                &mut ctx,
                PmEvent::ConnCreated {
                    token,
                    tuple,
                    initial_subflow,
                    is_client,
                },
            );
            feed(
                &mut ctx,
                PmEvent::ConnEstablished {
                    token,
                    tuple,
                    is_client,
                },
            );
            // The join from l2 fails.
            let (tuple, error) = (subflow(token, l2), SubflowError::Reset);
            feed(
                &mut ctx,
                PmEvent::SubflowClosed {
                    token,
                    id: 1,
                    tuple,
                    error,
                },
            );
        }
        feed(&mut ctx, PmEvent::ConnClosed { token: 2 });
        assert_eq!(rt.controller.retries.len(), 2);
        let timers: Vec<u64> = ctx.timers.drain(..).map(|(_, t)| t).collect();
        ctx.to_kernel.clear();
        for t in timers {
            rt.on_timer(&mut ctx, t);
        }
        assert!(rt.controller.retries.is_empty());
        assert_eq!(rt.controller.reestablishments, 1, "connection 2 is gone");
        let reopened = decode(&ctx.to_kernel[0]).unwrap();
        assert!(matches!(
            reopened,
            PmNlMessage::Command {
                cmd: PmNlCommand::Action(PmAction::OpenSubflow { token: 1, src, .. }),
                ..
            } if src == l2
        ));
    }
}
