//! A server-side controller from §3 of the paper:
//!
//! "The `sub_estab` event is triggered once a new subflow has been
//! established. A server could use this event to limit the number of
//! subflows that it currently accepts (e.g., only accept subflows
//! originating from different addresses to prevent ressource abuse with
//! parallel subflows)."
//!
//! [`ServerLimitController`] enforces a per-remote-address subflow budget
//! on every accepted connection: excess subflows are closed with RST the
//! moment they establish.

use smapp_mptcp::{ConnToken, PmEvent, SubflowId};
use smapp_sim::{Addr, FxHashMap, SimTime};

use crate::controller::{ControlApi, SubflowController};

/// Per-address subflow budget.
#[derive(Clone, Debug)]
pub struct ServerLimitConfig {
    /// Maximum live subflows accepted from one remote address per
    /// connection (1 = the paper's "only … different addresses" policy).
    pub max_per_addr: usize,
}

impl Default for ServerLimitConfig {
    fn default() -> Self {
        ServerLimitConfig { max_per_addr: 1 }
    }
}

/// The §3 resource-abuse guard.
#[derive(Debug)]
pub struct ServerLimitController {
    cfg: ServerLimitConfig,
    /// token -> remote addr -> live accepted subflows.
    conns: FxHashMap<ConnToken, FxHashMap<Addr, Vec<SubflowId>>>,
    /// `(time, token, subflow)` of every rejection.
    pub rejections: Vec<(SimTime, ConnToken, SubflowId)>,
}

impl ServerLimitController {
    /// New controller with the given budget.
    pub fn new(cfg: ServerLimitConfig) -> Self {
        ServerLimitController {
            cfg,
            conns: FxHashMap::default(),
            rejections: Vec::new(),
        }
    }
}

impl SubflowController for ServerLimitController {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        match ev {
            PmEvent::SubflowEstablished {
                token,
                id,
                tuple,
                initiated_here: false,
                ..
            } => {
                // We are the server: the subflow's remote end is tuple.dst.
                let per_addr = self.conns.entry(*token).or_default();
                let live = per_addr.entry(tuple.dst).or_default();
                if live.len() >= self.cfg.max_per_addr {
                    self.rejections.push((api.now(), *token, *id));
                    api.close_subflow(*token, *id, true);
                } else {
                    live.push(*id);
                }
            }
            PmEvent::SubflowClosed {
                token, id, tuple, ..
            } => {
                if let Some(per_addr) = self.conns.get_mut(token) {
                    if let Some(live) = per_addr.get_mut(&tuple.dst) {
                        live.retain(|s| s != id);
                    }
                }
            }
            PmEvent::ConnClosed { token } => {
                self.conns.remove(token);
            }
            _ => {}
        }
    }
}
