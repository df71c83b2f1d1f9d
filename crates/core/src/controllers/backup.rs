//! §4.2 — smarter backup (break-before-make).
//!
//! "Our controller does not immediately establish the backup subflow. On a
//! smartphone where the cellular interface would likely be used as a
//! backup, this reduces both energy and radio resource consumption. The
//! controller simply listens to the `timeout` event. When a retransmission
//! timer expires, it checks the current value of the timer. If the timer
//! becomes larger than a configured threshold, the subflow is considered
//! to be underperforming. The controller then closes the underperforming
//! subflow and creates a subflow over the backup interface to continue the
//! transfer."
//!
//! ## Example
//!
//! ```
//! use smapp::{BackupConfig, BackupController, ControllerRuntime};
//! use smapp_sim::Addr;
//! use std::time::Duration;
//!
//! // Cut the primary once its RTO passes 1 s (the paper's threshold) and
//! // fail over to the cellular interface.
//! let ctl = BackupController::new(BackupConfig {
//!     rto_threshold: Duration::from_secs(1),
//!     backup_src: Addr::new(10, 0, 2, 1),
//! });
//! let user_process = ControllerRuntime::boxed(ctl);
//! # let _ = user_process;
//! ```

use std::time::Duration;

use smapp_mptcp::{ConnToken, PmEvent, SubflowId};
use smapp_sim::{Addr, FxHashMap, SimTime};

use crate::controller::{ControlApi, SubflowController};

/// Backup-controller tunables.
#[derive(Clone, Debug)]
pub struct BackupConfig {
    /// RTO value above which the current subflow is "underperforming"
    /// (paper: 1 s).
    pub rto_threshold: Duration,
    /// The backup interface's address (e.g. the cellular interface).
    pub backup_src: Addr,
}

#[derive(Debug)]
struct ConnRec {
    dst: Addr,
    dst_port: u16,
    /// Source address of each live subflow.
    sub_src: FxHashMap<SubflowId, Addr>,
}

/// The §4.2 controller.
#[derive(Debug)]
pub struct BackupController {
    cfg: BackupConfig,
    conns: FxHashMap<ConnToken, ConnRec>,
    /// `(time, token, killed subflow)` of every switchover (the Fig. 2a
    /// switch instant).
    pub switchovers: Vec<(SimTime, ConnToken, SubflowId)>,
}

impl BackupController {
    /// New controller guarding with `cfg`.
    pub fn new(cfg: BackupConfig) -> Self {
        BackupController {
            cfg,
            conns: FxHashMap::default(),
            switchovers: Vec::new(),
        }
    }
}

impl SubflowController for BackupController {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        match ev {
            PmEvent::ConnCreated {
                token,
                tuple,
                initial_subflow,
                is_client: true,
            } => {
                let mut sub_src = FxHashMap::default();
                sub_src.insert(*initial_subflow, tuple.src);
                self.conns.insert(
                    *token,
                    ConnRec {
                        dst: tuple.dst,
                        dst_port: tuple.dst_port,
                        sub_src,
                    },
                );
            }
            PmEvent::SubflowEstablished {
                token, id, tuple, ..
            } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.sub_src.insert(*id, tuple.src);
                }
            }
            PmEvent::SubflowClosed {
                token, id, error, ..
            } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    let src = rec.sub_src.remove(id);
                    // Hard break: the subflow died because its interface
                    // went down (mobility — the radio disappeared before
                    // the RTO threshold could trigger the soft switch).
                    // If that killed our last working subflow and it was
                    // not already the backup, activate the backup now.
                    if *error == smapp_mptcp::SubflowError::IfaceDown
                        && rec.sub_src.is_empty()
                        && src.is_some_and(|s| s != self.cfg.backup_src)
                    {
                        api.open_subflow(
                            *token,
                            self.cfg.backup_src,
                            0,
                            rec.dst,
                            rec.dst_port,
                            false,
                        );
                        self.switchovers.push((api.now(), *token, *id));
                    }
                }
            }
            PmEvent::ConnClosed { token } => {
                self.conns.remove(token);
            }
            PmEvent::RtoExpired {
                token,
                id,
                current_rto,
                ..
            } => {
                if *current_rto < self.cfg.rto_threshold {
                    return;
                }
                let Some(rec) = self.conns.get_mut(token) else {
                    return;
                };
                // Only act on subflows not already on the backup interface.
                match rec.sub_src.get(id) {
                    Some(src) if *src != self.cfg.backup_src => {}
                    _ => return,
                }
                // Break …
                api.close_subflow(*token, *id, true);
                rec.sub_src.remove(id);
                // … then make.
                api.open_subflow(*token, self.cfg.backup_src, 0, rec.dst, rec.dst_port, false);
                self.switchovers.push((api.now(), *token, *id));
            }
            _ => {}
        }
    }
}
