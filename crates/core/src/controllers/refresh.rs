//! §4.4 — smarter exploitation of flow-based load balancing.
//!
//! "When the connection starts, our controller creates n subflows. These
//! subflows use random source ports and are load-balanced in the network.
//! Regularly (every 2.5 seconds in our current implementation), the
//! controller queries the Multipath TCP stack to retrieve the
//! `pacing_rate` of each subflow. [...] Our controller compares the
//! pacing_rate of the different subflows, removes the one with the lowest
//! rate and immediately creates a new subflow."
//!
//! ## Example
//!
//! ```
//! use smapp::{ControllerRuntime, RefreshConfig, RefreshController};
//! use std::time::Duration;
//!
//! // §4.4 defaults: 5 subflows, slowest replaced every 2.5 s, never
//! // dropping below 2 established subflows.
//! let cfg = RefreshConfig::default();
//! assert_eq!(cfg.n, 5);
//! assert_eq!(cfg.poll_interval, Duration::from_millis(2500));
//!
//! let ctl = RefreshController::new(RefreshConfig { n: 3, ..Default::default() });
//! let user_process = ControllerRuntime::boxed(ctl);
//! # let _ = user_process;
//! ```

use std::time::Duration;

use smapp_mptcp::{ConnToken, PmEvent, SubflowId};
use smapp_sim::{Addr, FxHashMap, Recycle, SimTime, Spare};
use smapp_tcp::{TcpInfo, TcpStateInfo};

use crate::controller::{ControlApi, SubflowController};

/// Refresh-controller tunables (defaults match §4.4).
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Total subflows to maintain (paper: 5).
    pub n: u8,
    /// Poll period (paper: 2.5 s).
    pub poll_interval: Duration,
    /// Leave at least this many established subflows alone (never refresh
    /// below two, or there is nothing to compare).
    pub min_established: usize,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            n: 5,
            poll_interval: Duration::from_millis(2500),
            min_established: 2,
        }
    }
}

#[derive(Debug)]
struct ConnRec {
    src: Addr,
    dst: Addr,
    dst_port: u16,
}

/// The §4.4 controller.
#[derive(Debug)]
pub struct RefreshController {
    cfg: RefreshConfig,
    t: Spare<Tables>,
    /// `(time, killed subflow, its pacing rate)` per refresh (diagnostics).
    pub refreshes: Spare<Vec<(SimTime, SubflowId, u64)>>,
}

/// The controller's connection tables. `conns` is only probed, never
/// iterated, and `reg` is indexed by its own pushes, so their capacity
/// reaches no trajectory.
#[derive(Debug, Default)]
struct Tables {
    reg: Vec<ConnToken>,
    conns: FxHashMap<ConnToken, ConnRec>,
}

impl Recycle for Tables {
    fn reset(&mut self) {
        self.reg.clear();
        self.conns.clear();
    }
    fn is_empty(&self) -> bool {
        self.reg.is_empty() && self.conns.is_empty()
    }
}

impl RefreshController {
    /// New controller, on the tables the last one dropped on this thread
    /// gave back.
    pub fn new(cfg: RefreshConfig) -> Self {
        RefreshController {
            cfg,
            t: Spare::default(),
            refreshes: Spare::default(),
        }
    }
}

impl SubflowController for RefreshController {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        match ev {
            PmEvent::ConnEstablished {
                token,
                tuple,
                is_client: true,
            } => {
                self.t.conns.insert(
                    *token,
                    ConnRec {
                        src: tuple.src,
                        dst: tuple.dst,
                        dst_port: tuple.dst_port,
                    },
                );
                // n subflows in total; each with an ephemeral (random)
                // source port — a fresh ECMP hash per subflow.
                for _ in 1..self.cfg.n {
                    api.open_subflow(*token, tuple.src, 0, tuple.dst, tuple.dst_port, false);
                }
                let idx = self.t.reg.len() as u64;
                self.t.reg.push(*token);
                api.set_timer(self.cfg.poll_interval, idx);
            }
            PmEvent::ConnClosed { token } => {
                self.t.conns.remove(token);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let Some(conn_token) = self.t.reg.get(token as usize).copied() else {
            return;
        };
        if !self.t.conns.contains_key(&conn_token) {
            return; // connection done: stop polling
        }
        api.get_info(conn_token, None, token);
        api.set_timer(self.cfg.poll_interval, token);
    }

    fn on_info(
        &mut self,
        api: &mut ControlApi<'_, '_>,
        _tag: u64,
        token: ConnToken,
        _conn: Option<(u64, u64)>,
        subflows: &[(SubflowId, TcpInfo)],
    ) {
        let Some(rec) = self.t.conns.get(&token) else {
            return;
        };
        // Judge only subflows that are established and have an RTT sample
        // (pacing_rate 0 means "too young to have carried anything"): count
        // them, and find the slowest, the lowest id among equals.
        let (mut judged, mut slowest) = (0, None);
        for (id, i) in subflows {
            if i.state == TcpStateInfo::Established && i.pacing_rate > 0 {
                judged += 1;
                let key = (i.pacing_rate, *id);
                slowest = Some(slowest.map_or(key, |s: (u64, SubflowId)| s.min(key)));
            }
        }
        let Some((rate, victim)) = slowest.filter(|_| judged >= self.cfg.min_established) else {
            return;
        };
        // Remove the slowest …
        api.close_subflow(token, victim, true);
        // … and immediately create a replacement with a fresh random port.
        api.open_subflow(token, rec.src, 0, rec.dst, rec.dst_port, false);
        self.refreshes.push((api.now(), victim, rate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dropped controller gives its tables, emptied, to the thread; the
    /// next one starts on them.
    #[test]
    fn a_new_controller_starts_on_the_tables_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let mut ctl = RefreshController::new(RefreshConfig::default());
            let rec = || ConnRec {
                src: Addr::new(10, 0, 0, 1),
                dst: Addr::new(10, 0, 0, 2),
                dst_port: 80,
            };
            for token in 0..3 {
                ctl.t.reg.push(token);
                ctl.t.conns.insert(token, rec());
                ctl.refreshes.push((SimTime::ZERO, 1, 10));
            }
            let caps = |c: &RefreshController| {
                let lens = (c.t.reg.len(), c.t.conns.len(), c.refreshes.len());
                let caps = (
                    c.t.reg.capacity(),
                    c.t.conns.capacity(),
                    c.refreshes.capacity(),
                );
                (lens, caps)
            };
            let (_, held) = caps(&ctl);
            drop(ctl);
            let ctl = RefreshController::new(RefreshConfig::default());
            assert_eq!(caps(&ctl), ((0, 0, 0), held));
        })
        .join()
        .unwrap();
    }
}
