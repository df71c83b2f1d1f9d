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
use smapp_sim::{Addr, FxHashMap, SimTime};
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
    reg: Vec<ConnToken>,
    conns: FxHashMap<ConnToken, ConnRec>,
    /// `(time, killed subflow, its pacing rate)` per refresh (diagnostics).
    pub refreshes: Vec<(SimTime, SubflowId, u64)>,
}

impl RefreshController {
    /// New controller.
    pub fn new(cfg: RefreshConfig) -> Self {
        RefreshController {
            cfg,
            reg: Vec::new(),
            conns: FxHashMap::default(),
            refreshes: Vec::new(),
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
                self.conns.insert(
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
                let idx = self.reg.len() as u64;
                self.reg.push(*token);
                api.set_timer(self.cfg.poll_interval, idx);
            }
            PmEvent::ConnClosed { token } => {
                self.conns.remove(token);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let Some(conn_token) = self.reg.get(token as usize).copied() else {
            return;
        };
        if !self.conns.contains_key(&conn_token) {
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
        let Some(rec) = self.conns.get(&token) else {
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
