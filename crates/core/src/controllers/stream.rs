//! §4.3 — smarter streaming.
//!
//! "We prototype a subflow controller that expects the blocks of data to
//! be delivered within 1 second. 500 msec after each start of block, it
//! measures the progress of the data transfer by extracting the `snd_una`
//! state variable from the kernel. If fewer than 32 KBytes have been sent,
//! it considers the subflow to be underperforming and opens another
//! subflow on the other interface. This controller also monitors the
//! evolution of the RTO. If the RTO of a subflow becomes larger than
//! 1 second, it is immediately closed."
//!
//! ## Example
//!
//! ```
//! use smapp::{ControllerRuntime, StreamConfig, StreamController};
//! use smapp_sim::Addr;
//!
//! // Paper workload: 64 KB blocks every second, checked at +500 ms, with
//! // the second subflow opened from the other interface when lagging.
//! let cfg = StreamConfig::paper(Addr::new(10, 0, 2, 1));
//! assert_eq!(cfg.block_size, 64 * 1024);
//! let user_process = ControllerRuntime::boxed(StreamController::new(cfg));
//! # let _ = user_process;
//! ```

use std::time::Duration;

use smapp_mptcp::{ConnToken, PmEvent, SubflowId};
use smapp_sim::{Addr, FxHashMap, SimTime};
use smapp_tcp::TcpInfo;

use crate::controller::{ControlApi, SubflowController};

/// Streaming-controller tunables (defaults match the paper's workload).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Block size the application writes per interval (64 KB).
    pub block_size: u64,
    /// Block interval (1 s).
    pub interval: Duration,
    /// When to check progress within each block (500 ms).
    pub check_offset: Duration,
    /// Minimum acknowledged bytes of the current block at check time
    /// (32 KB).
    pub min_progress: u64,
    /// Close any subflow whose RTO exceeds this (1 s).
    pub rto_close_threshold: Duration,
    /// The second interface to open a subflow from when lagging.
    pub secondary_src: Addr,
}

impl StreamConfig {
    /// Paper defaults, with the given secondary interface.
    pub fn paper(secondary_src: Addr) -> Self {
        StreamConfig {
            block_size: 64 * 1024,
            interval: Duration::from_secs(1),
            check_offset: Duration::from_millis(500),
            min_progress: 32 * 1024,
            rto_close_threshold: Duration::from_secs(1),
            secondary_src,
        }
    }
}

#[derive(Debug)]
struct ConnRec {
    dst: Addr,
    dst_port: u16,
    established_at: SimTime,
    second_opened: bool,
    sub_src: FxHashMap<SubflowId, Addr>,
}

/// The §4.3 controller.
#[derive(Debug)]
pub struct StreamController {
    cfg: StreamConfig,
    /// Timer-token registry: index -> token.
    reg: Vec<ConnToken>,
    conns: FxHashMap<ConnToken, ConnRec>,
    /// Times at which the second subflow was opened (diagnostics).
    pub interventions: Vec<SimTime>,
    /// Subflows closed for excessive RTO (diagnostics).
    pub rto_closes: Vec<(SimTime, SubflowId)>,
}

impl StreamController {
    /// New controller.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamController {
            cfg,
            reg: Vec::new(),
            conns: FxHashMap::default(),
            interventions: Vec::new(),
            rto_closes: Vec::new(),
        }
    }

    /// The block index whose check is due at `now` (0-based), if the
    /// connection has been up long enough for any check.
    fn due_block(cfg: &StreamConfig, rec: &ConnRec, now: SimTime) -> Option<u64> {
        let since = now.checked_since(rec.established_at)?;
        if since < cfg.check_offset {
            return None;
        }
        Some(((since - cfg.check_offset).as_nanos() / cfg.interval.as_nanos()) as u64)
    }
}

impl SubflowController for StreamController {
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
                        established_at: SimTime::ZERO,
                        second_opened: false,
                        sub_src,
                    },
                );
            }
            PmEvent::ConnEstablished {
                token,
                is_client: true,
                ..
            } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.established_at = api.now();
                    let idx = self.reg.len() as u64;
                    self.reg.push(*token);
                    api.set_timer(self.cfg.check_offset, idx);
                }
            }
            PmEvent::SubflowEstablished {
                token, id, tuple, ..
            } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.sub_src.insert(*id, tuple.src);
                }
            }
            PmEvent::SubflowClosed { token, id, .. } => {
                if let Some(rec) = self.conns.get_mut(token) {
                    rec.sub_src.remove(id);
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
                if *current_rto <= self.cfg.rto_close_threshold {
                    return;
                }
                let Some(rec) = self.conns.get_mut(token) else {
                    return;
                };
                if !rec.sub_src.contains_key(id) {
                    return;
                }
                // "If the RTO of a subflow becomes larger than 1 second,
                // it is immediately closed."
                api.close_subflow(*token, *id, true);
                let src = rec.sub_src.remove(id);
                self.rto_closes.push((api.now(), *id));
                // Keep the stream alive: if that was the last subflow,
                // open one on whichever interface the dead one wasn't on.
                if rec.sub_src.is_empty() {
                    let replacement = if src == Some(self.cfg.secondary_src) {
                        // Secondary died; nothing smarter to do than the
                        // secondary again? No: reopen on the primary's
                        // address if we know it, else secondary.
                        src.unwrap_or(self.cfg.secondary_src)
                    } else {
                        self.cfg.secondary_src
                    };
                    api.open_subflow(*token, replacement, 0, rec.dst, rec.dst_port, false);
                    rec.second_opened = true;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, token: u64) {
        let Some(conn_token) = self.reg.get(token as usize).copied() else {
            return;
        };
        if !self.conns.contains_key(&conn_token) {
            return; // connection gone: stop polling
        }
        api.get_info(conn_token, None, token);
        api.set_timer(self.cfg.interval, token);
    }

    fn on_info(
        &mut self,
        api: &mut ControlApi<'_, '_>,
        _tag: u64,
        token: ConnToken,
        conn: Option<(u64, u64)>,
        _subflows: &[(SubflowId, TcpInfo)],
    ) {
        let now = api.now();
        let Some(rec) = self.conns.get_mut(&token) else {
            return;
        };
        let Some((snd_una, _)) = conn else {
            return;
        };
        let Some(block) = Self::due_block(&self.cfg, rec, now) else {
            return;
        };
        // Block `block` started at offset block*B; at check time we demand
        // at least `min_progress` of it acknowledged.
        let target = block * self.cfg.block_size + self.cfg.min_progress;
        if snd_una < target && !rec.second_opened {
            rec.second_opened = true;
            api.open_subflow(
                token,
                self.cfg.secondary_src,
                0,
                rec.dst,
                rec.dst_port,
                false,
            );
            self.interventions.push(now);
        }
    }
}
