//! Send side: the transmission pump, retransmission, connection-level
//! reinjection and the path manager's signalling requests.

use std::cell::Cell;

use super::*;

thread_local! {
    /// The scheduler's candidate list for one [`Connection::pump`]. One per
    /// thread, shared by every connection on it: taken at entry and given
    /// back empty with its capacity, so the pump loop does not allocate.
    static SCHED_CANDS: Cell<Vec<SchedCandidate>> = Cell::default();
}

const PSH_ACK: TcpFlags = TcpFlags {
    psh: true,
    ..TcpFlags::ACK
};

impl Connection {
    /// Send a pure ACK (subflow + data ack) on `id`, optionally carrying
    /// one more MPTCP option (ADD_ADDR, MP_PRIO, ...).
    pub(super) fn send_ack(&self, id: SubflowId, extra: Option<MpOption>, env: &mut StackEnv<'_>) {
        let what = Seg {
            flags: TcpFlags::ACK,
            dss: Some(Dss::default()),
            mp: extra,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Send the FIN of subflow `id`, which sits at stream offset `fin_off`.
    pub(super) fn send_fin(&self, id: SubflowId, fin_off: u64, env: &mut StackEnv<'_>) {
        let what = Seg {
            flags: TcpFlags {
                fin: true,
                ..TcpFlags::ACK
            },
            off: Some(fin_off),
            dss: Some(Dss::default()),
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Signal the end of the meta stream (at `fin_off`) on its own, with a
    /// zero-length mapping.
    pub(super) fn send_standalone_datafin(
        &self,
        id: SubflowId,
        fin_off: u64,
        env: &mut StackEnv<'_>,
    ) {
        let mapping = DssMapping {
            dsn: self.wire_dsn(fin_off),
            ssn: 0,
            len: 0,
        };
        let what = Seg {
            flags: TcpFlags::ACK,
            dss: Some(Dss {
                mapping: Some(mapping),
                data_fin: true,
                ..Default::default()
            }),
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Transmit `range` of the meta stream on subflow `id`.
    fn send_data_on(
        &mut self,
        id: SubflowId,
        range: MetaRange,
        data_fin: bool,
        env: &mut StackEnv<'_>,
    ) {
        let payload = self.meta_send.slice(range.off, range.len);
        let sf = &mut self.subflows[id as usize];
        let ssn_off = sf.snd_off;
        debug_assert_eq!(payload.len(), range.len as usize);
        let tag = SegTag::new(range.off, payload.clone(), data_fin);
        sf.flight.on_send(ssn_off, range.len, env.now, tag);
        sf.snd_off += range.len as u64;
        let need_arm = !sf.rto_armed;
        let mapping = DssMapping {
            dsn: self.wire_dsn(range.off),
            ssn: (ssn_off as u32).wrapping_add(1),
            len: range.len as u16,
        };
        let what = Seg {
            flags: PSH_ACK,
            off: Some(ssn_off),
            dss: Some(Dss {
                mapping: Some(mapping),
                data_fin,
                ..Default::default()
            }),
            payload,
            ..Default::default()
        };
        self.emit(id, what, env);
        if need_arm {
            self.arm_rto(id, env);
        }
    }

    /// Retransmit the oldest outstanding segment (or the FIN) on `id`.
    pub(super) fn retransmit_head(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &mut self.subflows[id as usize];
        sf.stats.retrans += 1;
        let Some((off, len)) = sf.flight.mark_head_retransmitted(env.now) else {
            if let Some(fin_off) = sf.fin_sent_off.filter(|_| !sf.fin_acked) {
                self.send_fin(id, fin_off, env);
            }
            return;
        };
        let tag = &sf.flight.oldest().expect("head exists").tag;
        // A partial ACK may have trimmed the head inside the original
        // segment (a middlebox that re-segments the stream makes
        // mid-segment cumulative ACKs routine): the tag still holds the
        // payload as originally sent, so skip the acked prefix and
        // advance the mapping to match. Replaying the full payload at
        // the trimmed offset would shift the byte stream and write past
        // its end.
        let skip = tag.payload.len() - len as usize;
        let (payload, map, data_fin) = (tag.payload.slice(skip..), tag.map(), tag.data_fin());
        let mapping = Some(DssMapping {
            dsn: self.wire_dsn(map.off + skip as u64),
            ssn: (off as u32).wrapping_add(1),
            len: (map.len - skip as u32) as u16,
        });
        let what = Seg {
            flags: PSH_ACK,
            off: Some(off),
            dss: Some(Dss {
                mapping,
                data_fin,
                ..Default::default()
            }),
            payload,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    pub(super) fn established_rto(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &mut self.subflows[id as usize];
        if !sf.has_retransmittable() {
            sf.rto_armed = false;
            return;
        }
        sf.rto.on_expiry();
        if sf.rto.exhausted() {
            self.subflow_failed(id, SubflowError::Timeout, env, events);
            return;
        }
        let flight_bytes = sf.flight.bytes_in_flight();
        sf.cc.on_retransmit_timeout(flight_bytes);
        sf.recovery = None;
        sf.dupacks = 0;
        self.reinject_flight(id);
        self.retransmit_head(id, env);
        let sf = &self.subflows[id as usize];
        events.push(PmEvent::RtoExpired {
            token: self.token,
            id,
            current_rto: sf.current_rto(),
            backoffs: sf.rto.backoffs(),
        });
        self.arm_rto(id, env);
        self.pump(env);
    }

    /// Connection-level reinjection: everything subflow `id` has in flight
    /// becomes eligible on the other subflows.
    pub(super) fn reinject_flight(&mut self, id: SubflowId) {
        // Plain-TCP fallback must never reinject: there is one subflow and
        // no DSS mapping to re-anchor the bytes, so `send_data_on` would
        // append the payload at a fresh subflow offset and the receiver's
        // identity mapping would deliver it as duplicate stream bytes past
        // the end of the stream. Subflow-level retransmission
        // (`retransmit_head`) is the only recovery path here. (Found by
        // the scenario fuzzer: split-rewriter cases RTO under queue
        // pressure and tripped the stream-duplication oracle.)
        if self.is_fallback() {
            return;
        }
        let flight = &self.subflows[id as usize].flight;
        for r in flight.iter().map(|s| s.tag.map()) {
            self.reinject.add(r, self.meta_una);
        }
    }

    /// Candidates for the scheduler: established, able to carry data, with
    /// congestion window space; backups filtered per RFC 6824. Fills the
    /// caller's buffer so the per-segment pump loop reuses one allocation.
    fn fill_sched_candidates(&self, out: &mut Vec<SchedCandidate>) {
        out.clear();
        let any_regular_alive = self
            .subflows
            .iter()
            .any(|s| s.state == SfState::Established && !s.backup && s.can_carry_data());
        out.extend(
            self.subflows
                .iter()
                .filter(|s| s.can_carry_data() && s.cwnd_space() > 0)
                .filter(|s| !s.backup || !any_regular_alive)
                .map(|s| SchedCandidate {
                    id: s.id,
                    srtt: s.rtt.srtt(),
                    cwnd_space: s.cwnd_space(),
                    in_flight: s.flight.bytes_in_flight(),
                    backup: s.backup,
                }),
        );
    }

    /// Drive transmission: reinjections first, then new data, then the
    /// DATA_FIN. Runs until no scheduler candidate or nothing to send.
    pub(super) fn pump(&mut self, env: &mut StackEnv<'_>) {
        if self.state != ConnState::Established {
            return;
        }
        let mss = self.cfg.mss as u32;
        // Taken, not borrowed: a nested pump would get an empty list.
        let mut cands = SCHED_CANDS.take();
        loop {
            self.fill_sched_candidates(&mut cands);
            if cands.is_empty() {
                break;
            }
            // 1. Reinjection has priority.
            if let Some(r) = self.reinject.take_chunk(mss, self.meta_una) {
                let Some(chosen) = self.scheduler.select(&cands) else {
                    // Put it back; nothing can carry it now.
                    self.reinject.add(r, self.meta_una);
                    break;
                };
                let space = self.subflows[chosen as usize].cwnd_space() as u32;
                let len = r.len.min(space.max(1));
                let sent = MetaRange { off: r.off, len };
                self.send_data_on(chosen, sent, false, env);
                self.stats.reinjections += 1;
                if len < r.len {
                    let rest = MetaRange {
                        off: r.off + len as u64,
                        len: r.len - len,
                    };
                    self.reinject.add(rest, self.meta_una);
                }
                continue;
            }
            // 2. New data, subject to the peer's receive window.
            let unsent = self.meta_send.tail_offset() - self.meta_snd_nxt;
            let window_budget = self
                .peer_window
                .saturating_sub(self.meta_snd_nxt - self.meta_una);
            let can_new = unsent.min(window_budget);
            if can_new > 0 {
                let Some(chosen) = self.scheduler.select(&cands) else {
                    break;
                };
                let space = self.subflows[chosen as usize].cwnd_space() as u32;
                let len = (can_new as u32).min(mss).min(space.max(1));
                let range = MetaRange {
                    off: self.meta_snd_nxt,
                    len,
                };
                // Piggyback the DATA_FIN on the final data segment
                // (MPTCP only; fallback closes with a plain FIN below).
                let is_last = !self.is_fallback()
                    && self.app_closed
                    && range.end() == self.meta_send.tail_offset()
                    && self.fin_sent_off.is_none();
                self.send_data_on(chosen, range, is_last, env);
                if is_last {
                    self.data_fin_sent(range.end(), env);
                }
                self.meta_snd_nxt += len as u64;
                self.stats.bytes_sent += len as u64;
                if self.scheduler.duplicates() {
                    for c in &cands {
                        if c.id != chosen {
                            self.send_data_on(c.id, range, false, env);
                            self.stats.reinjections += 1;
                        }
                    }
                }
                continue;
            }
            // 3. Finish sending: standalone DATA_FIN (MPTCP) or plain FIN
            // on the lone subflow (fallback).
            if self.app_closed
                && self.fin_sent_off.is_none()
                && self.meta_snd_nxt == self.meta_send.tail_offset()
            {
                let fin_off = self.meta_send.tail_offset();
                if self.is_fallback() {
                    self.fin_sent_off = Some(fin_off);
                    self.subflows[0].fin_wanted = true;
                    self.try_send_subflow_fin(0, env);
                } else {
                    let Some(chosen) = self.scheduler.select(&cands) else {
                        break;
                    };
                    self.send_standalone_datafin(chosen, fin_off, env);
                    self.data_fin_sent(fin_off, env);
                }
            }
            break;
        }
        cands.clear();
        SCHED_CANDS.set(cands);
        self.update_coupling();
        self.maybe_close_subflows(env);
    }

    /// LIA coupling: recompute alpha across subflows and push it down.
    fn update_coupling(&mut self) {
        if self.cfg.cc != CcAlgo::Lia {
            return;
        }
        let inputs = self
            .subflows
            .iter()
            .filter(|s| s.state == SfState::Established)
            .map(|s| {
                let rtt = s.rtt.srtt().map_or(100_000, |d| d.as_micros() as u64);
                (s.cc.cwnd(), rtt)
            });
        if inputs.clone().nth(1).is_none() {
            return; // fewer than two: nothing to couple
        }
        let alpha = lia_alpha(inputs.clone());
        let total: u64 = inputs.map(|(c, _)| c).sum();
        for s in &mut self.subflows {
            if s.state == SfState::Established {
                s.cc.set_coupling(alpha, total);
            }
        }
    }

    fn best_live_subflow(&self) -> Option<SubflowId> {
        self.subflows
            .iter()
            .filter(|s| s.state == SfState::Established)
            .min_by_key(|s| (s.rtt.srtt().unwrap_or(Duration::MAX), s.id))
            .map(|s| s.id)
    }

    /// PM-requested backup-priority change; signals MP_PRIO to the peer.
    pub fn pm_set_backup(&mut self, id: SubflowId, backup: bool, env: &mut StackEnv<'_>) {
        if let Some(sf) = self.subflows.get_mut(id as usize) {
            if sf.state == SfState::Established {
                sf.backup = backup;
                let prio = MpOption::Prio {
                    backup,
                    addr_id: None,
                };
                self.send_ack(id, Some(prio), env);
            }
        }
    }

    /// PM-requested address announcement (ADD_ADDR to the peer).
    pub fn pm_announce_addr(&self, addr_id: u8, addr: Addr, env: &mut StackEnv<'_>) {
        if let Some(id) = self.best_live_subflow() {
            let add_addr = MpOption::AddAddr {
                addr_id,
                addr,
                port: None,
            };
            self.send_ack(id, Some(add_addr), env);
        }
    }

    /// PM-requested address withdrawal (REMOVE_ADDR to the peer).
    pub fn pm_withdraw_addr(&self, addr_id: u8, env: &mut StackEnv<'_>) {
        if let Some(id) = self.best_live_subflow() {
            let remove_addr = MpOption::RemoveAddr {
                addr_ids: vec![addr_id],
            };
            self.send_ack(id, Some(remove_addr), env);
        }
    }
}
