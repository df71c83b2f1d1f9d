//! Close side: DATA_FIN, subflow FIN exchanges, subflow death, abort.

use super::*;

impl Connection {
    /// A DATA_FIN for meta offset `fin_off` just went out: remember it and
    /// start its retransmission timer.
    pub(super) fn data_fin_sent(&mut self, fin_off: u64, env: &mut StackEnv<'_>) {
        self.fin_sent_off = Some(fin_off);
        self.meta_fin_backoff = 0;
        self.arm_meta_fin_timer(env);
    }

    fn arm_meta_fin_timer(&mut self, env: &mut StackEnv<'_>) {
        self.meta_fin_gen = self.meta_fin_gen.wrapping_add(1) & 0x0FFF_FFFF;
        let backoff = Duration::from_secs(1 << self.meta_fin_backoff.min(5));
        let t = timer_token(TimerKind::MetaFin, self.idx, 0, self.meta_fin_gen);
        env.timers.push((backoff, t));
    }

    /// Meta-level DATA_FIN retransmission timer.
    pub fn on_meta_fin_timer(
        &mut self,
        gen: u64,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        if gen != self.meta_fin_gen || self.fin_acked || self.state == ConnState::Closed {
            return;
        }
        let Some(fin_off) = self.fin_sent_off else {
            return;
        };
        self.meta_fin_backoff += 1;
        if self.meta_fin_backoff > 10 {
            // Peer is unreachable at the data level; abort.
            self.abort(env, events);
            return;
        }
        // Re-send a standalone DATA_FIN on every live subflow: one of them
        // may be a zombie (the peer's side died behind a NAT and its RST
        // never reached us), and the data level deduplicates the signal.
        for sf in &self.subflows {
            if sf.state == SfState::Established {
                self.send_standalone_datafin(sf.id, fin_off, env);
            }
        }
        self.arm_meta_fin_timer(env);
    }

    /// When the meta close handshake is done in both directions, wind down
    /// the subflows with FIN exchanges.
    pub(super) fn maybe_close_subflows(&mut self, env: &mut StackEnv<'_>) {
        if !(self.fin_acked && self.eof_delivered) {
            return;
        }
        for id in 0..self.subflows.len() {
            let sf = &mut self.subflows[id];
            if sf.state == SfState::Established && sf.fin_sent_off.is_none() {
                sf.fin_wanted = true;
                self.try_send_subflow_fin(id as SubflowId, env);
            }
        }
    }

    pub(super) fn try_send_subflow_fin(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &mut self.subflows[id as usize];
        if sf.state != SfState::Established || sf.fin_sent_off.is_some() || !sf.flight.is_empty() {
            return;
        }
        let fin_off = sf.snd_off();
        sf.fin_sent_off = Some(fin_off);
        self.send_fin(id, fin_off, env);
        self.arm_rto(id, env);
    }

    /// After ACK processing, progress subflow FIN state machines.
    pub(super) fn finish_subflow_close(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        // Peer closed toward us and we're done too? Reciprocate the FIN.
        let meta_done = self.fin_acked && self.eof_delivered;
        let sf = &mut self.subflows[id as usize];
        if meta_done
            && sf.state == SfState::Established
            && sf.peer_fin_consumed
            && sf.fin_sent_off.is_none()
        {
            sf.fin_wanted = true;
        }
        // FIN wanted and flight drained? send it.
        if sf.fin_wanted {
            self.try_send_subflow_fin(id, env);
        }
        // Both directions done? Subflow is closed.
        let sf = &self.subflows[id as usize];
        if sf.state == SfState::Established && sf.close_complete() {
            self.kill_subflow(id, SubflowError::None, events);
        }
    }

    /// Did every subflow close after a completed meta close? Then the
    /// connection is done.
    pub(super) fn maybe_conn_closed(&mut self, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state != ConnState::Established {
            return;
        }
        let meta_done = self.fin_acked && self.eof_delivered;
        let all_closed = self.subflows.iter().all(|s| s.state == SfState::Closed);
        if meta_done && all_closed {
            self.closed(env.now, events);
        }
    }

    /// Hard-abort the connection (handshake failure, FASTCLOSE, meta
    /// timeout): every subflow dies, the app learns immediately.
    pub(super) fn abort(&mut self, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state == ConnState::Closed {
            return;
        }
        for id in self.live_subflow_ids() {
            self.kill_subflow(id, SubflowError::Timeout, events);
        }
        self.closed(env.now, events);
    }

    /// The connection is over: tell the path manager and the application.
    /// The object stays for post-run inspection (stats, stream taps, the
    /// diag dump), its buffers do not (see [`Connection::release_buffers`]).
    fn closed(&mut self, now: SimTime, events: &mut Vec<PmEvent>) {
        self.state = ConnState::Closed;
        self.stats.closed_at = Some(now);
        self.release_buffers();
        events.push(PmEvent::ConnClosed { token: self.token });
        if let Some(app) = self.app.as_mut() {
            app.on_closed(now);
        }
    }

    /// Drop what the connection's buffers and the buffers of its open
    /// subflows hold, and give their emptied storage and the scheduling
    /// scratch to the thread's store. Closing runs it once every
    /// subflow has closed; a stack dropped with the connection still open
    /// runs it instead. Either way it runs once.
    pub(crate) fn release_buffers(&mut self) {
        let role = self.role;
        for sf in &mut self.subflows {
            if sf.state != SfState::Closed {
                sf.release_buffers(role);
            }
        }
        spare::give(
            role as u8,
            ConnSpare {
                send: self.meta_send.clear(),
                recv: self.meta_recv.clear(),
                reinject: self.reinject.take_storage(),
            },
        );
    }

    /// The stack is dropped: give the thread what stayed past the close
    /// for post-run inspection, emptied — the stream taps' snapshot
    /// storage and the subflow table. Every subflow gave its buffers back
    /// when it closed, or in [`Connection::release_buffers`].
    pub(crate) fn retire(self) {
        let Connection {
            role,
            stats,
            mut subflows,
            mut retired,
            ..
        } = self;
        subflows.clear();
        retired.subflows = subflows;
        retired.taps = [stats.tap_sent, stats.tap_recvd].map(StreamTap::into_spare);
        spare::give(role as u8, retired);
    }

    /// The subflows closed since the last call, each once: the stack
    /// drops them from its demux table.
    pub(crate) fn reap_closed(&mut self) -> impl Iterator<Item = (SubflowId, FourTuple)> + '_ {
        self.subflows
            .iter_mut()
            .filter(|sf| sf.state == SfState::Closed && !sf.reaped)
            .map(|sf| {
                sf.reaped = true;
                (sf.id, sf.tuple)
            })
    }

    /// Close one subflow for the given reason (`SubflowError::None` after a
    /// complete FIN exchange); unacked meta data it carried becomes
    /// eligible for reinjection elsewhere.
    pub fn kill_subflow(&mut self, id: SubflowId, error: SubflowError, events: &mut Vec<PmEvent>) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        sf.state = SfState::Closed;
        sf.rto_armed = false;
        let tuple = sf.tuple;
        self.stats.sf_close_reasons |= error.coverage_bit();
        self.reinject_flight(id);
        self.subflows[id as usize].release_buffers(self.role);
        events.push(PmEvent::SubflowClosed {
            token: self.token,
            id,
            tuple,
            error,
        });
    }

    /// Subflow `id` died under us (RST, handshake or data timeout, ICMP
    /// error). If it was carrying the connection's own handshake the
    /// connection dies with it; otherwise the other subflows take over.
    pub(super) fn subflow_failed(
        &mut self,
        id: SubflowId,
        error: SubflowError,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        self.kill_subflow(id, error, events);
        if id == 0 && self.state == ConnState::Establishing {
            self.abort(env, events);
        } else {
            self.pump(env);
        }
    }

    /// PM-requested graceful or hard close of a subflow.
    pub fn pm_close_subflow(
        &mut self,
        id: SubflowId,
        reset: bool,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        if reset || sf.state != SfState::Established {
            // Send an RST so the peer tears down too.
            let rst = Seg {
                flags: TcpFlags::RST,
                ..Default::default()
            };
            self.emit(id, rst, env);
            self.kill_subflow(id, SubflowError::PmRequested, events);
            self.pump(env);
        } else {
            // Graceful: stop scheduling data on it, FIN when drained.
            sf.fin_wanted = true;
            self.try_send_subflow_fin(id, env);
        }
    }

    /// ICMP unreachable observed for subflow `id`.
    pub fn on_icmp_unreachable(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        match sf.state {
            SfState::SynSent | SfState::SynReceived => {
                self.subflow_failed(id, SubflowError::NetUnreachable, env, events)
            }
            _ => sf.soft_errors += 1,
        }
    }
}
