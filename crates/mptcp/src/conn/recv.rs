//! Receive side: demultiplexed segments, ACK processing, DSS mappings,
//! fallback inference, delivery to the application.

use super::*;

impl Connection {
    /// Process an incoming segment for subflow `id`. `seg` is `frame` read
    /// through `TcpView::parse`; payload the subflow keeps is the frame's
    /// body, a slice of the sender's buffer, not a copy.
    pub fn on_segment(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        frame: &Frame,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(state) = self.subflows.get(id as usize).map(|s| s.state) else {
            return;
        };
        if seg.hdr.flags.rst {
            let err = if state == SfState::SynSent {
                SubflowError::Refused
            } else {
                SubflowError::Reset
            };
            self.subflow_failed(id, err, env, events);
            return;
        }
        match state {
            SfState::SynSent => self.on_segment_synsent(id, seg, frame, env, events),
            SfState::SynReceived => self.on_segment_synreceived(id, seg, frame, env, events),
            SfState::Established => self.on_segment_established(id, seg, frame, env, events),
            SfState::Closed => { /* stale segment for a dead subflow */ }
        }
    }

    pub(super) fn on_segment_established(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        frame: &Frame,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        // Duplicate SYN/ACK: our handshake ACK was lost — resend it.
        if seg.hdr.flags.syn && seg.hdr.flags.ack {
            let sf = &self.subflows[id as usize];
            if seg.hdr.seq.0 == sf.irs {
                self.send_handshake(id, env);
            }
            return;
        }

        // ---- parse MPTCP options ----
        let mut dss: Option<Dss> = None;
        let mut prio_change: Option<(Option<u8>, bool)> = None;
        let mut fastclose = false;
        let mut any_mp_opt = false;
        for o in seg.mptcp_opts() {
            any_mp_opt = true;
            match MpOption::decode(o) {
                Ok(MpOption::Dss(d)) => dss = Some(d),
                Ok(MpOption::AddAddr {
                    addr_id,
                    addr,
                    port,
                }) if !self.remote_addrs.iter().any(|(i, _, _)| *i == addr_id) => {
                    let p = port.unwrap_or(self.subflows[id as usize].tuple.dst_port);
                    self.remote_addrs.push((addr_id, addr, p));
                    events.push(PmEvent::AddAddrReceived {
                        token: self.token,
                        addr_id,
                        addr,
                        port,
                    });
                }
                Ok(MpOption::RemoveAddr { addr_ids }) => {
                    for aid in addr_ids {
                        self.remote_addrs.retain(|(i, _, _)| *i != aid);
                        events.push(PmEvent::RemAddrReceived {
                            token: self.token,
                            addr_id: aid,
                        });
                    }
                }
                Ok(MpOption::Prio { backup, addr_id }) => prio_change = Some((addr_id, backup)),
                Ok(MpOption::FastClose { .. }) => fastclose = true,
                _ => {}
            }
        }
        if let (Some(_), Mode::Mptcp { peer_dss_seen }) = (&dss, &mut self.mode) {
            *peer_dss_seen = true;
        }
        if fastclose {
            self.abort(env, events);
            return;
        }
        if let Some((addr_id, backup)) = prio_change {
            let target = addr_id.unwrap_or(id);
            if let Some(sf) = self.subflows.get_mut(target as usize) {
                sf.backup = backup;
            }
        }

        // ---- fallback inference (RFC 6824 §3.7; `cfg.fallback_inference`
        // exists so the oracle's broken-build detection test can switch the
        // mechanism off and prove the invariant checker catches it). Only
        // ever on the sole, initial subflow. ----
        let may_infer = self.cfg.fallback_inference && id == 0 && self.subflows.len() == 1;
        // MPTCP was negotiated, yet the very first data-bearing segment on
        // the (sole) initial subflow carries no DSS option: a middlebox on
        // the path is stripping MPTCP options — possibly in one direction
        // only, so the handshake looked fine to us. The peer cannot signal
        // mappings; staying in MPTCP mode would discard its bytes as
        // unmapped forever. Fall back to plain TCP on this subflow and
        // refuse further joins, exactly as if the handshake had fallen
        // back.
        if may_infer
            && !self.is_fallback()
            && dss.is_none()
            && !seg.payload.is_empty()
            && self.meta_recv.next_expected() == 0
            && self.peer_fin_off.is_none()
        {
            self.fall_back(FallbackCause::Inferred);
        }

        // ---- subflow-level ACK processing ----
        let pre_ack_una = self.subflows[id as usize].una_off;
        if seg.hdr.flags.ack {
            self.process_subflow_ack(id, seg, env);
        }
        // Sender-side §3.7 inference, the mirror image of the receiver-side
        // check above: we sent DSS-mapped data, and the (sole) subflow's
        // cumulative ACK is advancing over it via segments carrying no
        // MPTCP options at all, from a peer that has never sent a DSS —
        // a middlebox is stripping our options, so the peer is reading the
        // subflow as plain TCP. Fall back before any connection-level
        // reinjection can place bytes at fresh subflow offsets the peer
        // would misread as new data (identity mapping past the stream end).
        if may_infer
            && matches!(
                self.mode,
                Mode::Mptcp {
                    peer_dss_seen: false
                }
            )
            && !any_mp_opt
            && seg.payload.is_empty()
            && self.subflows[id as usize].una_off > pre_ack_una
        {
            self.fall_back(FallbackCause::Inferred);
        }
        // Peer window (conn-level; any subflow updates it).
        {
            let sf = &self.subflows[id as usize];
            if sf.state == SfState::Closed {
                return; // killed during ack processing
            }
            self.peer_window = (seg.hdr.window as u64) << sf.peer_wscale;
        }

        // ---- DSS: data ack (fallback: the subflow ACK is the data ack) ----
        if self.is_fallback() {
            let sf0 = &self.subflows[0];
            let acked = sf0.una_off.min(sf0.snd_off());
            let fin_acked = sf0.fin_acked;
            self.on_data_ack(acked, env);
            if fin_acked {
                self.fin_acked = true;
            }
        } else if let Some(wire_ack) = dss.and_then(|d| d.data_ack) {
            let acked = self.meta_off_from_wire_data_ack(wire_ack);
            self.on_data_ack(acked, env);
        }

        // ---- payload ----
        let mut should_ack = false;
        if !seg.payload.is_empty() {
            should_ack = true;
            let sf = &mut self.subflows[id as usize];
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            // Record the DSS mapping for these bytes (fallback: identity;
            // `add_recv_map` ignores the empty mapping of a bare DATA_FIN).
            let len = seg.payload.len() as u32;
            let mapped = if self.is_fallback() {
                Some((off, len))
            } else {
                let m = dss.and_then(|d| d.mapping);
                m.map(|m| (self.meta_off_from_wire_dsn(m.dsn), len.min(m.len as u32)))
            };
            let sf = &mut self.subflows[id as usize];
            if let Some((meta, len)) = mapped {
                sf.add_recv_map(RecvMap {
                    ssn: off,
                    meta,
                    len,
                });
            }
            sf.reasm.insert(off, frame.slice_from(seg.header_len()));
            // Pop in-order subflow bytes and lift them to the meta level;
            // each popped chunk carries the subflow offset of its first
            // byte.
            while let Some((ssn, chunk)) = self.subflows[id as usize].reasm.pop_next() {
                let mut inner_off = 0usize;
                while inner_off < chunk.len() {
                    let at = ssn + inner_off as u64;
                    let sf = &self.subflows[id as usize];
                    match sf.meta_offset_of(at) {
                        Some((meta, mapped)) => {
                            let take = (mapped as usize).min(chunk.len() - inner_off);
                            let piece = chunk.slice(inner_off..inner_off + take);
                            self.meta_recv.insert(meta, piece);
                            inner_off += take;
                        }
                        None => {
                            // Unmapped bytes: protocol violation; drop the
                            // rest of the chunk (and let the oracle see it).
                            let dropped = (chunk.len() - inner_off) as u64;
                            self.stats.unmapped_rx_bytes += dropped;
                            self.integrity_violation(format!(
                                "{dropped} in-order subflow bytes at ssn {at} carry no \
                                 DSS mapping (discarded)"
                            ));
                            inner_off = chunk.len();
                        }
                    }
                }
            }
            let sf = &mut self.subflows[id as usize];
            sf.gc_recv_maps();
            // Window-bound tap: everything buffered above the meta socket
            // must fit the advertised receive buffer — the sender can only
            // have sent into windows we opened.
            let buffered = self.meta_recv.buffered_bytes();
            if buffered > self.cfg.recv_buf {
                let cap = self.cfg.recv_buf;
                self.integrity_violation(format!(
                    "receive reassembly holds {buffered} bytes > receive buffer {cap}"
                ));
            }
        }

        // ---- DATA_FIN ----
        if let Some(d) = &dss {
            if d.data_fin {
                let fin_meta = match d.mapping {
                    Some(m) if m.len > 0 => self.meta_off_from_wire_dsn(m.dsn) + m.len as u64,
                    Some(m) => self.meta_off_from_wire_dsn(m.dsn),
                    None => self.meta_recv.next_expected(),
                };
                if self.peer_fin_off.is_none() {
                    self.peer_fin_off = Some(fin_meta);
                }
                should_ack = true;
            }
        }

        // ---- deliver meta data to the app ----
        self.deliver_meta(env);

        // ---- subflow FIN ----
        let sf = &mut self.subflows[id as usize];
        if seg.hdr.flags.fin {
            should_ack = true;
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            sf.peer_fin_off = Some(off + seg.payload.len() as u64);
        }
        if let Some(f) = sf.peer_fin_off {
            if sf.reasm.next_expected() >= f {
                sf.peer_fin_consumed = true;
            }
        }
        // Fallback: the subflow FIN is the end of the stream.
        if self.is_fallback() && self.peer_fin_off.is_none() && self.subflows[0].peer_fin_consumed {
            self.peer_fin_off = Some(self.meta_recv.next_expected());
            self.deliver_meta(env);
        }

        // ---- acknowledge ----
        if should_ack {
            self.send_ack(id, None, env);
        }

        // ---- progress: close bookkeeping, new transmissions ----
        self.finish_subflow_close(id, env, events);
        self.pump(env);
        self.maybe_conn_closed(env, events);
    }

    /// Cumulative/duplicate ACK handling for one subflow.
    pub(super) fn process_subflow_ack(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        env: &mut StackEnv<'_>,
    ) {
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        let acked_off = sf.offset_from_wire_ack(seg.hdr.ack.0);
        let fin_limit = sf.fin_sent_off.map(|f| f + 1);
        let max_valid = fin_limit.unwrap_or(sf.snd_off()).max(sf.snd_off());
        if acked_off > max_valid {
            return; // nonsense ACK
        }
        if acked_off > sf.una_off {
            let data_limit = acked_off.min(sf.snd_off());
            let res = sf.flight.on_cum_ack(data_limit, now);
            sf.unacked.release_until(data_limit);
            if let Some(s) = res.rtt_sample {
                sf.rtt.on_sample(s);
                // HyStart-style delay-based slow-start exit: once the RTT
                // has inflated well past the minimum, the pipe is full and
                // further doubling only builds queues (Linux does the same
                // through CUBIC's HyStart).
                if sf.cc.in_slow_start() {
                    if let Some(min) = sf.rtt.min_rtt() {
                        let thresh = min + (min / 4).max(Duration::from_millis(4));
                        if s > thresh {
                            sf.cc.hystart_exit();
                        }
                    }
                }
            }
            if res.acked_bytes > 0 {
                sf.cc.on_ack(res.acked_bytes);
                sf.stats.bytes_acked += res.acked_bytes;
            }
            sf.rto.on_ack_progress();
            sf.una_off = acked_off;
            sf.dupacks = 0;
            let mut retransmit_hole = false;
            if let Some(rec) = sf.recovery {
                if sf.una_off >= rec {
                    sf.cc.on_exit_recovery();
                    sf.recovery = None;
                } else {
                    // RFC 6582 NewReno partial ACK: the next hole starts at
                    // the new una — retransmit it immediately instead of
                    // waiting for the RTO.
                    retransmit_hole = !sf.flight.is_empty();
                }
            }
            if let Some(f) = sf.fin_sent_off {
                if acked_off > f {
                    sf.fin_acked = true;
                }
            }
            // Restart or stop the retransmission timer.
            if sf.has_retransmittable() {
                self.arm_rto(id, env);
            } else {
                sf.rto_armed = false;
            }
            if retransmit_hole {
                self.retransmit_head(id, env);
            }
        } else if acked_off == sf.una_off
            && seg.payload.is_empty()
            && !seg.hdr.flags.syn
            && !seg.hdr.flags.fin
            && !sf.flight.is_empty()
        {
            sf.dupacks += 1;
            if sf.dupacks == 3 && sf.recovery.is_none() {
                let flight = sf.flight.bytes_in_flight();
                sf.cc.on_enter_recovery(flight);
                sf.recovery = Some(sf.snd_off());
                self.retransmit_head(id, env);
            }
        }
    }

    /// Meta-level cumulative data ACK.
    pub(super) fn on_data_ack(&mut self, acked_off: u64, env: &mut StackEnv<'_>) {
        let fin_plus = self.fin_sent_off.map(|f| f + 1);
        let limit = fin_plus.unwrap_or(self.meta_snd_nxt).max(self.meta_snd_nxt);
        let acked = acked_off.min(limit);
        if acked <= self.meta_una {
            return;
        }
        if let Some(f) = self.fin_sent_off {
            if acked > f {
                self.fin_acked = true;
            }
        }
        let release_to = acked.min(self.meta_send.tail_offset());
        let had_free = self.meta_send.free();
        self.meta_send.release_until(release_to);
        self.meta_una = acked.min(self.fin_sent_off.unwrap_or(acked));
        self.reinject.gc(self.meta_una);
        // Send-side sequence-space bounds: una never passes snd_nxt, and
        // snd_nxt never passes the bytes the application actually wrote.
        if self.meta_una > self.meta_snd_nxt || self.meta_snd_nxt > self.meta_send.tail_offset() {
            let (una, nxt, tail) = (
                self.meta_una,
                self.meta_snd_nxt,
                self.meta_send.tail_offset(),
            );
            self.integrity_violation(format!(
                "meta sequence bounds broken: una={una} snd_nxt={nxt} tail={tail}"
            ));
        }
        if self.meta_send.free() > had_free && !self.app_closed {
            self.with_app(env, |app, ctx| app.on_send_space(ctx));
        }
    }

    /// Insert-order delivery to the application.
    fn deliver_meta(&mut self, env: &mut StackEnv<'_>) {
        while let Some((_, c)) = self.meta_recv.pop_next() {
            self.stats.bytes_received += c.len() as u64;
            self.stats.tap_recvd.update(&c[..]);
            self.with_app(env, |app, ctx| app.on_data(ctx, c));
        }
        if let Some(f) = self.peer_fin_off {
            if !self.eof_delivered && self.meta_recv.next_expected() >= f {
                self.eof_delivered = true;
                self.with_app(env, |app, ctx| app.on_eof(ctx));
            }
        }
    }
}
