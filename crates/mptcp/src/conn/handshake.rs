//! Handshakes: `MP_CAPABLE` on subflow 0 and `MP_JOIN` on the others, both
//! directions, and the moment a subflow becomes established.

use super::*;

/// A fresh 32-bit draw (ISS, nonce).
fn draw32(env: &mut StackEnv<'_>) -> u32 {
    env.rng.range_u64(0, 1 << 32) as u32
}

/// The window-scale shift a SYN or SYN/ACK announces (0 when absent),
/// clamped to 14 as RFC 7323 §2.3 requires: the window is shifted by it on
/// every segment, and a forged 64 would overflow the shift.
fn peer_wscale(syn: &TcpView<'_>) -> u8 {
    let scale = |(kind, body): (u8, &[u8])| match (kind, body) {
        (OPT_KIND_WINDOW_SCALE, &[shift]) => Some(shift.min(MAX_WINDOW_SCALE)),
        _ => None,
    };
    syn.options().find_map(scale).unwrap_or(0)
}

impl Connection {
    /// Create the client side and emit the initial `MP_CAPABLE` SYN.
    pub(crate) fn client(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let mut conn = Connection::common(idx, cfg, Role::Client, tuple, app, env, events);
        conn.start_subflow(tuple, false, None, env);
        conn
    }

    /// Create the server side from a received `MP_CAPABLE` (or plain) SYN
    /// and emit the SYN/ACK.
    pub(crate) fn server_from_syn(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        syn: &TcpView<'_>,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let mut conn = Connection::common(idx, cfg, Role::Server, tuple, app, env, events);
        conn.learn_peer_key(syn);
        conn.start_subflow(tuple, false, Some((syn, 0)), env);
        conn
    }

    /// Open an additional subflow via `MP_JOIN`. Fails (returns `None`)
    /// when the connection is not established, the remote key is unknown
    /// or every subflow id is taken.
    pub(crate) fn open_subflow(
        &mut self,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        backup: bool,
    ) -> Option<SubflowId> {
        if self.state != ConnState::Established || self.remote_token.is_none() || self.ids_full() {
            return None;
        }
        Some(self.start_subflow(tuple, backup, None, env))
    }

    /// Accept an `MP_JOIN` SYN for this connection; emits the SYN/ACK.
    /// Refused (`None`) in fallback, where there are no keys to
    /// authenticate with, and once every subflow id is taken.
    pub(crate) fn accept_join_syn(
        &mut self,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        syn: &TcpView<'_>,
    ) -> Option<SubflowId> {
        if self.is_fallback() || self.ids_full() {
            return None;
        }
        let (backup, nonce_remote) = syn.mptcp_opts().find_map(|o| match MpOption::decode(o) {
            Ok(MpOption::JoinSyn { backup, nonce, .. }) => Some((backup, nonce)),
            _ => None,
        })?;
        Some(self.start_subflow(tuple, backup, Some((syn, nonce_remote)), env))
    }

    /// Adopt the key on the peer's `MP_CAPABLE` SYN or SYN/ACK. Without one
    /// — or if this host does not speak MPTCP itself — the connection is
    /// plain TCP from here on.
    fn learn_peer_key(&mut self, seg: &TcpView<'_>) {
        let key = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
            Ok(MpOption::Capable {
                sender_key,
                receiver_key: None,
                ..
            }) => Some(sender_key),
            _ => None,
        });
        match key.filter(|_| !self.is_fallback()) {
            Some(key) => {
                self.remote_key = Some(key);
                self.remote_token = Some(token_from_key(key));
                self.idsn_remote = idsn_from_key(key);
            }
            None => self.fall_back(FallbackCause::Handshake),
        }
    }

    /// True when the connection holds a subflow for every [`SubflowId`]:
    /// ids are indices into `subflows` and never reused, so one more would
    /// wrap onto id 0.
    fn ids_full(&self) -> bool {
        self.subflows.len() > SubflowId::MAX as usize
    }

    /// Add a subflow and start its handshake: answer `peer`'s SYN (with
    /// the nonce it carried) when there is one, else send ours. Either is
    /// guarded by the retransmission timer.
    fn start_subflow(
        &mut self,
        tuple: FourTuple,
        backup: bool,
        peer: Option<(&TcpView<'_>, u32)>,
        env: &mut StackEnv<'_>,
    ) -> SubflowId {
        let id = self.subflows.len() as SubflowId;
        let iss = draw32(env);
        // MP_JOIN exchanges nonces; MP_CAPABLE does not, yet its initiator
        // has always drawn one and per-seed trajectories depend on it.
        let nonce = if id == 0 && peer.is_some() {
            0
        } else {
            draw32(env)
        };
        let mut sf = Subflow::new(
            id,
            tuple,
            if peer.is_some() {
                SfState::SynReceived
            } else {
                SfState::SynSent
            },
            peer.is_none(),
            iss,
            nonce,
            backup,
            match self.cfg.cc {
                CcAlgo::Reno => Cc::Reno(Reno::new(self.cfg.mss as u64)),
                CcAlgo::Lia => Cc::Lia(Lia::new(self.cfg.mss as u64)),
            },
            RtoState::new(self.cfg.rto.clone()),
            self.cfg.syn_retries,
            env.now,
        );
        if let Some((syn, nonce_remote)) = peer {
            sf.irs = syn.hdr.seq.0;
            sf.nonce_remote = nonce_remote;
            sf.peer_wscale = peer_wscale(syn);
        }
        self.subflows.push(sf);
        self.send_handshake(id, env);
        self.arm_rto(id, env);
        id
    }

    /// Send the handshake segment subflow `id` owes in its current state —
    /// the SYN, the SYN/ACK or, once established, the third ACK — with the
    /// `MP_CAPABLE` (subflow 0) or `MP_JOIN` option that belongs on it.
    /// Retransmissions come through here too. Whether the option goes out
    /// is [`Connection::emit`]'s call: a connection that does not speak
    /// MPTCP, or gave it up, sends the bare segment.
    pub(super) fn send_handshake(&self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &self.subflows[id as usize];
        let flags = match sf.state {
            SfState::SynSent => TcpFlags::SYN,
            SfState::SynReceived => TcpFlags::SYN_ACK,
            _ => TcpFlags::ACK,
        };
        let mp = if id == 0 {
            Some(MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: self.local_key,
                // SYN and SYN/ACK carry one key; the third ACK echoes the
                // peer's.
                receiver_key: self.remote_key.filter(|_| !flags.syn),
            })
        } else {
            let keys = self.remote_key.zip(self.remote_token);
            keys.map(|(remote_key, token)| match sf.state {
                SfState::SynSent => MpOption::JoinSyn {
                    backup: sf.backup,
                    addr_id: sf.id,
                    token,
                    nonce: sf.nonce_local,
                },
                // Responder HMAC: we are B on this subflow.
                SfState::SynReceived => MpOption::JoinSynAck {
                    backup: sf.backup,
                    addr_id: sf.id,
                    hmac: join_hmac_b(remote_key, self.local_key, sf.nonce_remote, sf.nonce_local),
                    nonce: sf.nonce_local,
                },
                _ => MpOption::JoinAck {
                    hmac: join_hmac_a(self.local_key, remote_key, sf.nonce_local, sf.nonce_remote),
                },
            })
        };
        let what = Seg {
            flags,
            mp,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    pub(super) fn handshake_rto(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &mut self.subflows[id as usize];
        if sf.syn_retries_left == 0 {
            self.subflow_failed(id, SubflowError::Timeout, env, events);
            return;
        }
        sf.syn_retries_left -= 1;
        sf.rto.on_expiry();
        self.send_handshake(id, env);
        self.arm_rto(id, env);
    }

    pub(super) fn on_segment_synsent(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        frame: &Bytes,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        if !(seg.hdr.flags.syn && seg.hdr.flags.ack) {
            return;
        }
        // Validate the ACK covers our SYN.
        let sf = &self.subflows[id as usize];
        if seg.hdr.ack.0 != sf.iss.wrapping_add(1) {
            return;
        }
        if id == 0 {
            self.learn_peer_key(seg);
        } else {
            // MP_JOIN: verify the responder HMAC. No valid JOIN response
            // counts as a refusal.
            let nonce_local = sf.nonce_local;
            let join = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
                Ok(MpOption::JoinSynAck { hmac, nonce, .. }) => Some((hmac, nonce)),
                _ => None,
            });
            let authentic = join.filter(|&(hmac, nonce_b)| {
                let remote_key = self.remote_key.expect("join without keys");
                hmac == join_hmac_b(self.local_key, remote_key, nonce_local, nonce_b)
            });
            let Some((_, nonce_b)) = authentic else {
                self.kill_subflow(id, SubflowError::Refused, events);
                return;
            };
            self.subflows[id as usize].nonce_remote = nonce_b;
        }
        let sf = &mut self.subflows[id as usize];
        sf.irs = seg.hdr.seq.0;
        sf.peer_wscale = peer_wscale(seg);
        self.subflow_established(id, seg, frame, env, events);
    }

    pub(super) fn on_segment_synreceived(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        frame: &Bytes,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &self.subflows[id as usize];
        // Duplicate SYN (our SYN/ACK was lost): resend it.
        if seg.hdr.flags.syn && !seg.hdr.flags.ack {
            self.send_handshake(id, env);
            return;
        }
        if !seg.hdr.flags.ack || seg.hdr.ack.0 != sf.iss.wrapping_add(1) {
            return;
        }
        // For joins, the third ACK must carry a valid HMAC-A.
        if id != 0 {
            let hmac_ok = seg.mptcp_opts().any(|o| {
                matches!(
                    MpOption::decode(o),
                    Ok(MpOption::JoinAck { hmac })
                        if hmac == join_hmac_a(
                            self.remote_key.expect("join without keys"),
                            self.local_key,
                            sf.nonce_remote,
                            sf.nonce_local,
                        )
                )
            });
            if !hmac_ok {
                // Not the authenticated third ACK; wait for it (the
                // SYN/ACK RTO will retransmit if it never comes).
                return;
            }
        }
        self.subflow_established(id, seg, frame, env, events);
    }

    /// The handshake of subflow `id` completed with `seg`: the SYN/ACK on
    /// the side that initiated it, the third ACK on the other.
    fn subflow_established(
        &mut self,
        id: SubflowId,
        seg: &TcpView<'_>,
        frame: &Bytes,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        sf.state = SfState::Established;
        sf.stats.established_at = Some(now);
        if let Some(d) = now.checked_since(sf.stats.created_at) {
            sf.rtt.on_sample(d);
        }
        sf.rto.on_ack_progress();
        sf.rto_armed = false;
        // A SYN/ACK's window is unscaled; the third ACK's is not.
        let shift = if seg.hdr.flags.syn { 0 } else { sf.peer_wscale };
        self.peer_window = (seg.hdr.window as u64) << shift;
        let (tuple, backup, initiated_here) = (sf.tuple, sf.backup, sf.initiated_here);
        if initiated_here {
            self.send_handshake(id, env);
        }
        if id == 0 {
            self.state = ConnState::Established;
            self.stats.established_at = Some(now);
            events.push(PmEvent::ConnEstablished {
                token: self.token,
                tuple,
                is_client: self.role == Role::Client,
            });
        }
        events.push(PmEvent::SubflowEstablished {
            token: self.token,
            id,
            tuple,
            backup,
            initiated_here,
        });
        if id == 0 {
            self.with_app(env, |app, ctx| app.on_established(ctx));
        }
        // The third ACK may carry data; process it in the established path.
        if !initiated_here && (!seg.payload.is_empty() || seg.hdr.flags.fin) {
            self.on_segment_established(id, seg, frame, env, events);
        } else {
            self.pump(env);
        }
    }
}
