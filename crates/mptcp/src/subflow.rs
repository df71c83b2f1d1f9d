//! A subflow: one TCP connection member of a Multipath TCP connection.
//!
//! Subflows own the classic TCP sender/receiver machinery — sequence
//! tracking, RTT estimation, RTO with backoff, congestion control, flight
//! tracking, reassembly — built from the `smapp-tcp` components. The
//! connection-level logic (DSS mappings, scheduling, reinjection) lives in
//! [`crate::conn`]; the subflow exposes the knobs it needs.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use smapp_sim::{spare, Recycle, SimTime, TimerHandle};
use smapp_tcp::{
    pacing_rate, Cc, CongestionControl, Flight, Reassembly, ReassemblyRings, RtoState,
    RttEstimator, SendBuffer, SentSeg, TcpInfo, TcpStateInfo,
};

use crate::conn::Role;
use crate::pm::{FourTuple, SubflowId};

/// Protocol state of a subflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SfState {
    /// SYN sent, awaiting SYN/ACK (initiator).
    SynSent,
    /// SYN received, SYN/ACK sent, awaiting the third ACK (responder).
    SynReceived,
    /// Handshake complete.
    Established,
    /// Fully closed (FIN exchange done, RST, or error).
    Closed,
}

/// A contiguous range of the connection-level (meta) stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaRange {
    /// First meta offset.
    pub off: u64,
    /// Length in bytes.
    pub len: u32,
}

impl MetaRange {
    /// One past the last covered offset.
    pub fn end(&self) -> u64 {
        self.off + self.len as u64
    }
}

/// Tag attached to each in-flight subflow segment: the DSS mapping it was
/// sent with, enough to rebuild the segment for retransmission and to
/// reinject its meta range elsewhere. Its bytes are in
/// [`Subflow::unacked`], not the meta send buffer: they may already be
/// data-acked via another subflow. One word: the mapping's length (a DSS
/// length, at most 65 535) in the low 16 bits, its meta offset in the next
/// 47 and the DATA_FIN flag in the top bit, so a flight entry is 32 bytes.
#[derive(Clone, Copy, Debug)]
pub struct SegTag(u64);

impl SegTag {
    /// Set when the segment carried a DATA_FIN signal.
    const DATA_FIN: u64 = 1 << 63;
    /// Bits below the meta offset: the length.
    const LEN_BITS: u32 = 16;

    /// The tag of `len` payload bytes sent at meta offset `off`.
    pub(crate) fn new(off: u64, len: u32, data_fin: bool) -> Self {
        assert!(off < 1 << (63 - Self::LEN_BITS), "meta offset overflow");
        assert!(len < 1 << Self::LEN_BITS, "DSS length overflow");
        let word = off << Self::LEN_BITS | u64::from(len) | u64::from(data_fin) << 63;
        SegTag(word)
    }

    /// The meta range the payload maps to.
    pub(crate) fn map(&self) -> MetaRange {
        let off = (self.0 & !Self::DATA_FIN) >> Self::LEN_BITS;
        let len = (self.0 & ((1 << Self::LEN_BITS) - 1)) as u32;
        MetaRange { off, len }
    }

    /// Whether the segment carried a DATA_FIN signal.
    pub(crate) fn data_fin(&self) -> bool {
        self.0 & Self::DATA_FIN != 0
    }
}

/// Mapping from subflow stream offsets to meta stream offsets, learned from
/// received DSS options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvMap {
    /// Subflow stream offset of the first mapped byte.
    pub ssn: u64,
    /// Meta stream offset it corresponds to.
    pub meta: u64,
    /// Mapped length.
    pub len: u32,
}

/// Counters for reporting.
#[derive(Clone, Debug, Default)]
pub struct SfStats {
    /// Bytes of payload cumulatively acknowledged by the peer.
    pub bytes_acked: u64,
    /// Segments retransmitted (RTO + fast retransmit).
    pub retrans: u64,
    /// When the subflow was created.
    pub created_at: SimTime,
    /// When it reached Established (if ever).
    pub established_at: Option<SimTime>,
}

/// The storage a dead subflow gives up, emptied: its flight, unacked,
/// reassembly and mapping rings. The thread keeps it for the next subflow
/// of a connection of the same role, which starts on it instead of growing
/// its own (see [`ConnSpare`](crate::conn::ConnSpare)).
#[derive(Default)]
pub(crate) struct SubflowSpare {
    flight: VecDeque<SentSeg<SegTag>>,
    unacked: VecDeque<(u64, Bytes)>,
    reasm: ReassemblyRings,
    recv_maps: VecDeque<RecvMap>,
}

impl Recycle for SubflowSpare {
    fn reset(&mut self) {
        self.flight.clear();
        self.unacked.clear();
        self.reasm.reset();
        self.recv_maps.clear();
    }
    fn is_empty(&self) -> bool {
        self.flight.is_empty()
            && self.unacked.is_empty()
            && self.reasm.is_empty()
            && self.recv_maps.is_empty()
    }
}

/// One subflow.
pub struct Subflow {
    /// Dense per-connection id (also used as the MPTCP address id).
    pub id: SubflowId,
    /// The four-tuple.
    pub tuple: FourTuple,
    /// Protocol state.
    pub state: SfState,
    /// Did this host initiate the subflow?
    pub initiated_here: bool,

    // --- sender side ---
    /// Our initial sequence number (wire).
    pub iss: u32,
    /// Lowest unacknowledged payload offset.
    pub una_off: u64,
    /// In-flight segments.
    pub flight: Flight<SegTag>,
    /// The in-flight payload by subflow offset, as runs of bytes adjacent
    /// in memory: a segment lies inside one, so a retransmission is a
    /// slice of it. Released by the subflow's cumulative ACK.
    pub unacked: SendBuffer,
    /// RTT estimator.
    pub rtt: RttEstimator,
    /// RTO backoff state.
    pub rto: RtoState,
    /// Congestion controller.
    pub cc: Cc,
    /// Duplicate-ACK counter.
    pub dupacks: u32,
    /// Fast-recovery high-water mark (exit when una passes it).
    pub recovery: Option<u64>,
    /// Offset at which our FIN was sent (occupies one sequence number).
    pub fin_sent_off: Option<u64>,
    /// Our FIN has been acknowledged.
    pub fin_acked: bool,
    /// We want to send a FIN once the flight drains.
    pub fin_wanted: bool,

    // --- RTO timer bookkeeping (armed by the stack through StackEnv) ---
    /// Generation of the currently armed timer; stale firings are ignored.
    pub rto_gen: u64,
    /// Whether a timer is conceptually armed.
    pub rto_armed: bool,
    /// The host's handle on the simulator timer behind the RTO, re-armed
    /// in place on the next arm (None until the first arm).
    pub(crate) rto_timer: Option<TimerHandle>,

    // --- receiver side ---
    /// Peer's initial sequence number (wire).
    pub irs: u32,
    /// Subflow-level reassembly (payload offsets).
    pub reasm: Reassembly,
    /// DSS mappings covering received subflow bytes, sorted by `ssn`.
    pub recv_maps: VecDeque<RecvMap>,
    /// Subflow offset of the peer's FIN, once seen.
    pub peer_fin_off: Option<u64>,
    /// The peer's FIN has been consumed in order.
    pub peer_fin_consumed: bool,

    // --- MPTCP bits ---
    /// Backup priority (set at establishment, changed by MP_PRIO).
    pub backup: bool,
    /// Our nonce for the MP_JOIN handshake.
    pub nonce_local: u32,
    /// Peer's nonce.
    pub nonce_remote: u32,
    /// SYN (or SYN/ACK) retransmissions remaining before giving up.
    pub syn_retries_left: u32,

    /// Peer's window-scale shift from the handshake.
    pub peer_wscale: u8,
    /// Soft errors observed (ICMP unreachable while established).
    pub soft_errors: u32,
    /// Counters.
    pub stats: SfStats,
    /// The `(cwnd, srtt µs)` this subflow gave the connection's LIA
    /// coupling when it was last computed, `None` when it was not
    /// established then.
    pub(crate) coupled: Option<(u64, u64)>,
    /// Closed and dropped from the stack's demux table.
    pub(crate) reaped: bool,
}

impl std::fmt::Debug for Subflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Subflow#{} {} {:?} una={} nxt={} cwnd={}",
            self.id,
            self.tuple,
            self.state,
            self.una_off,
            self.snd_off(),
            self.cc.cwnd()
        )
    }
}

impl Subflow {
    /// Create a subflow object in the given initial state, on the storage
    /// of a dead one when the thread has one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: SubflowId,
        tuple: FourTuple,
        state: SfState,
        initiated_here: bool,
        iss: u32,
        nonce_local: u32,
        backup: bool,
        cc: Cc,
        rto: RtoState,
        syn_retries: u32,
        now: SimTime,
        role: Role,
    ) -> Self {
        let SubflowSpare {
            flight,
            unacked,
            reasm,
            recv_maps,
        } = spare::take(role as u8);
        Subflow {
            id,
            tuple,
            state,
            initiated_here,
            iss,
            una_off: 0,
            flight: Flight::reusing(flight),
            unacked: SendBuffer::reusing(u64::MAX, unacked),
            rtt: RttEstimator::new(),
            rto,
            cc,
            dupacks: 0,
            recovery: None,
            fin_sent_off: None,
            fin_acked: false,
            fin_wanted: false,
            rto_gen: 0,
            rto_armed: false,
            rto_timer: None,
            irs: 0,
            reasm: Reassembly::reusing(0, reasm),
            recv_maps,
            peer_fin_off: None,
            peer_fin_consumed: false,
            backup,
            nonce_local,
            nonce_remote: 0,
            syn_retries_left: syn_retries,
            peer_wscale: 0,
            soft_errors: 0,
            stats: SfStats {
                created_at: now,
                ..Default::default()
            },
            coupled: None,
            reaped: false,
        }
    }

    /// Next new payload offset to send (subflow stream, 0-based): where
    /// the unacked runs end.
    pub fn snd_off(&self) -> u64 {
        self.unacked.tail_offset()
    }

    /// Wire sequence number for payload offset `off`.
    pub fn wire_seq(&self, off: u64) -> u32 {
        (self.iss as u64).wrapping_add(1).wrapping_add(off) as u32
    }

    /// Unwrap an incoming wire sequence number to a payload offset, guided
    /// by the next expected offset.
    pub fn offset_from_wire_seq(&self, seq: u32) -> u64 {
        let rel = seq.wrapping_sub(self.irs.wrapping_add(1));
        smapp_tcp::unwrap_u32(self.reasm.next_expected(), rel)
    }

    /// Unwrap an incoming wire ACK to an acked payload offset.
    pub fn offset_from_wire_ack(&self, ack: u32) -> u64 {
        let rel = ack.wrapping_sub(self.iss.wrapping_add(1));
        smapp_tcp::unwrap_u32(self.una_off.max(1), rel)
    }

    /// The ACK value we advertise: everything delivered in order, plus one
    /// for the peer's consumed FIN.
    pub fn wire_ack(&self) -> u32 {
        let mut v = (self.irs as u64)
            .wrapping_add(1)
            .wrapping_add(self.reasm.next_expected());
        if self.peer_fin_consumed {
            v = v.wrapping_add(1);
        }
        v as u32
    }

    /// Free congestion-window space in bytes.
    pub fn cwnd_space(&self) -> u64 {
        self.cc.cwnd().saturating_sub(self.flight.bytes_in_flight())
    }

    /// Is this subflow usable for (new) data?
    pub fn can_carry_data(&self) -> bool {
        self.state == SfState::Established && self.fin_sent_off.is_none() && !self.fin_wanted
    }

    /// Record a new DSS mapping for received data. A mapping that
    /// continues the last one in both subflow and meta offset extends it,
    /// so in-order data keeps one mapping per run, not one per segment;
    /// one the mapping before it already holds (a retransmission
    /// re-announces its mapping, or its tail after a partial ACK) is
    /// dropped. Every byte of a run keeps the meta offset its own mapping
    /// gave it.
    pub fn add_recv_map(&mut self, m: RecvMap) {
        if m.len == 0 {
            return;
        }
        let at = self.recv_maps.partition_point(|x| x.ssn <= m.ssn);
        let last = at == self.recv_maps.len();
        if let Some(prev) = at.checked_sub(1).map(|p| &mut self.recv_maps[p]) {
            let prev_end = prev.ssn + prev.len as u64;
            if prev.meta + (m.ssn - prev.ssn) == m.meta {
                if m.ssn + m.len as u64 <= prev_end {
                    return;
                }
                if let Some(len) = prev.len.checked_add(m.len) {
                    if last && prev_end == m.ssn {
                        prev.len = len;
                        return;
                    }
                }
            }
        }
        self.recv_maps.insert(at, m);
    }

    /// Translate in-order subflow offset `ssn` to its meta offset using the
    /// stored mappings, with the number of bytes the covering mapping maps
    /// from there on. Of conflicting mappings the first covering one in
    /// `ssn` order wins, a run counting from its first byte. Returns `None`
    /// when no mapping covers the byte — a protocol violation from the
    /// peer.
    pub fn meta_offset_of(&self, ssn: u64) -> Option<(u64, u64)> {
        let starts_below = self.recv_maps.partition_point(|m| m.ssn <= ssn);
        self.recv_maps
            .range(..starts_below)
            .find(|m| ssn < m.ssn + m.len as u64)
            .map(|m| (m.meta + (ssn - m.ssn), m.ssn + m.len as u64 - ssn))
    }

    /// Drop mappings entirely below the delivered subflow offset.
    pub fn gc_recv_maps(&mut self) {
        let delivered = self.reasm.next_expected();
        while let Some(front) = self.recv_maps.front() {
            if front.ssn + front.len as u64 <= delivered {
                self.recv_maps.pop_front();
            } else {
                break;
            }
        }
    }

    /// The subflow is closed and will neither send nor receive again:
    /// drop what its flight, unacked, reassembly and mapping queues hold
    /// and give their emptied storage to the thread's store, kept for the
    /// next subflow of a `role` connection. The sequence state the diag
    /// dump reads stays.
    pub(crate) fn release_buffers(&mut self, role: Role) {
        self.recv_maps.clear();
        spare::give(
            role as u8,
            SubflowSpare {
                flight: self.flight.clear(),
                unacked: self.unacked.clear(),
                reasm: self.reasm.clear(),
                recv_maps: std::mem::take(&mut self.recv_maps),
            },
        );
    }

    /// Current (backed-off) retransmission timeout.
    pub fn current_rto(&self) -> Duration {
        self.rto.current_rto(&self.rtt)
    }

    /// Anything outstanding that the RTO timer must guard?
    pub fn has_retransmittable(&self) -> bool {
        !self.flight.is_empty() || (self.fin_sent_off.is_some() && !self.fin_acked)
    }

    /// Has the FIN handshake fully completed in both directions?
    pub fn close_complete(&self) -> bool {
        self.fin_acked && self.peer_fin_consumed
    }

    /// `TCP_INFO`-style snapshot.
    pub fn info(&self) -> TcpInfo {
        let srtt = self.rtt.srtt();
        TcpInfo {
            state: match self.state {
                SfState::SynSent => TcpStateInfo::SynSent,
                SfState::SynReceived => TcpStateInfo::SynReceived,
                SfState::Established => {
                    if self.fin_sent_off.is_some() || self.peer_fin_off.is_some() {
                        TcpStateInfo::Closing
                    } else {
                        TcpStateInfo::Established
                    }
                }
                SfState::Closed => TcpStateInfo::Closed,
            },
            srtt_us: srtt.map_or(0, |d| d.as_micros() as u64),
            rttvar_us: self.rtt.rttvar().as_micros() as u64,
            rto_us: self.current_rto().as_micros() as u64,
            backoffs: self.rto.backoffs(),
            cwnd: self.cc.cwnd(),
            ssthresh: self.cc.ssthresh(),
            pacing_rate: pacing_rate(self.cc.cwnd(), srtt, self.cc.in_slow_start()).unwrap_or(0),
            snd_una: self.una_off,
            snd_nxt: self.snd_off(),
            in_flight: self.flight.bytes_in_flight(),
            bytes_acked: self.stats.bytes_acked,
            retrans: self.stats.retrans,
            backup: self.backup,
        }
    }
}

#[cfg(test)]
impl SubflowSpare {
    /// The capacity of its flight and mapping rings.
    pub(crate) fn ring_capacities(&self) -> (usize, usize) {
        (self.flight.capacity(), self.recv_maps.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_sim::Addr;
    use smapp_tcp::{Reno, RtoPolicy};

    fn mk(iss: u32, irs: u32) -> Subflow {
        let mut s = Subflow::new(
            0,
            FourTuple {
                src: Addr::new(10, 0, 0, 1),
                src_port: 1000,
                dst: Addr::new(10, 0, 0, 2),
                dst_port: 80,
            },
            SfState::Established,
            true,
            iss,
            7,
            false,
            Cc::Reno(Reno::new(1400)),
            RtoState::new(RtoPolicy::default()),
            6,
            SimTime::ZERO,
            Role::Client,
        );
        s.irs = irs;
        s
    }

    #[test]
    fn wire_seq_roundtrip_near_wrap() {
        let s = mk(u32::MAX - 2, 1000);
        // Offset 0 -> iss+1 wraps.
        assert_eq!(s.wire_seq(0), u32::MAX - 1);
        assert_eq!(s.wire_seq(5), 3);
    }

    #[test]
    fn offset_from_wire_seq_tracks_expected() {
        let mut s = mk(0, u32::MAX - 10);
        // Peer's first byte is at irs+1.
        assert_eq!(s.offset_from_wire_seq(u32::MAX - 9), 0);
        // After consuming 100 bytes, a wire seq 50 bytes further unwraps
        // relative to expected offset 100.
        s.reasm.insert(0, Bytes::from(vec![0u8; 100]));
        s.reasm.pop_ready();
        let wire = (u32::MAX - 9).wrapping_add(100);
        assert_eq!(s.offset_from_wire_seq(wire), 100);
    }

    #[test]
    fn wire_ack_counts_fin() {
        let mut s = mk(0, 999);
        s.reasm.insert(0, Bytes::from(vec![0u8; 10]));
        s.reasm.pop_ready();
        assert_eq!(s.wire_ack(), 999u32.wrapping_add(1).wrapping_add(10));
        s.peer_fin_consumed = true;
        assert_eq!(s.wire_ack(), 999u32.wrapping_add(1).wrapping_add(11));
    }

    #[test]
    fn recv_map_translation() {
        let mut s = mk(0, 0);
        s.add_recv_map(RecvMap {
            ssn: 0,
            meta: 1000,
            len: 100,
        });
        s.add_recv_map(RecvMap {
            ssn: 100,
            meta: 5000,
            len: 50,
        });
        assert_eq!(s.meta_offset_of(0), Some((1000, 100)));
        assert_eq!(s.meta_offset_of(99), Some((1099, 1)));
        assert_eq!(s.meta_offset_of(100), Some((5000, 50)));
        assert_eq!(s.meta_offset_of(149), Some((5049, 1)));
        assert_eq!(s.meta_offset_of(150), None);
    }

    #[test]
    fn recv_map_dedup_and_gc() {
        let mut s = mk(0, 0);
        let m = RecvMap {
            ssn: 0,
            meta: 0,
            len: 100,
        };
        s.add_recv_map(m);
        s.add_recv_map(m);
        assert_eq!(s.recv_maps.len(), 1);
        s.reasm.insert(0, Bytes::from(vec![0u8; 100]));
        s.reasm.pop_ready();
        s.gc_recv_maps();
        assert!(s.recv_maps.is_empty());
    }

    #[test]
    fn recv_maps_stay_sorted() {
        let mut s = mk(0, 0);
        s.add_recv_map(RecvMap {
            ssn: 100,
            meta: 100,
            len: 10,
        });
        s.add_recv_map(RecvMap {
            ssn: 0,
            meta: 0,
            len: 10,
        });
        assert!(s.recv_maps[0].ssn < s.recv_maps[1].ssn);
    }

    #[test]
    fn a_flight_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<SentSeg<SegTag>>(), 32);
        let tag = SegTag::new((1 << 47) - 1, 65_535, true);
        let map = MetaRange {
            off: (1 << 47) - 1,
            len: 65_535,
        };
        assert_eq!((tag.map(), tag.data_fin()), (map, true));
        let tag = SegTag::new(7, 1400, false);
        assert_eq!(
            (tag.map(), tag.data_fin()),
            (MetaRange { off: 7, len: 1400 }, false)
        );
    }

    #[test]
    fn continuing_mappings_extend_one_run() {
        let mut s = mk(0, 0);
        let map = |ssn, meta, len| RecvMap { ssn, meta, len };
        for i in 0..10 {
            s.add_recv_map(map(i * 100, 5000 + i * 100, 100));
        }
        assert_eq!(Vec::from(s.recv_maps.clone()), [map(0, 5000, 1000)]);
        // A retransmission's mapping, whole or its tail, is already held.
        s.add_recv_map(map(300, 5300, 100));
        s.add_recv_map(map(350, 5350, 50));
        assert_eq!(s.recv_maps.len(), 1);
        // A jump in the meta space starts a run of its own.
        s.add_recv_map(map(1000, 9000, 100));
        s.add_recv_map(map(1100, 9100, 100));
        assert_eq!(s.recv_maps.len(), 2);
        assert_eq!(s.meta_offset_of(999), Some((5999, 1)));
        assert_eq!(s.meta_offset_of(1000), Some((9000, 200)));
        assert_eq!(s.meta_offset_of(1200), None);
    }

    #[test]
    fn an_earlier_overlapping_mapping_still_wins() {
        let mut s = mk(0, 0);
        let map = |ssn, meta, len| RecvMap { ssn, meta, len };
        s.add_recv_map(map(0, 1000, 100));
        s.add_recv_map(map(100, 1100, 100));
        // Conflicting mappings of bytes already mapped, added later.
        s.add_recv_map(map(0, 7000, 300));
        s.add_recv_map(map(150, 8000, 100));
        assert_eq!(s.meta_offset_of(50), Some((1050, 150)));
        assert_eq!(s.meta_offset_of(170), Some((1170, 30)));
        assert_eq!(s.meta_offset_of(220), Some((7220, 80)));
        assert_eq!(s.meta_offset_of(260), Some((7260, 40)));
    }

    #[test]
    fn cwnd_space_and_data_eligibility() {
        let mut s = mk(0, 0);
        assert_eq!(s.cwnd_space(), 14_000);
        assert!(s.can_carry_data());
        s.flight
            .on_send(0, 14_000, SimTime::ZERO, SegTag::new(0, 14_000, false));
        assert_eq!(s.cwnd_space(), 0);
        s.fin_wanted = true;
        assert!(!s.can_carry_data());
    }

    #[test]
    fn info_reports_state() {
        let mut s = mk(0, 0);
        let i = s.info();
        assert_eq!(i.state, TcpStateInfo::Established);
        assert_eq!(i.cwnd, 14_000);
        assert_eq!(i.pacing_rate, 0, "no rtt sample yet");
        s.rtt.on_sample(Duration::from_millis(10));
        assert!(s.info().pacing_rate > 0);
        s.state = SfState::Closed;
        assert_eq!(s.info().state, TcpStateInfo::Closed);
    }
}
