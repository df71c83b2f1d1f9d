//! In-flight segment tracking.
//!
//! The flight tracker remembers every transmitted-but-unacknowledged
//! segment: its stream offsets, transmission time, retransmission count and
//! a caller-supplied tag (the MPTCP layer stores the DSS mapping there).
//! It answers the sender's recurring questions: how much is in flight, what
//! does a cumulative ACK release, which segment feeds the RTT estimator
//! (Karn's rule: only never-retransmitted segments), and what should be
//! retransmitted on timeout.

use std::collections::VecDeque;
use std::time::Duration;

use smapp_sim::SimTime;

/// One transmitted segment.
#[derive(Clone, Debug)]
pub struct SentSeg<T> {
    /// Stream offset of the first payload byte.
    pub off: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// When the segment was (last) transmitted.
    pub sent_at: SimTime,
    /// How many times it has been retransmitted (0 = original).
    pub retx: u32,
    /// Caller tag (e.g. the DSS mapping attached to these bytes).
    pub tag: T,
}

impl<T> SentSeg<T> {
    /// Offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.off + self.len as u64
    }
}

/// The set of in-flight segments, ordered by stream offset.
#[derive(Debug)]
pub struct Flight<T> {
    segs: VecDeque<SentSeg<T>>,
    in_flight: u64,
}

impl<T> Default for Flight<T> {
    fn default() -> Self {
        Flight {
            segs: VecDeque::new(),
            in_flight: 0,
        }
    }
}

/// Outcome of processing a cumulative ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckResult {
    /// Bytes newly acknowledged.
    pub acked_bytes: u64,
    /// Number of segments fully released by this ACK.
    pub acked_seg_count: usize,
    /// RTT sample from the most recently sent, never-retransmitted,
    /// fully-acked segment (Karn's algorithm).
    pub rtt_sample: Option<Duration>,
}

impl<T> Flight<T> {
    /// Empty flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently unacknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        self.in_flight
    }

    /// True when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Stream offset of the oldest unacknowledged byte, if any.
    pub fn oldest_offset(&self) -> Option<u64> {
        self.segs.front().map(|s| s.off)
    }

    /// The oldest unacknowledged segment, if any.
    pub fn oldest(&self) -> Option<&SentSeg<T>> {
        self.segs.front()
    }

    /// Record a (re)transmission. Segments must be recorded in offset order
    /// for originals; retransmissions update the existing entry via
    /// [`Flight::mark_head_retransmitted`] instead.
    pub fn on_send(&mut self, off: u64, len: u32, now: SimTime, tag: T) {
        debug_assert!(len > 0);
        debug_assert!(
            self.segs.back().is_none_or(|s| s.end() <= off),
            "out-of-order original transmission"
        );
        self.segs.push_back(SentSeg {
            off,
            len,
            sent_at: now,
            retx: 0,
            tag,
        });
        self.in_flight += len as u64;
    }

    /// A cumulative ACK up to `upto` arrived at `now`.
    ///
    /// Karn's rule, batch form: if *any* segment released by this ACK was
    /// retransmitted, no RTT sample is taken — a never-retransmitted
    /// segment released in the same batch was blocked behind the
    /// retransmitted hole, so its delay measures loss recovery, not the
    /// path. Otherwise the sample comes from the most recently sent
    /// segment in the batch.
    pub fn on_cum_ack(&mut self, upto: u64, now: SimTime) -> AckResult {
        let mut res = AckResult {
            acked_bytes: 0,
            acked_seg_count: 0,
            rtt_sample: None,
        };
        let mut batch_has_retx = false;
        let mut newest_sent: Option<SimTime> = None;
        while let Some(front) = self.segs.front() {
            if front.end() > upto {
                break;
            }
            let seg = self.segs.pop_front().unwrap();
            self.in_flight -= seg.len as u64;
            res.acked_bytes += seg.len as u64;
            if seg.retx == 0 {
                newest_sent = Some(newest_sent.map_or(seg.sent_at, |t| t.max(seg.sent_at)));
            } else {
                batch_has_retx = true;
            }
            res.acked_seg_count += 1;
        }
        if !batch_has_retx {
            if let Some(sent) = newest_sent {
                res.rtt_sample = now.checked_since(sent);
            }
        }
        // Partial ACK inside the head segment: trim it. (Receivers here ACK
        // on segment boundaries, but middle-of-segment ACKs are legal TCP.)
        if let Some(front) = self.segs.front_mut() {
            if front.off < upto {
                let cut = (upto - front.off) as u32;
                front.off = upto;
                front.len -= cut;
                self.in_flight -= cut as u64;
                res.acked_bytes += cut as u64;
            }
        }
        res
    }

    /// Mark the head segment as retransmitted at `now` and return a copy of
    /// its coordinates for re-encoding, or `None` when empty.
    pub fn mark_head_retransmitted(&mut self, now: SimTime) -> Option<(u64, u32)>
    where
        T: Clone,
    {
        let head = self.segs.front_mut()?;
        head.retx += 1;
        head.sent_at = now;
        Some((head.off, head.len))
    }

    /// Iterate over in-flight segments (offset order).
    pub fn iter(&self) -> impl Iterator<Item = &SentSeg<T>> {
        self.segs.iter()
    }

    /// Segments the tracker has room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.segs.capacity()
    }

    /// Drop all state and the storage behind it (subflow death): a closed
    /// subflow sends nothing again, and a world keeps its connection
    /// objects until it is dropped.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn send_and_full_ack() {
        let mut f: Flight<()> = Flight::new();
        f.on_send(0, 100, t(0), ());
        f.on_send(100, 100, t(1), ());
        assert_eq!(f.bytes_in_flight(), 200);
        let res = f.on_cum_ack(200, t(51));
        assert_eq!(res.acked_bytes, 200);
        assert_eq!(res.acked_seg_count, 2);
        // Sample from the *last* fully-acked original: sent at 1 ms.
        assert_eq!(res.rtt_sample, Some(Duration::from_millis(50)));
        assert!(f.is_empty());
    }

    #[test]
    fn partial_ack_trims_head() {
        let mut f: Flight<()> = Flight::new();
        f.on_send(0, 100, t(0), ());
        let res = f.on_cum_ack(40, t(10));
        assert_eq!(res.acked_bytes, 40);
        assert_eq!(res.acked_seg_count, 0);
        assert_eq!(f.bytes_in_flight(), 60);
        assert_eq!(f.oldest_offset(), Some(40));
    }

    #[test]
    fn karn_excludes_retransmitted() {
        let mut f: Flight<()> = Flight::new();
        f.on_send(0, 100, t(0), ());
        f.mark_head_retransmitted(t(500));
        let res = f.on_cum_ack(100, t(600));
        assert_eq!(res.rtt_sample, None, "retransmitted segment: no sample");
        assert_eq!(res.acked_bytes, 100);
    }

    #[test]
    fn duplicate_ack_is_noop() {
        let mut f: Flight<()> = Flight::new();
        f.on_send(0, 100, t(0), ());
        f.on_cum_ack(100, t(10));
        let res = f.on_cum_ack(100, t(11));
        assert_eq!(res.acked_bytes, 0);
        assert!(res.rtt_sample.is_none());
    }

    #[test]
    fn retransmit_returns_head_coords() {
        let mut f: Flight<u8> = Flight::new();
        f.on_send(0, 100, t(0), 7);
        f.on_send(100, 50, t(1), 8);
        assert_eq!(f.mark_head_retransmitted(t(300)), Some((0, 100)));
        assert_eq!(f.oldest().unwrap().retx, 1);
        assert_eq!(f.oldest().unwrap().sent_at, t(300));
        // Second retransmission bumps the counter.
        assert_eq!(f.mark_head_retransmitted(t(900)), Some((0, 100)));
        assert_eq!(f.oldest().unwrap().retx, 2);
    }

    #[test]
    fn tags_survive() {
        let mut f: Flight<&'static str> = Flight::new();
        f.on_send(0, 10, t(0), "dss-a");
        f.on_send(10, 10, t(0), "dss-b");
        let res = f.on_cum_ack(10, t(5));
        assert_eq!(res.acked_seg_count, 1);
        assert_eq!(f.oldest().unwrap().tag, "dss-b");
    }

    #[test]
    fn clear_resets() {
        let mut f: Flight<()> = Flight::new();
        f.on_send(0, 10, t(0), ());
        assert!(f.capacity() > 0);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 0, "clear gives the ring back");
        assert_eq!(f.bytes_in_flight(), 0);
        assert_eq!(f.mark_head_retransmitted(t(1)), None);
    }
}
