//! Congestion control.
//!
//! Two controllers are provided: classic NewReno ([`Reno`]) used for plain
//! TCP subflows, and the coupled Linked-Increases Algorithm of RFC 6356
//! ([`Lia`]) — the default congestion controller of the Linux MPTCP kernel
//! the paper builds on. LIA couples only the *increase*: in congestion
//! avoidance a subflow grows by one MSS every
//! `max(ALPHA_SCALE·cwnd_total/alpha, cwnd_i)` acknowledged segments, the
//! integer formulation used by the Linux implementation. `alpha` is
//! recomputed by the MPTCP layer across all subflows of a connection
//! ([`lia_alpha`]) and pushed down via [`CongestionControl::set_coupling`].
//!
//! All window state is byte-based, like Linux; congestion-avoidance
//! counting happens in MSS-sized segments.

use std::fmt::Debug;

/// Fixed-point scale for the LIA `alpha` parameter (Linux uses 2^10).
pub const ALPHA_SCALE: u64 = 1024;

/// Behaviour shared by all congestion controllers.
pub trait CongestionControl: Debug {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;
    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;
    /// True while `cwnd < ssthresh`.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }
    /// `newly_acked` bytes were cumulatively acknowledged.
    fn on_ack(&mut self, newly_acked: u64);
    /// A retransmission timeout fired: collapse the window.
    fn on_retransmit_timeout(&mut self, flight: u64);
    /// Entering fast recovery (triple duplicate ACK) with `flight` bytes
    /// outstanding.
    fn on_enter_recovery(&mut self, flight: u64);
    /// Fast recovery completed (recovery point acknowledged).
    fn on_exit_recovery(&mut self);
    /// Delay-based slow-start exit (HyStart-style): the RTT has risen
    /// enough that the pipe is full — stop doubling now.
    fn hystart_exit(&mut self);
    /// MPTCP coupling hook: the connection-wide `alpha` (scaled by
    /// [`ALPHA_SCALE`]) and the total cwnd across subflows in bytes.
    /// No-op for uncoupled controllers.
    fn set_coupling(&mut self, alpha_scaled: u64, total_cwnd: u64) {
        let _ = (alpha_scaled, total_cwnd);
    }
    /// Short name for reporting ("reno", "lia").
    fn name(&self) -> &'static str;
}

/// Window bookkeeping shared by both controllers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Core {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Segments acknowledged since the last CA window increase.
    cnt: u64,
    /// Sub-MSS remainder of acknowledged bytes.
    carry: u64,
}

impl Core {
    fn new(mss: u64) -> Self {
        assert!(mss > 0, "mss must be positive");
        Core {
            mss,
            // Linux initial window: 10 segments (RFC 6928).
            cwnd: 10 * mss,
            ssthresh: u64::MAX / 2,
            cnt: 0,
            carry: 0,
        }
    }

    /// Convert acknowledged bytes into whole segments, carrying remainders.
    fn acked_segs(&mut self, acked: u64) -> u64 {
        self.carry += acked;
        let segs = self.carry / self.mss;
        self.carry %= self.mss;
        segs
    }

    fn cwnd_segs(&self) -> u64 {
        (self.cwnd / self.mss).max(1)
    }

    fn halve(&mut self, flight: u64) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
    }

    fn reset_counters(&mut self) {
        self.cnt = 0;
        self.carry = 0;
    }
}

/// NewReno congestion control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reno {
    core: Core,
}

impl Reno {
    /// New controller for the given MSS.
    pub fn new(mss: u64) -> Self {
        Reno {
            core: Core::new(mss),
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u64 {
        self.core.cwnd
    }
    fn ssthresh(&self) -> u64 {
        self.core.ssthresh
    }
    fn on_ack(&mut self, newly_acked: u64) {
        if self.in_slow_start() {
            self.core.cwnd += newly_acked;
            return;
        }
        let segs = self.core.acked_segs(newly_acked);
        for _ in 0..segs {
            self.core.cnt += 1;
            if self.core.cnt >= self.core.cwnd_segs() {
                self.core.cwnd += self.core.mss;
                self.core.cnt = 0;
            }
        }
    }
    fn on_retransmit_timeout(&mut self, flight: u64) {
        self.core.halve(flight);
        self.core.cwnd = self.core.mss;
        self.core.reset_counters();
    }
    fn on_enter_recovery(&mut self, flight: u64) {
        self.core.halve(flight);
        self.core.cwnd = self.core.ssthresh;
        self.core.reset_counters();
    }
    fn on_exit_recovery(&mut self) {}
    fn hystart_exit(&mut self) {
        self.core.ssthresh = self.core.ssthresh.min(self.core.cwnd);
    }
    fn name(&self) -> &'static str {
        "reno"
    }
}

/// Coupled Linked-Increases Algorithm (RFC 6356), Linux integer form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lia {
    core: Core,
    /// Connection-wide alpha, scaled by [`ALPHA_SCALE`]. Defaults to the
    /// single-flow value so an uncoupled `Lia` behaves like Reno.
    alpha_scaled: u64,
    /// Total cwnd across all subflows, bytes.
    total_cwnd: u64,
}

impl Lia {
    /// New controller for the given MSS.
    pub fn new(mss: u64) -> Self {
        Lia {
            core: Core::new(mss),
            alpha_scaled: ALPHA_SCALE,
            total_cwnd: 0,
        }
    }
}

impl CongestionControl for Lia {
    fn cwnd(&self) -> u64 {
        self.core.cwnd
    }
    fn ssthresh(&self) -> u64 {
        self.core.ssthresh
    }
    fn on_ack(&mut self, newly_acked: u64) {
        if self.in_slow_start() {
            // RFC 6356 couples only congestion avoidance.
            self.core.cwnd += newly_acked;
            return;
        }
        let segs = self.core.acked_segs(newly_acked);
        let total_segs = (self.total_cwnd.max(self.core.cwnd) / self.core.mss).max(1);
        // One MSS of growth every max(coupled, cwnd) acked segments:
        //   coupled = ALPHA_SCALE * total_cwnd / alpha
        let coupled = ALPHA_SCALE * total_segs / self.alpha_scaled.max(1);
        let thresh = coupled.max(self.core.cwnd_segs());
        for _ in 0..segs {
            self.core.cnt += 1;
            if self.core.cnt >= thresh {
                self.core.cwnd += self.core.mss;
                self.core.cnt = 0;
            }
        }
    }
    fn on_retransmit_timeout(&mut self, flight: u64) {
        self.core.halve(flight);
        self.core.cwnd = self.core.mss;
        self.core.reset_counters();
    }
    fn on_enter_recovery(&mut self, flight: u64) {
        self.core.halve(flight);
        self.core.cwnd = self.core.ssthresh;
        self.core.reset_counters();
    }
    fn on_exit_recovery(&mut self) {}
    fn hystart_exit(&mut self) {
        self.core.ssthresh = self.core.ssthresh.min(self.core.cwnd);
    }
    fn set_coupling(&mut self, alpha_scaled: u64, total_cwnd: u64) {
        self.alpha_scaled = alpha_scaled.max(1);
        self.total_cwnd = total_cwnd;
    }
    fn name(&self) -> &'static str {
        "lia"
    }
}

/// Either controller, held inline and dispatched by `match`: what a
/// subflow owns, so creating one allocates nothing and every call on it
/// is static.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cc {
    /// Uncoupled NewReno.
    Reno(Reno),
    /// Coupled LIA.
    Lia(Lia),
}

impl CongestionControl for Cc {
    fn cwnd(&self) -> u64 {
        match self {
            Cc::Reno(c) => c.cwnd(),
            Cc::Lia(c) => c.cwnd(),
        }
    }
    fn ssthresh(&self) -> u64 {
        match self {
            Cc::Reno(c) => c.ssthresh(),
            Cc::Lia(c) => c.ssthresh(),
        }
    }
    fn on_ack(&mut self, newly_acked: u64) {
        match self {
            Cc::Reno(c) => c.on_ack(newly_acked),
            Cc::Lia(c) => c.on_ack(newly_acked),
        }
    }
    fn on_retransmit_timeout(&mut self, flight: u64) {
        match self {
            Cc::Reno(c) => c.on_retransmit_timeout(flight),
            Cc::Lia(c) => c.on_retransmit_timeout(flight),
        }
    }
    fn on_enter_recovery(&mut self, flight: u64) {
        match self {
            Cc::Reno(c) => c.on_enter_recovery(flight),
            Cc::Lia(c) => c.on_enter_recovery(flight),
        }
    }
    fn on_exit_recovery(&mut self) {
        match self {
            Cc::Reno(c) => c.on_exit_recovery(),
            Cc::Lia(c) => c.on_exit_recovery(),
        }
    }
    fn hystart_exit(&mut self) {
        match self {
            Cc::Reno(c) => c.hystart_exit(),
            Cc::Lia(c) => c.hystart_exit(),
        }
    }
    fn set_coupling(&mut self, alpha_scaled: u64, total_cwnd: u64) {
        match self {
            Cc::Reno(c) => c.set_coupling(alpha_scaled, total_cwnd),
            Cc::Lia(c) => c.set_coupling(alpha_scaled, total_cwnd),
        }
    }
    fn name(&self) -> &'static str {
        match self {
            Cc::Reno(c) => c.name(),
            Cc::Lia(c) => c.name(),
        }
    }
}

/// Compute the RFC 6356 `alpha` (scaled by [`ALPHA_SCALE`]) from per-subflow
/// `(cwnd_bytes, rtt_us)` pairs:
///
/// ```text
/// alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2
/// ```
///
/// Subflows with no RTT estimate yet should be passed with a conservative
/// RTT guess rather than omitted. The pairs are walked three times, so a
/// caller can pass them as a lazy iterator instead of collecting them.
pub fn lia_alpha<I>(subflows: I) -> u64
where
    I: IntoIterator<Item = (u64, u64)>,
    I::IntoIter: Clone,
{
    let subflows = subflows.into_iter();
    let total: f64 = subflows.clone().map(|(c, _)| c as f64).sum();
    let max_term = subflows
        .clone()
        .map(|(c, rtt)| c as f64 / ((rtt.max(1) as f64) * (rtt.max(1) as f64)))
        .fold(0.0f64, f64::max);
    let sum_term: f64 = subflows.map(|(c, rtt)| c as f64 / rtt.max(1) as f64).sum();
    if sum_term <= 0.0 || total <= 0.0 {
        return ALPHA_SCALE;
    }
    let alpha = total * max_term / (sum_term * sum_term);
    (alpha * ALPHA_SCALE as f64).clamp(1.0, 1e18) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1400;

    fn in_ca<C: CongestionControl>(cc: &mut C) {
        // Drop out of slow start with a 20*MSS flight: ssthresh = cwnd = 10*MSS.
        cc.on_enter_recovery(20 * MSS);
        cc.on_exit_recovery();
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn reno_initial_window_is_ten_segments() {
        let r = Reno::new(MSS);
        assert_eq!(r.cwnd(), 10 * MSS);
        assert!(r.in_slow_start());
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut r = Reno::new(MSS);
        let start = r.cwnd();
        r.on_ack(start);
        assert_eq!(r.cwnd(), 2 * start);
    }

    #[test]
    fn reno_ca_adds_one_mss_per_window() {
        let mut r = Reno::new(MSS);
        in_ca(&mut r);
        let before = r.cwnd();
        for _ in 0..10 {
            r.on_ack(MSS);
        }
        assert_eq!(r.cwnd(), before + MSS);
    }

    #[test]
    fn reno_ca_carries_partial_acks() {
        let mut r = Reno::new(MSS);
        in_ca(&mut r);
        let before = r.cwnd();
        // 20 half-MSS acks = 10 segments = one full window.
        for _ in 0..20 {
            r.on_ack(MSS / 2);
        }
        assert_eq!(r.cwnd(), before + MSS);
    }

    #[test]
    fn reno_rto_collapses_to_one_mss() {
        let mut r = Reno::new(MSS);
        r.on_retransmit_timeout(10 * MSS);
        assert_eq!(r.cwnd(), MSS);
        assert_eq!(r.ssthresh(), 5 * MSS);
        assert!(r.in_slow_start());
    }

    #[test]
    fn reno_recovery_halves() {
        let mut r = Reno::new(MSS);
        r.on_enter_recovery(10 * MSS);
        assert_eq!(r.cwnd(), 5 * MSS);
        assert_eq!(r.ssthresh(), 5 * MSS);
    }

    #[test]
    fn ssthresh_floor_two_mss() {
        let mut r = Reno::new(MSS);
        r.on_enter_recovery(MSS);
        assert_eq!(r.ssthresh(), 2 * MSS);
    }

    #[test]
    fn lia_slow_start_uncoupled() {
        let mut l = Lia::new(MSS);
        let start = l.cwnd();
        l.on_ack(start);
        assert_eq!(l.cwnd(), 2 * start);
    }

    #[test]
    fn lia_default_coupling_matches_reno() {
        let mut l = Lia::new(MSS);
        let mut r = Reno::new(MSS);
        in_ca(&mut l);
        in_ca(&mut r);
        l.set_coupling(ALPHA_SCALE, l.cwnd());
        for _ in 0..200 {
            l.on_ack(MSS);
            r.on_ack(MSS);
        }
        assert_eq!(l.cwnd(), r.cwnd());
    }

    #[test]
    fn lia_coupled_increase_never_exceeds_reno() {
        // Huge alpha -> coupled threshold tiny -> bounded by cwnd (Reno).
        let mut l = Lia::new(MSS);
        let mut r = Reno::new(MSS);
        in_ca(&mut l);
        in_ca(&mut r);
        l.set_coupling(1000 * ALPHA_SCALE, l.cwnd());
        for _ in 0..200 {
            l.on_ack(MSS);
            r.on_ack(MSS);
        }
        assert!(l.cwnd() <= r.cwnd(), "lia must not outgrow reno");
    }

    #[test]
    fn lia_small_alpha_grows_slower() {
        let grow = |alpha: u64| {
            let mut l = Lia::new(MSS);
            in_ca(&mut l);
            let total = 2 * l.cwnd();
            l.set_coupling(alpha, total);
            for _ in 0..2000 {
                l.on_ack(MSS);
            }
            l.cwnd()
        };
        assert!(grow(ALPHA_SCALE / 4) < grow(ALPHA_SCALE * 4));
    }

    #[test]
    fn alpha_single_flow_is_one() {
        let a = lia_alpha([(100_000, 50_000)]);
        let ratio = a as f64 / ALPHA_SCALE as f64;
        assert!((0.99..1.01).contains(&ratio), "alpha={ratio}");
    }

    #[test]
    fn alpha_two_equal_flows_is_half() {
        let a = lia_alpha([(100_000, 50_000), (100_000, 50_000)]);
        let ratio = a as f64 / ALPHA_SCALE as f64;
        assert!((0.49..0.51).contains(&ratio), "alpha={ratio}");
    }

    #[test]
    fn alpha_favors_short_rtt_flow() {
        // A short-RTT subflow dominates max(cwnd/rtt^2); alpha reflects
        // the aggressiveness needed to match a single TCP on the best path.
        let short = lia_alpha([(100_000, 10_000), (100_000, 100_000)]);
        let long = lia_alpha([(100_000, 100_000), (100_000, 100_000)]);
        assert!(short > long);
    }

    #[test]
    fn alpha_empty_and_degenerate() {
        assert_eq!(lia_alpha([]), ALPHA_SCALE);
        assert!(lia_alpha([(1000, 0)]) > 0);
        assert_eq!(lia_alpha([(0, 1000)]), ALPHA_SCALE);
    }
}
