//! The protocol-invariant oracle: an always-on wire-level checker.
//!
//! [`Oracle`] is a *composable* [`TraceSink`]: install it alone, or let it
//! wrap the sink a scenario already uses ([`Oracle::wrapping`]) — every
//! trace event is checked first and then forwarded unchanged. The oracle is
//! a pure observer (no RNG use, no state the simulation can see), so
//! attaching it never perturbs a trajectory; per-seed runs stay
//! bit-identical with or without it.
//!
//! Checked online, on every event:
//!
//! * **time monotonicity** — trace timestamps never decrease (the calendar
//!   event queue's ordering contract, observed end to end);
//! * **per-link packet conservation** — per link, transmissions never
//!   exceed admissions, and deliveries plus post-serialization drops never
//!   exceed transmissions; at an [`StopReason::Idle`] end of run the
//!   inequalities must close to equalities (no packet vanishes or is
//!   minted inside a link);
//! * **TCP parseability** — every TCP packet handed to an interface
//!   carries a structurally valid TCP segment (header, data offset, option
//!   TLV walk), as judged by the tree's one header reader,
//!   [`crate::wire::TcpView::parse`]. This is the check that catches a
//!   middlebox rewriter corrupting segments it should normalize;
//! * **MPTCP option sanity** — kind-30 options parse (known subtype,
//!   plausible length), a DSS mapping covers exactly the segment's payload
//!   (RFC 6824 §3.3: our endpoints map whole segments), and `MP_CAPABLE`
//!   keys are unique across connections (key collision ⇒ token collision ⇒
//!   mis-demuxed `MP_JOIN`s — the token-uniqueness requirement of §3.1).
//!
//! Violations carry the simulated time; the run harness
//! (`smapp_pm::verify`) prefixes the `(scenario, seed)` pair so every
//! report is a replayable triple. End-host invariants (byte-stream
//! integrity above the meta socket, DSS mapping coverage at the receiver,
//! buffer/window bounds) live in the `smapp-mptcp` connection taps; this
//! module checks everything observable on the wire.

use crate::coverage::{wire, Coverage};
use crate::hash::FxHashMap;
use crate::packet::{Packet, PROTO_ICMP, PROTO_TCP};
use crate::spare::Spare;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::wire::{TcpView, TCP_HEADER_LEN};
use crate::world::{RunSummary, StopReason};
use crate::DropReason;

/// One invariant violation, timestamped for replay.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulated time of the offending event (end-of-run checks use the
    /// run's final time).
    pub at: SimTime,
    /// Short invariant identifier (`time-monotonicity`,
    /// `link-conservation`, `tcp-parse`, `dss-mapping`, `token-uniqueness`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={} [{}] {}", self.at, self.invariant, self.detail)
    }
}

/// Per-link conservation counters (both directions folded together; the
/// invariants hold per direction, hence also for the sum).
#[derive(Clone, Copy, Debug, Default)]
struct LinkFlow {
    enqueued: u64,
    tx_started: u64,
    delivered: u64,
    /// Drops after serialization started (random loss, iface down at
    /// delivery) — these consume a transmission.
    dropped_after_tx: u64,
    /// Packets evicted from a queue whose capacity shrank under
    /// [`crate::link::Eviction::DropNewest`] — enqueued but never
    /// serialized.
    evicted: u64,
}

/// Cap on stored violations; a broken build can violate millions of times
/// and the first few are what matter.
const MAX_VIOLATIONS: usize = 64;

/// The MP_CAPABLE key table: key → the flow that introduced it.
type CapableKeys = FxHashMap<u64, (u32, u32, u16, u16)>;

/// The wire-level invariant checker. See the module docs.
pub struct Oracle {
    inner: Option<Box<dyn TraceSink>>,
    last_at: SimTime,
    links: Spare<Vec<LinkFlow>>,
    /// MP_CAPABLE sender keys seen on initial SYNs, with the flow that
    /// introduced each: `(src, dst, src_port, dst_port)` packed to a u64
    /// pair for cheap equality.
    capable_keys: Spare<CapableKeys>,
    violations: Vec<Violation>,
    /// Violations beyond the storage cap (counted, not stored).
    pub suppressed: u64,
    /// Trace events observed (diagnostics).
    pub events_seen: u64,
    /// Wire-feature coverage observed this run (bits in the
    /// [`crate::coverage::wire`] range). Like every other oracle field this
    /// is write-only from the simulation's perspective: recording coverage
    /// never changes a trajectory.
    pub coverage: Coverage,
}

impl Oracle {
    /// A standalone oracle (no inner sink), on the ledger and key table
    /// the last oracle dropped on this thread gave back. The key table is
    /// only probed, never iterated, so its capacity reaches no verdict.
    pub fn new() -> Self {
        Oracle {
            inner: None,
            last_at: SimTime::ZERO,
            links: Spare::default(),
            capable_keys: Spare::default(),
            violations: Vec::new(),
            suppressed: 0,
            events_seen: 0,
            coverage: Coverage::new(),
        }
    }

    /// An oracle wrapping an existing sink: events are checked, then
    /// forwarded to `inner` unchanged.
    pub fn wrapping(inner: Box<dyn TraceSink>) -> Box<Oracle> {
        let mut o = Oracle::new();
        o.inner = Some(inner);
        Box::new(o)
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Remove and return the wrapped inner sink, if any.
    pub fn take_inner(&mut self) -> Option<Box<dyn TraceSink>> {
        self.inner.take()
    }

    /// Drain the recorded violations (leaves the oracle installed-safe).
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Run the end-of-run checks: per-link conservation must close to
    /// equality when the run ended with a drained queue ([`StopReason::Idle`];
    /// other stop reasons legitimately leave packets in flight).
    pub fn finish(&mut self, summary: &RunSummary) {
        if summary.reason != StopReason::Idle {
            return;
        }
        let at = summary.ended_at;
        for i in 0..self.links.len() {
            let l = self.links[i];
            if l.enqueued != l.tx_started + l.evicted
                || l.tx_started != l.delivered + l.dropped_after_tx
            {
                let detail = format!(
                    "link {i}: enqueued={} tx_started={} delivered={} dropped_after_tx={} \
                     evicted={} after an idle (drained) end of run",
                    l.enqueued, l.tx_started, l.delivered, l.dropped_after_tx, l.evicted
                );
                self.violate(at, "link-conservation", detail);
            }
        }
    }

    fn violate(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        self.coverage.set(wire::VIOLATION);
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            at,
            invariant,
            detail,
        });
    }

    fn link_mut(&mut self, idx: usize) -> &mut LinkFlow {
        if self.links.len() <= idx {
            self.links.resize(idx + 1, LinkFlow::default());
        }
        &mut self.links[idx]
    }

    /// Structural checks on an outgoing TCP packet's wire bytes, read
    /// through the tree's one header reader ([`TcpView::parse`]).
    /// Allocation-free on the (overwhelmingly common) clean path: each
    /// kind-30 body goes to [`Oracle::check_mptcp_opt`] without collecting
    /// anything.
    fn check_tcp(&mut self, at: SimTime, pkt: &Packet) {
        let seg = match TcpView::parse(&pkt.payload) {
            Ok(seg) => seg,
            Err(e) => {
                let (src, dst, len) = (pkt.src, pkt.dst, pkt.payload.len());
                let detail = format!("{src} -> {dst}: {e} (len {len})");
                return self.violate(at, "tcp-parse", detail);
            }
        };
        let f = seg.hdr.flags;
        let cov = &mut self.coverage;
        match (f.syn, f.ack) {
            (true, false) => cov.set(wire::SYN),
            (true, true) => cov.set(wire::SYN_ACK),
            _ => {}
        }
        if f.fin {
            cov.set(wire::FIN);
        }
        if f.rst {
            cov.set(wire::RST);
        }
        if !seg.payload.is_empty() {
            cov.set(if f.fin { wire::DATA_FIN } else { wire::DATA });
        } else if !f.syn && !f.fin && !f.rst && f.ack {
            cov.set(wire::PURE_ACK);
        }
        if seg.header_len() == TCP_HEADER_LEN && !f.syn {
            cov.set(wire::NO_OPTIONS);
        }
        for body in seg.mptcp_opts() {
            self.check_mptcp_opt(at, pkt, &seg, body);
        }
    }

    /// Check one kind-30 option body against `seg`'s context.
    fn check_mptcp_opt(&mut self, at: SimTime, pkt: &Packet, seg: &TcpView<'_>, body: &[u8]) {
        let (syn, ack) = (seg.hdr.flags.syn, seg.hdr.flags.ack);
        match parse_mptcp(body) {
            Err(e) => self.violate(
                at,
                "mptcp-parse",
                format!("{} -> {}: {e}", pkt.src, pkt.dst),
            ),
            Ok(MpWire::Capable { key }) => {
                self.coverage.set(if syn && !ack {
                    wire::MP_CAPABLE_SYN
                } else {
                    wire::MP_CAPABLE_ACK
                });
                // Key uniqueness is only meaningfully asserted on the
                // initial SYN (retransmits repeat the key on the same flow).
                if syn && !ack {
                    let fk = (pkt.src.0, pkt.dst.0, seg.hdr.src_port, seg.hdr.dst_port);
                    match self.capable_keys.get(&key) {
                        Some(prev) if *prev != fk => {
                            let detail = format!(
                                "MP_CAPABLE key {key:016x} reused by flow {} -> {} \
                                 (first seen on another flow): token collision across \
                                 connections",
                                pkt.src, pkt.dst
                            );
                            self.violate(at, "token-uniqueness", detail);
                        }
                        Some(_) => {}
                        None => {
                            self.capable_keys.insert(key, fk);
                        }
                    }
                }
            }
            Ok(MpWire::Join) => self.coverage.set(wire::MP_JOIN),
            Ok(MpWire::Dss { map_len: None }) => self.coverage.set(wire::DSS_ACK_ONLY),
            Ok(MpWire::Dss { map_len: Some(len) }) => {
                self.coverage.set(wire::DSS_MAP);
                let (src, dst, payload) = (pkt.src, pkt.dst, seg.payload.len());
                if len != 0 && len as usize != payload {
                    let detail =
                        format!("{src} -> {dst}: DSS mapping len {len} != payload len {payload}");
                    self.violate(at, "dss-mapping", detail);
                }
            }
            Ok(MpWire::Other) => self.coverage.set(wire::MP_OTHER),
        }
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for Oracle {
    fn record(&mut self, ev: &TraceEvent<'_>) {
        self.events_seen += 1;
        if ev.at < self.last_at {
            let detail = format!(
                "trace time went backwards: {} after {}",
                ev.at, self.last_at
            );
            self.violate(ev.at, "time-monotonicity", detail);
        } else {
            self.last_at = ev.at;
        }
        match ev.kind {
            TraceKind::Send { .. } => {
                if ev.pkt.proto == PROTO_TCP {
                    self.check_tcp(ev.at, ev.pkt);
                } else if ev.pkt.proto == PROTO_ICMP {
                    self.coverage.set(wire::ICMP);
                }
            }
            TraceKind::Enqueue { link, .. } => {
                self.link_mut(link.0).enqueued += 1;
            }
            TraceKind::TxStart { link, .. } => {
                let l = self.link_mut(link.0);
                l.tx_started += 1;
                if l.tx_started > l.enqueued {
                    let (tx, enq) = (l.tx_started, l.enqueued);
                    self.violate(
                        ev.at,
                        "link-conservation",
                        format!("link {}: tx_started {tx} > enqueued {enq}", link.0),
                    );
                }
            }
            TraceKind::Deliver { link, .. } => {
                let l = self.link_mut(link.0);
                l.delivered += 1;
                if l.delivered + l.dropped_after_tx > l.tx_started {
                    let (d, dr, tx) = (l.delivered, l.dropped_after_tx, l.tx_started);
                    self.violate(
                        ev.at,
                        "link-conservation",
                        format!(
                            "link {}: delivered {d} + dropped {dr} > tx_started {tx}",
                            link.0
                        ),
                    );
                }
            }
            TraceKind::Drop { link, reason } => {
                self.coverage.set(match reason {
                    DropReason::Random => wire::DROP_RANDOM,
                    DropReason::IfaceDown => wire::DROP_IFACE_DOWN,
                    DropReason::QueueFull | DropReason::Evicted => wire::DROP_QUEUE_FULL,
                    _ => wire::DROP_OTHER,
                });
                // An evicted packet was enqueued but will never start
                // serialization; it leaves the conservation ledger here.
                if let Some(link) = link {
                    if reason == DropReason::Evicted {
                        let l = self.link_mut(link.0);
                        l.evicted += 1;
                        if l.tx_started + l.evicted > l.enqueued {
                            let (tx, evd, enq) = (l.tx_started, l.evicted, l.enqueued);
                            self.violate(
                                ev.at,
                                "link-conservation",
                                format!(
                                    "link {}: tx_started {tx} + evicted {evd} > enqueued {enq}",
                                    link.0
                                ),
                            );
                        }
                    }
                }
                // QueueFull happens before admission, IfaceDown/NoRoute at
                // the sending host before any link — only drops after
                // serialization started consume a transmission.
                if let Some(link) = link {
                    if matches!(reason, DropReason::Random | DropReason::IfaceDown) {
                        let l = self.link_mut(link.0);
                        l.dropped_after_tx += 1;
                        if l.delivered + l.dropped_after_tx > l.tx_started {
                            let (d, dr, tx) = (l.delivered, l.dropped_after_tx, l.tx_started);
                            self.violate(
                                ev.at,
                                "link-conservation",
                                format!(
                                    "link {}: delivered {d} + dropped {dr} > tx_started {tx}",
                                    link.0
                                ),
                            );
                        }
                    }
                }
            }
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.record(ev);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------
// MPTCP subtypes, read independently of the stack: the framing above is
// the shared `crate::wire` reader, but what a kind-30 body means is
// checked here against RFC 6824 itself, so a bug in `smapp-mptcp`'s option
// codec cannot vouch for itself.
// ---------------------------------------------------------------------

/// What the oracle extracts from one MPTCP (kind-30) option.
enum MpWire {
    /// `MP_CAPABLE` carrying the sender's key (SYN / SYN-ACK form).
    Capable { key: u64 },
    /// `MP_JOIN` in any of its three lengths.
    Join,
    /// DSS with the mapping length when a mapping is present.
    Dss { map_len: Option<u16> },
    /// Any other valid subtype.
    Other,
}

/// Parse one kind-30 option body far enough for the oracle's checks.
fn parse_mptcp(p: &[u8]) -> Result<MpWire, &'static str> {
    if p.is_empty() {
        return Err("empty MPTCP option");
    }
    match p[0] >> 4 {
        // MP_CAPABLE: 10 (one key) or 18 (both keys) bytes.
        0x0 => match p.len() {
            10 | 18 => Ok(MpWire::Capable {
                key: u64::from_be_bytes(p[2..10].try_into().expect("length checked")),
            }),
            _ => Err("bad MP_CAPABLE length"),
        },
        // MP_JOIN: SYN (10), SYN/ACK (14), third ACK (22).
        0x1 => match p.len() {
            10 | 14 | 22 => Ok(MpWire::Join),
            _ => Err("bad MP_JOIN length"),
        },
        // DSS: flags select 4/8-byte ack and mapping presence.
        0x2 => {
            if p.len() < 2 {
                return Err("truncated DSS");
            }
            let flags = p[1];
            let mut i = 2usize;
            if flags & 0x01 != 0 {
                i += if flags & 0x02 != 0 { 8 } else { 4 };
            }
            let mut map_len = None;
            if flags & 0x04 != 0 {
                i += if flags & 0x08 != 0 { 8 } else { 4 }; // DSN
                i += 4; // SSN
                if p.len() < i + 2 {
                    return Err("truncated DSS mapping");
                }
                map_len = Some(u16::from_be_bytes([p[i], p[i + 1]]));
                i += 2;
            }
            if p.len() < i {
                return Err("truncated DSS");
            }
            Ok(MpWire::Dss { map_len })
        }
        // ADD_ADDR, REMOVE_ADDR, MP_PRIO, MP_FAIL, MP_FASTCLOSE.
        0x3..=0x7 => Ok(MpWire::Other),
        _ => Err("unknown MPTCP subtype"),
    }
}

/// Outcome of [`conclude`]: the wire-level violations plus whatever inner
/// sink the oracle wrapped (handed back so scenarios can read their own
/// collected data).
pub struct OracleOutcome {
    /// Violations, in event order.
    pub violations: Vec<Violation>,
    /// The wrapped sink (or the raw sink when no oracle was installed).
    pub inner: Option<Box<dyn TraceSink>>,
    /// Whether an oracle was actually installed and checked.
    pub checked: bool,
    /// Violations beyond the storage cap.
    pub suppressed: u64,
    /// Wire-feature coverage the oracle observed (empty when no oracle
    /// was installed).
    pub coverage: Coverage,
}

/// Take the trace sink out of `core`, run the oracle's end-of-run checks,
/// and return the outcome. A non-oracle sink is handed back untouched with
/// `checked == false`.
pub fn conclude(core: &mut crate::world::SimCore, summary: &RunSummary) -> OracleOutcome {
    let mut out = OracleOutcome {
        violations: Vec::new(),
        inner: None,
        checked: false,
        suppressed: 0,
        coverage: Coverage::new(),
    };
    let Some(mut sink) = core.take_trace() else {
        return out;
    };
    match sink.as_any_mut().downcast_mut::<Oracle>() {
        Some(o) => {
            o.finish(summary);
            out.violations = o.take_violations();
            out.suppressed = o.suppressed;
            out.coverage = o.coverage;
            out.inner = o.take_inner();
            out.checked = true;
        }
        None => out.inner = Some(sink),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::link::{Dir, LinkId};
    use crate::node::{IfaceId, NodeId};
    use crate::packet::Frame;
    use crate::wire::{encode_parts, OptionWriter, TcpFixed, TcpFlags, OPT_KIND_MPTCP};
    use bytes::Bytes;

    const SEND: TraceKind = TraceKind::Send {
        node: NodeId(0),
        iface: IfaceId(0),
    };

    const ENQUEUE: TraceKind = TraceKind::Enqueue {
        link: LinkId(0),
        dir: Dir::AtoB,
    };
    const TX_START: TraceKind = TraceKind::TxStart {
        link: LinkId(0),
        dir: Dir::AtoB,
    };
    const DELIVER: TraceKind = TraceKind::Deliver {
        link: LinkId(0),
        iface: IfaceId(1),
        node: NodeId(1),
    };

    fn ev(at_ms: u64, kind: TraceKind, pkt: &Packet) -> TraceEvent<'_> {
        TraceEvent {
            at: SimTime::from_millis(at_ms),
            kind,
            pkt,
        }
    }

    fn tcp_pkt(payload: impl Into<Frame>) -> Packet {
        Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            payload.into(),
        )
    }

    /// A valid segment from port 40000 to 80: `flags`, one MPTCP option
    /// per body in `mptcp`, then `payload`.
    fn tcp_seg(flags: TcpFlags, mptcp: &[&[u8]], payload: &[u8]) -> Frame {
        let hdr = TcpFixed {
            src_port: 40_000,
            dst_port: 80,
            flags,
            ..TcpFixed::default()
        };
        let mut opts = OptionWriter::new();
        for body in mptcp {
            opts.push(OPT_KIND_MPTCP, body);
        }
        encode_parts(&hdr, &opts, Bytes::copy_from_slice(payload)).unwrap()
    }

    #[test]
    fn clean_link_lifecycle_is_clean() {
        let mut o = Oracle::new();
        let p = tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b"hi"));
        o.record(&ev(1, SEND, &p));
        o.record(&ev(1, ENQUEUE, &p));
        o.record(&ev(1, TX_START, &p));
        o.record(&ev(2, DELIVER, &p));
        o.finish(&RunSummary {
            reason: StopReason::Idle,
            ended_at: SimTime::from_millis(2),
            events: 4,
            stale: 0,
            requeued: 0,
            peak_queue: 1,
        });
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn delivery_without_transmission_is_flagged() {
        let mut o = Oracle::new();
        let p = tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""));
        o.record(&ev(1, DELIVER, &p));
        assert_eq!(o.violations()[0].invariant, "link-conservation");
    }

    #[test]
    fn idle_end_with_leftover_packets_is_flagged() {
        let mut o = Oracle::new();
        let p = tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""));
        o.record(&ev(1, ENQUEUE, &p));
        o.finish(&RunSummary {
            reason: StopReason::Idle,
            ended_at: SimTime::from_millis(5),
            events: 1,
            stale: 0,
            requeued: 0,
            peak_queue: 1,
        });
        assert!(!o.is_clean());
        // A horizon stop with the same counters is fine (packet in flight).
        let mut o2 = Oracle::new();
        o2.record(&ev(1, ENQUEUE, &p));
        o2.finish(&RunSummary {
            reason: StopReason::Horizon,
            ended_at: SimTime::from_millis(5),
            events: 1,
            stale: 0,
            requeued: 0,
            peak_queue: 1,
        });
        assert!(o2.is_clean());
    }

    #[test]
    fn time_regression_is_flagged() {
        let mut o = Oracle::new();
        let p = tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""));
        o.record(&ev(5, SEND, &p));
        o.record(&ev(3, SEND, &p));
        assert_eq!(o.violations()[0].invariant, "time-monotonicity");
    }

    #[test]
    fn corrupt_tcp_on_the_wire_is_flagged() {
        let mut o = Oracle::new();
        // A bad data offset, which the writer cannot produce.
        let mut raw = tcp_seg(TcpFlags::ACK, &[], b"x").to_vec();
        raw[12] = 0xF0; // data offset 60 > len
        let p = tcp_pkt(Bytes::from(raw));
        o.record(&ev(1, SEND, &p));
        assert_eq!(o.violations()[0].invariant, "tcp-parse");
    }

    #[test]
    fn dss_mapping_must_cover_payload() {
        // DSS with 8-byte ack + mapping claiming 5 bytes over a 2-byte
        // payload. Body: subtype/flags + ack(8) + dsn(8) + ssn(4) + len(2).
        let mut body = vec![0x20, 0x0F];
        body.extend_from_slice(&[0; 8]); // data ack
        body.extend_from_slice(&[0; 8]); // dsn
        body.extend_from_slice(&[0; 4]); // ssn
        body.extend_from_slice(&5u16.to_be_bytes());
        let p = tcp_pkt(tcp_seg(TcpFlags::PSH_ACK, &[&body], b"hi"));
        let mut o = Oracle::new();
        o.record(&ev(1, SEND, &p));
        assert_eq!(o.violations()[0].invariant, "dss-mapping");
    }

    #[test]
    fn capable_key_reuse_across_flows_is_flagged() {
        let mk = |src: Addr| {
            // MP_CAPABLE SYN body: subtype 0, flags, key (8) = 10 bytes.
            let mut body = vec![0x00, 0x01];
            body.extend_from_slice(&0xDEAD_BEEF_u64.to_be_bytes());
            let mut p = tcp_pkt(tcp_seg(TcpFlags::SYN, &[&body], b""));
            p.src = src;
            p
        };
        let mut o = Oracle::new();
        let p1 = mk(Addr::new(10, 0, 0, 1));
        let p2 = mk(Addr::new(10, 0, 0, 7));
        o.record(&ev(1, SEND, &p1));
        // Retransmit on the same flow: fine.
        o.record(&ev(2, SEND, &p1));
        assert!(o.is_clean());
        o.record(&ev(
            3,
            TraceKind::Send {
                node: NodeId(2),
                iface: IfaceId(2),
            },
            &p2,
        ));
        assert_eq!(o.violations()[0].invariant, "token-uniqueness");
    }

    #[test]
    fn coverage_bits_track_wire_features() {
        let mut o = Oracle::new();
        // SYN, then a pure ACK, then data+FIN with no options.
        o.record(&ev(1, SEND, &tcp_pkt(tcp_seg(TcpFlags::SYN, &[], b""))));
        o.record(&ev(2, SEND, &tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""))));
        o.record(&ev(
            3,
            SEND,
            &tcp_pkt(tcp_seg(TcpFlags::FIN_ACK, &[], b"xy")),
        ));
        let c = o.coverage;
        assert!(c.get(crate::coverage::wire::SYN));
        assert!(c.get(crate::coverage::wire::PURE_ACK));
        assert!(c.get(crate::coverage::wire::DATA_FIN));
        assert!(c.get(crate::coverage::wire::FIN));
        assert!(c.get(crate::coverage::wire::NO_OPTIONS));
        assert!(!c.get(crate::coverage::wire::SYN_ACK));
        assert!(!c.get(crate::coverage::wire::RST));
        assert!(!c.get(crate::coverage::wire::VIOLATION));
        assert!(o.is_clean());
        // Identical replay ⇒ identical bitmap.
        let mut o2 = Oracle::new();
        o2.record(&ev(1, SEND, &tcp_pkt(tcp_seg(TcpFlags::SYN, &[], b""))));
        o2.record(&ev(2, SEND, &tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""))));
        o2.record(&ev(
            3,
            SEND,
            &tcp_pkt(tcp_seg(TcpFlags::FIN_ACK, &[], b"xy")),
        ));
        assert_eq!(o2.coverage, c);
    }

    #[test]
    fn violations_set_the_violation_coverage_bit() {
        let mut o = Oracle::new();
        // A bad data offset, which the writer cannot produce.
        let mut raw = tcp_seg(TcpFlags::ACK, &[], b"x").to_vec();
        raw[12] = 0xF0;
        o.record(&ev(1, SEND, &tcp_pkt(Bytes::from(raw))));
        assert!(o.coverage.get(crate::coverage::wire::VIOLATION));
    }

    #[test]
    fn wrapping_forwards_to_inner() {
        let inner = crate::trace::CollectorSink::with_cap(0);
        let mut o = Oracle::wrapping(Box::new(inner));
        let p = tcp_pkt(tcp_seg(TcpFlags::ACK, &[], b""));
        o.record(&ev(1, SEND, &p));
        let inner = o.take_inner().unwrap();
        let c = inner
            .as_any()
            .downcast_ref::<crate::trace::CollectorSink>()
            .unwrap();
        assert_eq!(c.events.len(), 1);
    }
}
