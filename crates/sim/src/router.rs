//! Routers with longest-prefix-match forwarding and ECMP.
//!
//! A [`Router`] forwards packets between its interfaces. Each route maps a
//! destination prefix to one *or several* egress interfaces; with several,
//! the router picks one by hashing the packet's 5-tuple — flow-level
//! load-balancing exactly as described in §4.4 of the paper ("load-balancing
//! routers compute a hash over the four-tuple to select the path for each
//! flow"). The hash is salted per router so cascaded routers don't make
//! correlated choices.

use std::any::Any;

use crate::addr::{Addr, AddrPrefix, FlowKey};
use crate::dynamics::{strip_mptcp_options, NodeCommand};
use crate::hash::{FxHashMap, FxHashSet};
use crate::node::{IfaceId, Node};
use crate::packet::{Packet, PROTO_TCP};
use crate::rewrite;
use crate::spare::Spare;
use crate::wire::{TcpView, TCP_HEADER_LEN};
use crate::world::Ctx;

/// One routing-table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Destination prefix this entry covers.
    pub prefix: AddrPrefix,
    /// Candidate egress interfaces; >1 means ECMP across them.
    pub egress: Vec<IfaceId>,
}

/// A router node.
#[derive(Debug)]
pub struct Router {
    routes: Spare<Vec<Route>>,
    /// Memoized longest-prefix-match result per destination address. With
    /// per-client routes (the fleet workload installs one /24 per client)
    /// the linear LPM scan would otherwise be an O(routes) cost on every
    /// forwarded packet. Purely a cache: it never changes which route wins,
    /// so trajectories are identical with or without it.
    lpm_cache: Spare<FxHashMap<Addr, Option<usize>>>,
    salt: u64,
    /// When set, forwarded TCP segments have their MPTCP options (kind 30)
    /// removed — the protocol-normalizing middlebox interference that
    /// forces endpoints into plain-TCP fallback. Toggled by scenarios
    /// directly or via [`NodeCommand::StripMptcp`] in a dynamics script.
    pub strip_mptcp: bool,
    /// When set, forwarded TCP segments get NAT-style sequence/ack
    /// rewriting: each directed flow's sequence space shifts by a delta
    /// derived from the router salt and the flow key, and acknowledgments
    /// shift back by the reverse flow's delta — so both endpoints see a
    /// consistent (but shifted) conversation, exactly like an
    /// ISN-randomizing NAT. Toggled via [`NodeCommand::SeqNat`].
    pub seq_nat: bool,
    /// When set, eligible option-free data segments are split in two on
    /// the forwarding path (re-segmenting middlebox). Toggled via
    /// [`NodeCommand::SplitSegments`].
    pub split_segments: bool,
    /// When set, contiguous option-free data segments of a flow are
    /// coalesced LRO/GRO-style: one segment is briefly held back and
    /// merged with its successor (or flushed on a short timer). Toggled
    /// via [`NodeCommand::CoalesceSegments`].
    pub coalesce_segments: bool,
    /// Drop every n-th eligible pure ACK per directed flow (`0` = off).
    /// ACKs on flows involved in a FIN exchange are never thinned, so a
    /// close handshake always completes. Toggled via
    /// [`NodeCommand::AckThin`].
    pub ack_thin: u32,
    /// **Test-only** fault injection: when set, the split rewriter emits
    /// a structurally corrupt second half (see
    /// [`rewrite::split_segment`]). Exists so broken-build detection
    /// tests have a deterministic rewriter bug for the fuzzer to find.
    pub buggy_split: bool,
    /// MPTCP options removed while [`Router::strip_mptcp`] was on.
    pub options_stripped: u64,
    /// Segments whose sequence numbers were rewritten by the seq NAT.
    pub seq_rewritten: u64,
    /// Segments split in two by the re-segmenter.
    pub segments_split: u64,
    /// Segment pairs merged by the coalescer.
    pub segments_coalesced: u64,
    /// Pure ACKs dropped by the thinner.
    pub acks_thinned: u64,
    /// Packets forwarded, for reporting.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Packets dropped because TTL reached zero.
    pub ttl_drops: u64,
    /// One held-back segment per flow awaiting a coalesce partner.
    pending: Vec<(FlowKey, PendingSeg)>,
    /// Directed flows on which this router forwarded a FIN (ack-thinning
    /// exemption state).
    fin_seen: FxHashSet<FlowKey>,
    /// Per-directed-flow pure-ACK counters for the thinner.
    ack_counters: FxHashMap<FlowKey, u32>,
    /// Timer-token generator for coalesce flush timers.
    next_flush_token: u64,
}

/// A segment held back by the coalescer, with the egress it was already
/// routed to and the flush-timer token guarding it.
#[derive(Debug)]
struct PendingSeg {
    pkt: Packet,
    egress: IfaceId,
    token: u64,
}

/// How long the coalescer holds a segment waiting for its successor.
const COALESCE_FLUSH: std::time::Duration = std::time::Duration::from_micros(200);

/// Salt-mixing constant separating seq-NAT deltas from ECMP hashing.
const SEQNAT_SALT: u64 = 0x5EA9_0A7D_EC0D_E5A1;

impl Router {
    /// A router with the given ECMP hash salt (use the router's index),
    /// on the tables the last router dropped on this thread gave back.
    /// The cache is only probed, never iterated, so its capacity reaches
    /// no trajectory.
    pub fn new(salt: u64) -> Self {
        Router {
            routes: Spare::default(),
            lpm_cache: Spare::default(),
            salt,
            strip_mptcp: false,
            seq_nat: false,
            split_segments: false,
            coalesce_segments: false,
            ack_thin: 0,
            buggy_split: false,
            options_stripped: 0,
            seq_rewritten: 0,
            segments_split: 0,
            segments_coalesced: 0,
            acks_thinned: 0,
            forwarded: 0,
            no_route: 0,
            ttl_drops: 0,
            pending: Vec::new(),
            fin_seen: FxHashSet::default(),
            ack_counters: FxHashMap::default(),
            next_flush_token: 0,
        }
    }

    /// Append a route. Lookup uses longest-prefix match; insertion order
    /// breaks ties.
    pub fn add_route(&mut self, prefix: AddrPrefix, egress: Vec<IfaceId>) -> &mut Self {
        assert!(!egress.is_empty(), "route needs at least one egress");
        self.routes.push(Route { prefix, egress });
        // A new route can change any memoized lookup.
        self.lpm_cache.clear();
        self
    }

    /// Longest-prefix match over the routing table (uncached).
    fn lpm(&self, dst: Addr) -> Option<usize> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.prefix.contains(dst))
            .max_by_key(|(_, r)| r.prefix.len())
            .map(|(i, _)| i)
    }

    /// ECMP selection within a matched route.
    fn pick_within(&self, route: usize, pkt: &Packet) -> IfaceId {
        let egress = &self.routes[route].egress;
        if egress.len() == 1 {
            egress[0]
        } else {
            let h = pkt.flow_key().ecmp_hash(self.salt);
            egress[h as usize % egress.len()]
        }
    }

    /// Pick the egress interface for `pkt`, if any route matches.
    pub fn select_egress(&self, pkt: &Packet) -> Option<IfaceId> {
        self.lpm(pkt.dst).map(|i| self.pick_within(i, pkt))
    }

    /// Like [`Router::select_egress`] but memoizing the prefix match per
    /// destination — the forwarding hot path.
    fn select_egress_cached(&mut self, pkt: &Packet) -> Option<IfaceId> {
        let route = match self.lpm_cache.get(&pkt.dst) {
            Some(&cached) => cached,
            None => {
                let computed = self.lpm(pkt.dst);
                self.lpm_cache.insert(pkt.dst, computed);
                computed
            }
        };
        route.map(|i| self.pick_within(i, pkt))
    }

    /// Per-directed-flow sequence deltas for the seq NAT: the forward
    /// delta shifts this flow's sequence space; the reverse delta undoes
    /// the peer direction's shift in the acknowledgment field. Stateless
    /// and salt-derived, so replays are bit-identical.
    fn nat_deltas(&self, pkt: &Packet) -> (u32, u32) {
        let f = pkt.flow_key();
        let fwd = f.ecmp_hash(self.salt ^ SEQNAT_SALT);
        let rev = f.reversed().ecmp_hash(self.salt ^ SEQNAT_SALT);
        (fwd, rev)
    }

    /// Whether the ack thinner drops this pure ACK. Counts eligible ACKs
    /// per directed flow and drops every n-th — unless either direction
    /// of the flow has carried a FIN through this router, in which case
    /// the close handshake's ACKs must all pass.
    fn thin_this_ack(&mut self, pkt: &Packet) -> bool {
        let key = pkt.flow_key();
        if self.fin_seen.contains(&key) || self.fin_seen.contains(&key.reversed()) {
            return false;
        }
        let c = self.ack_counters.entry(key).or_insert(0);
        *c += 1;
        *c % self.ack_thin == 0
    }

    /// Flush one held segment (by position in the pending list).
    fn flush_pending(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let (_, held) = self.pending.remove(idx);
        self.forwarded += 1;
        ctx.send(held.egress, held.pkt);
    }

    /// Flush every held segment (coalescer turned off mid-run).
    fn flush_all_pending(&mut self, ctx: &mut Ctx<'_>) {
        while !self.pending.is_empty() {
            self.flush_pending(ctx, 0);
        }
    }

    /// Hold an eligible segment for coalescing, or merge it with the one
    /// already held for its flow. Returns `false` when the segment is not
    /// coalescible and should be forwarded normally.
    fn coalesce(&mut self, ctx: &mut Ctx<'_>, egress: IfaceId, pkt: &Packet) -> bool {
        let Ok(seg) = TcpView::parse(&pkt.payload) else {
            return false;
        };
        let f = seg.hdr.flags;
        if seg.header_len() != TCP_HEADER_LEN || seg.payload.is_empty() || f.syn || f.rst {
            return false;
        }
        let key = pkt.flow_key();
        if let Some(idx) = self.pending.iter().position(|(k, _)| *k == key) {
            let (_, mut held) = self.pending.remove(idx);
            match rewrite::coalesce_pair(&held.pkt.payload, &pkt.payload) {
                Some(merged) => {
                    held.pkt.payload = merged;
                    self.segments_coalesced += 1;
                    self.forwarded += 1;
                    ctx.send(held.egress, held.pkt);
                    return true;
                }
                None => {
                    // Not contiguous: flush the held segment in order,
                    // then treat the newcomer as a fresh candidate.
                    self.forwarded += 1;
                    ctx.send(held.egress, held.pkt);
                }
            }
        }
        if f.fin {
            return false; // never hold a FIN back
        }
        let token = self.next_flush_token;
        self.next_flush_token += 1;
        self.pending.push((
            key,
            PendingSeg {
                pkt: pkt.clone(),
                egress,
                token,
            },
        ));
        ctx.set_timer_after(COALESCE_FLUSH, token);
        true
    }
}

impl Node for Router {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_iface: IfaceId, mut pkt: Packet) {
        if pkt.ttl <= 1 {
            self.ttl_drops += 1;
            return;
        }
        pkt.ttl -= 1;
        if pkt.proto == PROTO_TCP {
            if self.strip_mptcp {
                if let Some((cleaned, n)) = strip_mptcp_options(&pkt.payload) {
                    pkt.payload = cleaned;
                    self.options_stripped += n as u64;
                }
            }
            if self.seq_nat {
                let (fwd, rev) = self.nat_deltas(&pkt);
                if let Some(rewritten) = rewrite::rewrite_seq_ack(&pkt.payload, fwd, rev) {
                    pkt.payload = rewritten;
                    self.seq_rewritten += 1;
                }
            }
            if self.ack_thin > 0 {
                if let Ok(seg) = TcpView::parse(&pkt.payload) {
                    // A pure ACK: ACK set, no payload, no SYN/FIN/RST.
                    // Option-bearing ones (MPTCP DSS data-acks) count too:
                    // TCP and DSS acknowledgements are both cumulative.
                    let f = seg.hdr.flags;
                    let pure_ack = f.ack && !(f.syn || f.fin || f.rst) && seg.payload.is_empty();
                    if pure_ack && self.thin_this_ack(&pkt) {
                        self.acks_thinned += 1;
                        return;
                    }
                    if f.fin {
                        self.fin_seen.insert(pkt.flow_key());
                    }
                }
            }
        }
        match self.select_egress_cached(&pkt) {
            Some(egress) => {
                // A route pointing back out of the ingress interface would
                // loop the packet on a point-to-point link; treat as no route.
                if egress == in_iface {
                    self.no_route += 1;
                    return;
                }
                if pkt.proto == PROTO_TCP
                    && self.coalesce_segments
                    && self.coalesce(ctx, egress, &pkt)
                {
                    return;
                }
                if pkt.proto == PROTO_TCP && self.split_segments {
                    if let Some((a, b)) = rewrite::split_segment(&pkt.payload, self.buggy_split) {
                        self.segments_split += 1;
                        self.forwarded += 2;
                        let mut first = pkt.clone();
                        first.payload = a;
                        pkt.payload = b;
                        ctx.send(egress, first);
                        ctx.send(egress, pkt);
                        return;
                    }
                }
                self.forwarded += 1;
                ctx.send(egress, pkt);
            }
            None => {
                self.no_route += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // Coalesce flush timer: forward the held segment it guards, if it
        // is still held (merges and toggle-flushes leave stale timers).
        if let Some(idx) = self.pending.iter().position(|(_, h)| h.token == token) {
            self.flush_pending(ctx, idx);
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: &NodeCommand) {
        match cmd {
            NodeCommand::StripMptcp(on) => self.strip_mptcp = *on,
            NodeCommand::SeqNat(on) => self.seq_nat = *on,
            NodeCommand::SplitSegments(on) => self.split_segments = *on,
            NodeCommand::CoalesceSegments(on) => {
                self.coalesce_segments = *on;
                if !*on {
                    self.flush_all_pending(ctx);
                }
            }
            NodeCommand::AckThin(n) => self.ack_thin = *n,
            NodeCommand::FlushState => {}
            NodeCommand::Probe => {} // routers keep no connection state
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::wire::{encode_parts, OptionWriter, TcpFixed, TcpFlags, OPT_KIND_MPTCP};
    use bytes::Bytes;

    fn pkt_with_ports(dst: Addr, sport: u16, dport: u16) -> Packet {
        let mut payload = Vec::new();
        payload.extend_from_slice(&sport.to_be_bytes());
        payload.extend_from_slice(&dport.to_be_bytes());
        Packet::tcp(Addr::new(10, 0, 0, 1), dst, Bytes::from(payload))
    }

    #[test]
    fn longest_prefix_wins() {
        let mut r = Router::new(0);
        r.add_route("10.0.0.0/8".parse().unwrap(), vec![IfaceId(1)]);
        r.add_route("10.1.0.0/16".parse().unwrap(), vec![IfaceId(2)]);
        let p = pkt_with_ports(Addr::new(10, 1, 2, 3), 1, 2);
        assert_eq!(r.select_egress(&p), Some(IfaceId(2)));
        let p = pkt_with_ports(Addr::new(10, 2, 2, 3), 1, 2);
        assert_eq!(r.select_egress(&p), Some(IfaceId(1)));
    }

    #[test]
    fn no_route_returns_none() {
        let mut r = Router::new(0);
        r.add_route("10.0.0.0/8".parse().unwrap(), vec![IfaceId(1)]);
        let p = pkt_with_ports(Addr::new(192, 168, 0, 1), 1, 2);
        assert_eq!(r.select_egress(&p), None);
    }

    #[test]
    fn ecmp_spreads_flows_and_is_per_flow_stable() {
        let mut r = Router::new(3);
        r.add_route(
            AddrPrefix::DEFAULT,
            vec![IfaceId(0), IfaceId(1), IfaceId(2), IfaceId(3)],
        );
        let dst = Addr::new(10, 9, 9, 9);
        let mut seen = FxHashSet::default();
        for sport in 0..64u16 {
            let p = pkt_with_ports(dst, 40_000 + sport, 80);
            let first = r.select_egress(&p).unwrap();
            // Same flow key always hashes to the same egress.
            assert_eq!(r.select_egress(&p), Some(first));
            seen.insert(first);
        }
        assert_eq!(seen.len(), 4, "64 flows should cover all 4 paths");
    }

    /// A dropped router gives its routing table and lookup cache to the
    /// thread, emptied; the next router starts on them and routes as a
    /// router built on nothing does.
    #[test]
    fn a_new_router_starts_on_the_tables_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let lookups = |r: &mut Router| {
                r.add_route("10.0.0.0/8".parse().unwrap(), vec![IfaceId(1)]);
                r.add_route("10.1.0.0/16".parse().unwrap(), vec![IfaceId(2)]);
                let dsts = (0..64).map(|i| Addr::new(10, i % 3, i, 1));
                let pkts: Vec<Packet> = dsts.map(|d| pkt_with_ports(d, 1, 2)).collect();
                pkts.iter()
                    .map(|p| r.select_egress_cached(p))
                    .collect::<Vec<_>>()
            };
            let mut first = Router::new(5);
            let fresh = lookups(&mut first);
            let held = (first.routes.capacity(), first.lpm_cache.capacity());
            drop(first);
            let mut next = Router::new(5);
            assert!(next.routes.is_empty() && next.lpm_cache.is_empty());
            assert_eq!((next.routes.capacity(), next.lpm_cache.capacity()), held);
            assert_eq!(lookups(&mut next), fresh);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cached_lookup_matches_scan_and_survives_route_adds() {
        let mut r = Router::new(5);
        r.add_route("10.0.0.0/8".parse().unwrap(), vec![IfaceId(1)]);
        let p = pkt_with_ports(Addr::new(10, 1, 2, 3), 1, 2);
        assert_eq!(r.select_egress_cached(&p), r.select_egress(&p));
        assert_eq!(r.select_egress_cached(&p), Some(IfaceId(1)));
        // Adding a longer prefix must invalidate the memoized match.
        r.add_route("10.1.0.0/16".parse().unwrap(), vec![IfaceId(2)]);
        assert_eq!(r.select_egress_cached(&p), Some(IfaceId(2)));
        assert_eq!(r.select_egress_cached(&p), r.select_egress(&p));
        // Negative results are memoized too, and stay consistent.
        let miss = pkt_with_ports(Addr::new(192, 168, 0, 1), 1, 2);
        assert_eq!(r.select_egress_cached(&miss), None);
        assert_eq!(r.select_egress_cached(&miss), None);
        r.add_route("0.0.0.0/0".parse().unwrap(), vec![IfaceId(3)]);
        assert_eq!(r.select_egress_cached(&miss), Some(IfaceId(3)));
    }

    #[test]
    fn stripping_router_removes_mptcp_options_from_forwarded_tcp() {
        // Ports 1/2, one 4-byte option block: MPTCP kind 30 len 4.
        let hdr = TcpFixed {
            src_port: 1,
            dst_port: 2,
            ..TcpFixed::default()
        };
        let mut opts = OptionWriter::new();
        opts.push(OPT_KIND_MPTCP, &[0x20, 0]);
        let pkt = Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 1, 0, 1),
            encode_parts(&hdr, &opts, Bytes::new()).unwrap(),
        );
        // Through a real simulator, so the rewrite happens on the
        // forwarding path, not in isolation.
        let (got, router) = forward_through(|r| r.strip_mptcp = true, vec![pkt]);
        assert_eq!(router.options_stripped, 1);
        assert_eq!(
            (got[0].payload.head()[12] >> 4) as usize * 4,
            20,
            "options gone"
        );
        assert_eq!(got[0].ports(), (1, 2), "ports untouched");
    }

    /// Sends `out` back to back at start and keeps every packet it
    /// receives.
    struct Host {
        out: Vec<Packet>,
        got: Vec<Packet>,
    }
    impl Node for Host {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let (iface, _) = ctx.my_ifaces().next().unwrap();
            for pkt in self.out.drain(..) {
                ctx.send(iface, pkt);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Option-free data segment from 10.0.0.1:40000 to 10.1.0.1:80.
    fn data_seg(seq: u32, flags: TcpFlags, payload: &[u8]) -> Packet {
        let hdr = TcpFixed {
            src_port: 40_000,
            dst_port: 80,
            seq: seq.into(),
            ack: 500.into(),
            flags,
            window: 0,
        };
        Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 1, 0, 1),
            encode_parts(&hdr, &OptionWriter::new(), Bytes::copy_from_slice(payload)).unwrap(),
        )
    }

    /// Drive `pkts` through a router configured by `cfg`; returns what
    /// came out the far side plus the router for counter inspection.
    fn forward_through(cfg: impl FnOnce(&mut Router), pkts: Vec<Packet>) -> (Vec<Packet>, Router) {
        let mut r = Router::new(0);
        cfg(&mut r);
        let mut sim = crate::Simulator::new(0);
        let rid = sim.add_node(Box::new(r));
        let host = |out| {
            Box::new(Host {
                out,
                got: Vec::new(),
            })
        };
        let sink = sim.add_node(host(Vec::new()));
        let r_in = sim.add_iface(rid, Addr::new(10, 0, 0, 254), "in");
        let r_out = sim.add_iface(rid, Addr::new(10, 1, 0, 254), "out");
        let s_if = sim.add_iface(sink, Addr::new(10, 1, 0, 1), "eth0");
        let src = sim.add_node(host(pkts));
        let src_if = sim.add_iface(src, Addr::new(10, 0, 0, 1), "eth0");
        sim.connect(src_if, r_in, crate::link::LinkCfg::mbps_ms(100, 1));
        sim.connect(r_out, s_if, crate::link::LinkCfg::mbps_ms(100, 1));
        sim.node_mut(rid)
            .as_any_mut()
            .downcast_mut::<Router>()
            .unwrap()
            .add_route("10.1.0.0/16".parse().unwrap(), vec![r_out]);
        sim.run();
        let got = std::mem::take(
            &mut sim
                .node_mut(sink)
                .as_any_mut()
                .downcast_mut::<Host>()
                .unwrap()
                .got,
        );
        let router = sim
            .node_mut(rid)
            .as_any_mut()
            .downcast_mut::<Router>()
            .unwrap();
        let router = std::mem::replace(router, Router::new(0));
        (got, router)
    }

    #[test]
    fn splitting_router_halves_data_segments_on_the_path() {
        let (got, r) = forward_through(
            |r| r.split_segments = true,
            vec![data_seg(1000, TcpFlags::PSH_ACK, b"abcdefgh")],
        );
        assert_eq!(r.segments_split, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcd");
        assert_eq!(&got[1].payload.slice_from(20)[..], b"efgh");
        let seq1 = u32::from_be_bytes(got[1].payload.head()[4..8].try_into().unwrap());
        assert_eq!(seq1, 1004);
    }

    #[test]
    fn coalescing_router_merges_contiguous_segments() {
        let (got, r) = forward_through(
            |r| r.coalesce_segments = true,
            vec![
                data_seg(1000, TcpFlags::ACK, b"abcd"),
                data_seg(1004, TcpFlags::PSH_ACK, b"efgh"),
            ],
        );
        assert_eq!(r.segments_coalesced, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcdefgh");
    }

    #[test]
    fn coalescing_router_flushes_a_lone_segment_on_its_timer() {
        let (got, r) = forward_through(
            |r| r.coalesce_segments = true,
            vec![data_seg(1000, TcpFlags::ACK, b"abcd")],
        );
        assert_eq!(r.segments_coalesced, 0);
        assert_eq!(got.len(), 1, "flush timer released the held segment");
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcd");
    }

    #[test]
    fn seq_nat_router_shifts_seq_consistently_per_flow() {
        let (got, r) = forward_through(
            |r| r.seq_nat = true,
            vec![
                data_seg(1000, TcpFlags::ACK, b"ab"),
                data_seg(1002, TcpFlags::ACK, b"cd"),
            ],
        );
        assert_eq!(r.seq_rewritten, 2);
        let s0 = u32::from_be_bytes(got[0].payload.head()[4..8].try_into().unwrap());
        let s1 = u32::from_be_bytes(got[1].payload.head()[4..8].try_into().unwrap());
        assert_ne!(s0, 1000, "ISN shifted");
        assert_eq!(s1.wrapping_sub(s0), 2, "same delta for the whole flow");
    }

    #[test]
    fn ack_thinning_drops_every_nth_but_spares_fin_exchanges() {
        let pure_ack = || data_seg(2000, TcpFlags::ACK, b"");
        let (got, r) = forward_through(
            |r| r.ack_thin = 2,
            vec![pure_ack(), pure_ack(), pure_ack(), pure_ack()],
        );
        assert_eq!(r.acks_thinned, 2, "every 2nd pure ACK dropped");
        assert_eq!(got.len(), 2);
        // After a FIN passes, the same flow's ACKs are exempt.
        let (got, r) = forward_through(
            |r| r.ack_thin = 2,
            vec![
                data_seg(3000, TcpFlags::FIN_ACK, b"x"),
                pure_ack(),
                pure_ack(),
                pure_ack(),
            ],
        );
        assert_eq!(r.acks_thinned, 0, "FIN exchange never thinned");
        assert_eq!(got.len(), 4);
    }

    /// The ACK thinner's pure-ACK test, through a router that drops every
    /// one it finds: ACK set, no payload, no SYN/FIN/RST, and a segment
    /// the shared reader accepts.
    #[test]
    fn pure_ack_classifier() {
        let thinned = |pkt: Packet| {
            let (_, r) = forward_through(|r| r.ack_thin = 1, vec![pkt]);
            r.acks_thinned == 1
        };
        assert!(thinned(data_seg(1, TcpFlags::ACK, b"")));
        assert!(!thinned(data_seg(1, TcpFlags::ACK, b"x")), "data");
        assert!(!thinned(data_seg(1, TcpFlags::FIN_ACK, b"")), "FIN-ACK");
        assert!(!thinned(data_seg(1, TcpFlags::SYN_ACK, b"")), "SYN-ACK");
        let tiny = Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 1, 0, 1),
            Bytes::from_static(b"tiny"),
        );
        assert!(!thinned(tiny));
        let malformed = Packet::tcp(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 1, 0, 1),
            Bytes::from_static(&crate::wire::MALFORMED_OPTION_AREA),
        );
        assert!(!thinned(malformed), "malformed option area");
    }

    #[test]
    fn strip_command_toggles_the_flag() {
        use crate::netem::{Netem, NetemScript};
        let mut sim = crate::Simulator::new(0);
        let rid = sim.add_node(Box::new(Router::new(0)));
        let strip = Netem::peer(rid).strip_mptcp(true);
        let script = NetemScript::new().at(crate::SimTime::from_millis(1), strip);
        sim.install(script, crate::InstallPolicy::Sort).unwrap();
        sim.run();
        let r = sim.node(rid).as_any().downcast_ref::<Router>().unwrap();
        assert!(r.strip_mptcp);
    }

    #[test]
    fn different_salt_different_mapping() {
        let mk = |salt| {
            let mut r = Router::new(salt);
            r.add_route(
                AddrPrefix::DEFAULT,
                vec![IfaceId(0), IfaceId(1), IfaceId(2), IfaceId(3)],
            );
            r
        };
        let r1 = mk(1);
        let r2 = mk(2);
        let dst = Addr::new(10, 9, 9, 9);
        let mapping = |r: &Router| -> Vec<_> {
            (0..32u16)
                .map(|s| {
                    r.select_egress(&pkt_with_ports(dst, 40_000 + s, 80))
                        .unwrap()
                })
                .collect()
        };
        assert_ne!(mapping(&r1), mapping(&r2));
    }
}
