//! Routers with longest-prefix-match forwarding and ECMP, and the
//! middlebox stages they apply on the forwarding path.
//!
//! A [`Router`] forwards packets between its interfaces. Each route maps a
//! destination prefix to one *or several* egress interfaces; with several,
//! the router picks one by hashing the packet's 5-tuple — flow-level
//! load-balancing exactly as described in §4.4 of the paper ("load-balancing
//! routers compute a hash over the four-tuple to select the path for each
//! flow"). The hash is salted per router so cascaded routers don't make
//! correlated choices. Middlebox [`Stage`]s act on the TCP segments
//! arriving on one ingress interface, or on every ingress (both ways).

use std::any::Any;

use crate::addr::{Addr, AddrPrefix, FlowKey};
use crate::dynamics::NodeCommand;
use crate::hash::{FxHashMap, FxHashSet};
use crate::node::{IfaceId, Node};
use crate::packet::{Packet, PROTO_TCP};
use crate::rewrite;
use crate::spare::Spare;
use crate::wire::{TcpView, TCP_HEADER_LEN};
use crate::world::Ctx;

/// One routing-table entry: a destination prefix and its candidate
/// egress interfaces (more than one means ECMP across them).
#[derive(Clone, Debug)]
struct Route {
    prefix: AddrPrefix,
    egress: Vec<IfaceId>,
}

/// One middlebox behaviour a [`Router`] applies to the TCP segments
/// arriving on an ingress interface. Stripping, seq NAT and ACK thinning
/// act before the route lookup, then coalescing and splitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Remove MPTCP options ([`rewrite::strip_mptcp_options`]).
    StripMptcp,
    /// Shift each directed flow's sequence space by a salt-derived delta,
    /// like an ISN-randomizing NAT ([`rewrite::rewrite_seq_ack`]).
    SeqNat,
    /// Split option-free data segments in two ([`rewrite::split_segment`]).
    Split,
    /// Hold an option-free data segment briefly to merge it with its
    /// successor, LRO/GRO-style ([`rewrite::coalesce_pair`]).
    Coalesce,
    /// Drop every n-th pure ACK per directed flow (`AckThin(0)` is off),
    /// except on a flow a FIN crossed either way, so a close completes.
    AckThin(u32),
}

/// The stages on for one ingress key: a slot per [`Stage`] holding `0`
/// when off, else `1` (the period for [`Stage::AckThin`]).
type StageSet = [u32; 5];

const STRIP: usize = 0;
const SEQ_NAT: usize = 1;
const SPLIT: usize = 2;
const COALESCE: usize = 3;
const THIN: usize = 4;

/// What a [`Router`] did with the packets it received.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Packets sent on to their egress.
    pub forwarded: u64,
    /// Packets dropped for lack of a route (or one back out the ingress).
    pub no_route: u64,
    /// Packets dropped because TTL reached zero.
    pub ttl_drops: u64,
    /// MPTCP options removed by [`Stage::StripMptcp`].
    pub options_stripped: u64,
    /// Segments rewritten by [`Stage::SeqNat`].
    pub seq_rewritten: u64,
    /// Segments split in two by [`Stage::Split`].
    pub segments_split: u64,
    /// Segment pairs merged by [`Stage::Coalesce`].
    pub segments_coalesced: u64,
    /// Pure ACKs dropped by [`Stage::AckThin`].
    pub acks_thinned: u64,
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
    /// Stages on per ingress interface, `None` for every ingress.
    stages: Vec<(Option<IfaceId>, StageSet)>,
    /// What the router did, counted.
    pub counters: RouterCounters,
    /// Test-only fault: [`Stage::Split`] corrupts its second half, a bug
    /// for the fuzzer's broken-build detection ([`rewrite::split_segment`]).
    #[doc(hidden)]
    pub buggy_split: bool,
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
            stages: Vec::new(),
            counters: RouterCounters::default(),
            buggy_split: false,
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

    /// Switch `stage` on or off for the TCP segments arriving on `iface`,
    /// or with `None` for those arriving on every ingress, so both ways.
    /// A stage acts on a segment when it is on for the segment's ingress
    /// or for every ingress (with two [`Stage::AckThin`] periods, the
    /// longer).
    pub fn middlebox(&mut self, iface: Option<IfaceId>, stage: Stage, on: bool) {
        let found = self.stages.iter().position(|&(key, _)| key == iface);
        let k = found.unwrap_or_else(|| {
            self.stages.push((iface, StageSet::default()));
            self.stages.len() - 1
        });
        let (slot, value) = match stage {
            Stage::StripMptcp => (STRIP, 1),
            Stage::SeqNat => (SEQ_NAT, 1),
            Stage::Split => (SPLIT, 1),
            Stage::Coalesce => (COALESCE, 1),
            Stage::AckThin(n) => (THIN, n),
        };
        self.stages[k].1[slot] = if on { value } else { 0 };
    }

    /// The stages on for segments arriving on `ingress`.
    fn stages_on(&self, ingress: IfaceId) -> StageSet {
        let mut on = StageSet::default();
        for (key, set) in &self.stages {
            if key.is_none_or(|i| i == ingress) {
                on.iter_mut().zip(set).for_each(|(o, &s)| *o = (*o).max(s));
            }
        }
        on
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
    fn thin_this_ack(&mut self, pkt: &Packet, period: u32) -> bool {
        let key = pkt.flow_key();
        if self.fin_seen.contains(&key) || self.fin_seen.contains(&key.reversed()) {
            return false;
        }
        let c = self.ack_counters.entry(key).or_insert(0);
        *c += 1;
        *c % period == 0
    }

    /// Flush one held segment (by position in the pending list).
    fn flush_pending(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let (_, held) = self.pending.remove(idx);
        self.counters.forwarded += 1;
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
                    self.counters.segments_coalesced += 1;
                    self.counters.forwarded += 1;
                    ctx.send(held.egress, held.pkt);
                    return true;
                }
                None => {
                    // Not contiguous: flush the held segment in order,
                    // then treat the newcomer as a fresh candidate.
                    self.counters.forwarded += 1;
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
            self.counters.ttl_drops += 1;
            return;
        }
        pkt.ttl -= 1;
        let stages = self.stages_on(in_iface);
        if pkt.proto == PROTO_TCP {
            if stages[STRIP] > 0 {
                if let Some((cleaned, n)) = rewrite::strip_mptcp_options(&pkt.payload) {
                    pkt.payload = cleaned;
                    self.counters.options_stripped += n as u64;
                }
            }
            if stages[SEQ_NAT] > 0 {
                let (fwd, rev) = self.nat_deltas(&pkt);
                if let Some(rewritten) = rewrite::rewrite_seq_ack(&pkt.payload, fwd, rev) {
                    pkt.payload = rewritten;
                    self.counters.seq_rewritten += 1;
                }
            }
            // FINs are tracked on every ingress while any thins, so a
            // close is exempt whichever side sends the FIN.
            if self.stages.iter().any(|(_, set)| set[THIN] > 0) {
                if let Ok(seg) = TcpView::parse(&pkt.payload) {
                    // A pure ACK: ACK set, no payload, no SYN/FIN/RST.
                    // Option-bearing ones (MPTCP DSS data-acks) count too:
                    // TCP and DSS acknowledgements are both cumulative.
                    let f = seg.hdr.flags;
                    let pure_ack = f.ack && !(f.syn || f.fin || f.rst) && seg.payload.is_empty();
                    if pure_ack && stages[THIN] > 0 && self.thin_this_ack(&pkt, stages[THIN]) {
                        self.counters.acks_thinned += 1;
                        return;
                    }
                    if f.fin {
                        self.fin_seen.insert(pkt.flow_key());
                    }
                }
            }
        }
        match self.select_egress_cached(&pkt) {
            // A route pointing back out of the ingress interface would
            // loop the packet on a point-to-point link; treat as no route.
            Some(egress) if egress != in_iface => {
                if pkt.proto == PROTO_TCP
                    && stages[COALESCE] > 0
                    && self.coalesce(ctx, egress, &pkt)
                {
                    return;
                }
                if pkt.proto == PROTO_TCP && stages[SPLIT] > 0 {
                    if let Some((a, b)) = rewrite::split_segment(&pkt.payload, self.buggy_split) {
                        self.counters.segments_split += 1;
                        self.counters.forwarded += 2;
                        let mut first = pkt.clone();
                        first.payload = a;
                        pkt.payload = b;
                        ctx.send(egress, first);
                        ctx.send(egress, pkt);
                        return;
                    }
                }
                self.counters.forwarded += 1;
                ctx.send(egress, pkt);
            }
            _ => self.counters.no_route += 1,
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
        // Turning a coalescer off on any ingress flushes every held segment.
        if let NodeCommand::Middlebox { iface, stage, on } = *cmd {
            self.middlebox(iface, stage, on);
            if stage == Stage::Coalesce && !on {
                self.flush_all_pending(ctx);
            }
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

    /// A segment from `src`:`sport` to `dst`:`dport` whose one option is
    /// a 4-byte MPTCP one (kind 30).
    fn mptcp_seg(src: Addr, dst: Addr, sport: u16, dport: u16) -> Packet {
        let hdr = TcpFixed {
            src_port: sport,
            dst_port: dport,
            ..TcpFixed::default()
        };
        let mut opts = OptionWriter::new();
        opts.push(OPT_KIND_MPTCP, &[0x20, 0]);
        Packet::tcp(src, dst, encode_parts(&hdr, &opts, Bytes::new()).unwrap())
    }

    /// The ports of each packet and the bytes of its options area.
    fn ports_and_options(got: &[Packet]) -> Vec<((u16, u16), usize)> {
        let options = |p: &Packet| (p.payload.head()[12] >> 4) as usize * 4 - TCP_HEADER_LEN;
        got.iter().map(|p| (p.ports(), options(p))).collect()
    }

    const A: Addr = Addr::new(10, 0, 0, 1);
    const B: Addr = Addr::new(10, 1, 0, 1);

    #[test]
    fn stripping_router_removes_mptcp_options_from_forwarded_tcp() {
        // Through a real simulator, so the rewrite happens on the
        // forwarding path, not in isolation.
        let pkt = mptcp_seg(A, B, 1, 2);
        let (got, router) = forward_through(&[(None, Stage::StripMptcp)], vec![pkt]);
        assert_eq!(router.counters.options_stripped, 1);
        assert_eq!(ports_and_options(&got), [((1, 2), 0)], "options gone");
    }

    /// A stage scripted onto one ingress acts on what arrives there only:
    /// on host A's port it strips A→B segments and lets B→A ones through
    /// intact; on every ingress it strips both ways.
    #[test]
    fn a_stage_on_one_ingress_acts_one_way() {
        let both = || vec![mptcp_seg(A, B, 1, 2), mptcp_seg(B, A, 2, 1)];
        let (got, r) = forward_through(&[(Some(PORT_A), Stage::StripMptcp)], both());
        assert_eq!(r.counters.options_stripped, 1);
        assert_eq!(ports_and_options(&got), [((1, 2), 0), ((2, 1), 4)]);
        let (got, r) = forward_through(&[(None, Stage::StripMptcp)], both());
        assert_eq!(r.counters.options_stripped, 2);
        assert_eq!(ports_and_options(&got), [((1, 2), 0), ((2, 1), 0)]);
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

    /// The router's ports in [`forward_through`]'s world: toward host A
    /// (10.0.0.1) and toward host B (10.1.0.1).
    const PORT_A: IfaceId = IfaceId(0);
    const PORT_B: IfaceId = IfaceId(1);

    /// Drive `pkts` through a router whose `stages` a script switches on
    /// at t = 0, each on one ingress or (`None`) on every ingress. Host A
    /// sends the packets addressed into 10.1.0.0/16, host B the others.
    /// Returns what came out, B's arrivals first, and the router for
    /// counter inspection.
    fn forward_through(
        stages: &[(Option<IfaceId>, Stage)],
        pkts: Vec<Packet>,
    ) -> (Vec<Packet>, Router) {
        use crate::netem::{Netem, NetemScript};
        let b_net: AddrPrefix = "10.1.0.0/16".parse().unwrap();
        let (to_b, to_a) = pkts.into_iter().partition(|p| b_net.contains(p.dst));
        let mut sim = crate::Simulator::new(0);
        let rid = sim.add_node(Box::new(Router::new(0)));
        let host = |out| {
            Box::new(Host {
                out,
                got: Vec::new(),
            })
        };
        let host_b = sim.add_node(host(to_a));
        let r_in = sim.add_iface(rid, Addr::new(10, 0, 0, 254), "in");
        let r_out = sim.add_iface(rid, Addr::new(10, 1, 0, 254), "out");
        assert_eq!((r_in, r_out), (PORT_A, PORT_B));
        let b_if = sim.add_iface(host_b, B, "eth0");
        let host_a = sim.add_node(host(to_b));
        let a_if = sim.add_iface(host_a, A, "eth0");
        sim.connect(a_if, r_in, crate::link::LinkCfg::mbps_ms(100, 1));
        sim.connect(r_out, b_if, crate::link::LinkCfg::mbps_ms(100, 1));
        sim.with_node(rid, |r: &mut Router, _| {
            r.add_route(b_net, vec![r_out]);
            r.add_route("10.0.0.0/16".parse().unwrap(), vec![r_in]);
        });
        let mut script = NetemScript::new();
        for &(iface, stage) in stages {
            let on = Netem::peer(rid).middlebox(iface, stage, true);
            script.add(crate::SimTime::ZERO, on);
        }
        sim.install(script, crate::InstallPolicy::Sort).unwrap();
        sim.run();
        let mut got = Vec::new();
        for id in [host_b, host_a] {
            got.append(
                &mut sim
                    .with_node(id, |h: &mut Host, _| std::mem::take(&mut h.got))
                    .unwrap(),
            );
        }
        let router = sim.with_node(rid, |r: &mut Router, _| {
            std::mem::replace(r, Router::new(0))
        });
        (got, router.unwrap())
    }

    #[test]
    fn splitting_router_halves_data_segments_on_the_path() {
        let (got, r) = forward_through(
            &[(None, Stage::Split)],
            vec![data_seg(1000, TcpFlags::PSH_ACK, b"abcdefgh")],
        );
        assert_eq!(r.counters.segments_split, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcd");
        assert_eq!(&got[1].payload.slice_from(20)[..], b"efgh");
        let seq1 = u32::from_be_bytes(got[1].payload.head()[4..8].try_into().unwrap());
        assert_eq!(seq1, 1004);
    }

    #[test]
    fn coalescing_router_merges_contiguous_segments() {
        let (got, r) = forward_through(
            &[(None, Stage::Coalesce)],
            vec![
                data_seg(1000, TcpFlags::ACK, b"abcd"),
                data_seg(1004, TcpFlags::PSH_ACK, b"efgh"),
            ],
        );
        assert_eq!(r.counters.segments_coalesced, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcdefgh");
    }

    #[test]
    fn coalescing_router_flushes_a_lone_segment_on_its_timer() {
        let (got, r) = forward_through(
            &[(None, Stage::Coalesce)],
            vec![data_seg(1000, TcpFlags::ACK, b"abcd")],
        );
        assert_eq!(r.counters.segments_coalesced, 0);
        assert_eq!(got.len(), 1, "flush timer released the held segment");
        assert_eq!(&got[0].payload.slice_from(20)[..], b"abcd");
    }

    #[test]
    fn seq_nat_router_shifts_seq_consistently_per_flow() {
        let (got, r) = forward_through(
            &[(None, Stage::SeqNat)],
            vec![
                data_seg(1000, TcpFlags::ACK, b"ab"),
                data_seg(1002, TcpFlags::ACK, b"cd"),
            ],
        );
        assert_eq!(r.counters.seq_rewritten, 2);
        let s0 = u32::from_be_bytes(got[0].payload.head()[4..8].try_into().unwrap());
        let s1 = u32::from_be_bytes(got[1].payload.head()[4..8].try_into().unwrap());
        assert_ne!(s0, 1000, "ISN shifted");
        assert_eq!(s1.wrapping_sub(s0), 2, "same delta for the whole flow");
    }

    #[test]
    fn ack_thinning_drops_every_nth_but_spares_fin_exchanges() {
        let pure_ack = || data_seg(2000, TcpFlags::ACK, b"");
        let (got, r) = forward_through(
            &[(None, Stage::AckThin(2))],
            vec![pure_ack(), pure_ack(), pure_ack(), pure_ack()],
        );
        assert_eq!(r.counters.acks_thinned, 2, "every 2nd pure ACK dropped");
        assert_eq!(got.len(), 2);
        // After a FIN passes, the same flow's ACKs are exempt.
        let (got, r) = forward_through(
            &[(None, Stage::AckThin(2))],
            vec![
                data_seg(3000, TcpFlags::FIN_ACK, b"x"),
                pure_ack(),
                pure_ack(),
                pure_ack(),
            ],
        );
        assert_eq!(r.counters.acks_thinned, 0, "FIN exchange never thinned");
        assert_eq!(got.len(), 4);
    }

    /// The ACK thinner's pure-ACK test, through a router that drops every
    /// one it finds: ACK set, no payload, no SYN/FIN/RST, and a segment
    /// the shared reader accepts.
    #[test]
    fn pure_ack_classifier() {
        let thinned = |pkt: Packet| {
            let (_, r) = forward_through(&[(None, Stage::AckThin(1))], vec![pkt]);
            r.counters.acks_thinned == 1
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
