//! Tier-1 allocator-pressure regression test.
//!
//! Installs the counting allocator and re-runs the smoke matrix, asserting
//! that each `scenario/variant` row's allocations per simulated event stay
//! under the ceiling its scenario commits to
//! ([`smapp_bench::scenarios::Scenario::ALLOC_CEILING`]) — the same figure
//! `perf_report` prints as `allocs/ev`, re-measured from scratch on every
//! `cargo test`. Allocation counts are deterministic per cell (unlike
//! wall-clock), so the assertions hold in debug builds too.
//!
//! The second part proves the protocol-invariant oracle itself is
//! allocation-free on its clean path: a synthetic clean trace stream
//! (valid TCP segments carrying DSS mappings, link-conserving event
//! order) must not allocate at all after the first-packet warmup.
//!
//! The third part is the memory guard: the `fleet` smoke cell's live-heap
//! high-water mark, from the same allocator's byte counters, must stay
//! under a committed ceiling — no clock and no `/proc` involved.
//!
//! The fourth pins what one more connection costs: each chained GET of the
//! `fig3` smoke cell after the first two must stay under a committed
//! number of allocations, because connection state is recycled.
//!
//! The fifth pins the wire-buffer pool's contract: a miss costs exactly
//! one allocation, a hit none, and buffers retired after a burst serve the
//! next burst of the same size.
//!
//! The sixth pins what a world costs once another has run on its thread:
//! its connections start on the storage the first world's stacks gave
//! back, including the connections still open when that world ended.
//!
//! The seventh pins the per-thread drive scratch: hosts driven one after
//! another on one thread grow it once, not once per host, and their lines,
//! which never queue, allocate no queue ring.
//!
//! The eighth pins the control path: a controller's round trip (timer,
//! `GET_INFO` down, the reply up, `on_info`, a command down and its ack)
//! allocates nothing once one has run.
//!
//! All eight measurements live in ONE `#[test]` so nothing else in this
//! binary allocates concurrently while a window is being measured.

use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use smapp::{controller_of, ControlApi, ControllerRuntime, SubflowController};
use smapp_bench::count_alloc::{self, CountingAlloc};
use smapp_bench::perf::paper_matrix;
use smapp_bench::scenarios::fig3::{Fig3, Params};
use smapp_bench::scenarios::{Scenario, REGISTRY};
use smapp_bench::sweep::Matrix;
use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{ConnToken, PmAction, PmEvent, StackConfig, SubflowId};
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::Host;
use smapp_sim::trace::{TraceEvent, TraceKind, TraceSink};
use smapp_sim::wire::{encode_parts, OptionWriter, TcpFixed, TcpFlags, OPT_KIND_MPTCP};
use smapp_sim::{Addr, Dir, IfaceId, LinkCfg, LinkId, NodeId, Oracle, Packet, SimTime, Simulator};
use smapp_tcp::TcpInfo;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most heap the `fleet` smoke cell (60 clients, one 32 KiB GET each) may
/// hold at once, in bytes above what was live when it started. Measured
/// 1 529 197 once drive scratch was per thread, connection and subflow
/// storage sized to use, idle lines ringless and flight entries 64 bytes,
/// against 1 963 777 before — the event queue's fixed tables (66 KiB a
/// world) included. The ceiling is 1.5x that measurement.
const FLEET_SMOKE_LIVE_CEILING: u64 = 2_290_000;

/// Most heap blocks one more chained GET of the `fig3` smoke cell may
/// allocate once two have run: the client's and the server's connection
/// and subflows start on what earlier ones gave up to the thread's
/// spares. Measured 8–13 per connection while each stack kept its own
/// spares, against 42–47 before spares existed; the ceiling is 1.5x the
/// highest. With one set per thread it measures 8–19: connections 3–6
/// still grow rings that the client and the server sized differently.
const FIG3_CONN_ALLOC_CEILING: u64 = 19;

/// Most heap blocks the `fig2c/refresh` smoke cell may allocate when it
/// runs a second time on one thread. Its connection is still open when
/// the world ends, and the dropped stacks give its storage to the thread.
/// Measured 191 (582 the first time), against 205 when each stack kept
/// its own spares; the ceiling is 1.5x the measured value.
const FIG2C_SECOND_WORLD_ALLOC_CEILING: u64 = 287;

/// A valid 36-byte TCP header (offset 9 words) with one kind-30 DSS
/// option carrying a mapping for `payload_len` bytes, followed by that
/// payload. The oracle's clean path walks exactly this shape on every
/// data segment of a real run.
fn dss_data_segment(payload_len: usize) -> Bytes {
    let hdr = TcpFixed {
        src_port: 4000,
        dst_port: 80,
        flags: TcpFlags::ACK,
        ..TcpFixed::default()
    };
    // Subtype DSS (0x2), flags 0x04 (mapping present, 4-byte DSN), then
    // DSN(4) SSN(4) len(2); the writer pads the 14-byte option with two
    // NOPs.
    let mut dss = [0u8; 12];
    dss[..2].copy_from_slice(&[0x20, 0x04]);
    dss[10..].copy_from_slice(&(payload_len as u16).to_be_bytes());
    let mut opts = OptionWriter::new();
    opts.push(OPT_KIND_MPTCP, &dss);
    encode_parts(&hdr, &opts, &vec![0u8; payload_len]).unwrap()
}

/// Drive one packet through the conserving event sequence the simulator
/// emits: Send at the host, Enqueue/TxStart on the link, Deliver at the
/// far end.
fn record_clean_hop(oracle: &mut Oracle, pkt: &Packet, t_us: u64) {
    let kinds = [
        TraceKind::Send {
            node: NodeId(0),
            iface: IfaceId(0),
        },
        TraceKind::Enqueue {
            link: LinkId(0),
            dir: Dir::AtoB,
        },
        TraceKind::TxStart {
            link: LinkId(0),
            dir: Dir::AtoB,
        },
        TraceKind::Deliver {
            link: LinkId(0),
            iface: IfaceId(1),
            node: NodeId(1),
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        oracle.record(&TraceEvent {
            at: SimTime::from_micros(t_us + i as u64),
            kind,
            pkt,
        });
    }
}

/// Opens a second subflow once its connection is established, then every
/// 10 ms queries both and answers each reply with a command: the second
/// subflow stays a regular one.
#[derive(Default)]
struct Poller {
    token: Option<ConnToken>,
    /// Replies seen, and `(connection-level info present, subflows)` of
    /// the last one.
    replies: u64,
    last: (bool, usize),
}

impl SubflowController for Poller {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        if let PmEvent::ConnEstablished {
            token,
            tuple,
            is_client: true,
        } = *ev
        {
            api.open_subflow(token, CLIENT_ADDR2, 0, tuple.dst, tuple.dst_port, false);
            self.token = Some(token);
            api.set_timer(Duration::from_millis(10), 0);
        }
    }
    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, _: u64) {
        api.get_info(self.token.unwrap(), None, 0);
        api.set_timer(Duration::from_millis(10), 0);
    }
    fn on_info(
        &mut self,
        api: &mut ControlApi<'_, '_>,
        _: u64,
        token: ConnToken,
        conn: Option<(u64, u64)>,
        subflows: &[(SubflowId, TcpInfo)],
    ) {
        self.replies += 1;
        self.last = (conn.is_some(), subflows.len());
        let (id, backup) = (1, false);
        api.act(PmAction::SetBackup { token, id, backup });
    }
}

#[test]
fn scenarios_stay_under_committed_alloc_ceilings_and_oracle_is_clean() {
    // ---- Part 1: every matrix row under its scenario's ceiling. ----
    // jobs = 1: the process-wide counter is exact when cells run one at
    // a time.
    let matrix = paper_matrix(true);
    let results = matrix.run(1);
    assert!(!results.is_empty(), "smoke matrix produced no cells");

    for entry in &matrix.entries {
        let (scenario, variant) = (entry.scenario, entry.variant);
        let cells = results
            .iter()
            .filter(|r| r.scenario == scenario && r.variant == variant);
        let (allocs, events) =
            cells.fold((0, 0), |(a, e), r| (a + r.allocs, e + r.run.summary.events));
        let name = format!("{scenario}/{variant}");
        let ceiling = REGISTRY
            .iter()
            .find(|s| s.name == scenario)
            .unwrap()
            .alloc_ceiling;
        assert!(events > 0, "row {name} processed zero events");
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= ceiling,
            "row {name}: {per_event:.3} allocs/event breaches the \
             committed ceiling {ceiling:.2} ({allocs} allocations over \
             {events} events) — the hot path regressed allocator pressure"
        );
    }

    // ---- Part 2: the oracle's clean path allocates nothing. ----
    let mut oracle = Oracle::new();
    let pkt = Packet::tcp(
        Addr::new(1, 0, 0, 1),
        Addr::new(1, 0, 0, 2),
        dss_data_segment(1000),
    );
    // Warmup: the first hop may grow the per-link ledger.
    record_clean_hop(&mut oracle, &pkt, 0);

    let before = count_alloc::allocs();
    for i in 1..=10_000u64 {
        record_clean_hop(&mut oracle, &pkt, i * 10);
    }
    let after = count_alloc::allocs();
    assert!(
        oracle.is_clean(),
        "synthetic clean stream raised violations: {:?}",
        oracle.violations()
    );
    assert_eq!(
        after - before,
        0,
        "Oracle::record allocated {} times across 40,000 clean-path events \
         — the always-on oracle must be free on the clean path",
        after - before
    );

    // ---- Part 3: what the fleet holds at its worst moment. ----
    // First the instrument: nothing else allocates in this binary, so the
    // byte counters move by exactly what this thread does.
    let before = count_alloc::live_bytes();
    count_alloc::reset_peak();
    let block = vec![0u8; 1 << 20];
    assert_eq!(count_alloc::live_bytes() - before, 1 << 20);
    drop(block);
    assert_eq!(count_alloc::live_bytes(), before);
    assert_eq!(count_alloc::peak_live_bytes() - before, 1 << 20);

    // The fleet smoke cell, alone on a thread of its own so that its
    // `Bytes` pool starts empty whatever parts 1 and 2 left in this one's.
    let fleet = REGISTRY.iter().find(|s| s.name == "fleet").unwrap();
    let alone = Matrix {
        entries: (fleet.entries)(true),
    };
    let cells = std::thread::spawn(move || alone.run(1)).join().unwrap();
    let held = cells[0].peak_live_bytes;
    assert!(
        held <= FLEET_SMOKE_LIVE_CEILING,
        "fleet smoke cell held {held} bytes of heap at its high-water mark, \
         above the committed ceiling {FLEET_SMOKE_LIVE_CEILING} — \
         per-connection memory regressed"
    );

    // ---- Part 4: what one more connection costs, once two have run. ----
    // The cell's run with `gets` GETs repeats the run with one fewer up to
    // its last connection, so the difference is that connection's count.
    // Each run gets a thread of its own, and so an empty `Bytes` pool.
    let row = Fig3::rows(true).remove(0);
    let allocs_with = |gets: u32| {
        let params = Params {
            gets,
            ..row.params.clone()
        };
        let seed = row.seeds[0];
        std::thread::spawn(move || {
            let before = count_alloc::allocs();
            let run = Fig3::run(&params, seed);
            let allocs = count_alloc::allocs() - before;
            assert_eq!(run.results.completed, gets);
            allocs
        })
        .join()
        .unwrap()
    };
    let counts: Vec<u64> = (2..=row.params.gets).map(allocs_with).collect();
    let per_conn = counts.windows(2).map(|w| w[1] - w[0]);
    for (i, n) in per_conn.enumerate() {
        assert!(
            n <= FIG3_CONN_ALLOC_CEILING,
            "fig3 smoke connection {} allocated {n} blocks, above the \
             committed {FIG3_CONN_ALLOC_CEILING} — connection state is no \
             longer recycled",
            i + 3
        );
    }

    // ---- Part 5: a wire buffer costs one allocation, once. ----
    // On a thread of its own, so the `Bytes` pool starts empty.
    let (first, warm, again) = std::thread::spawn(|| {
        let wire_buffer = || {
            let mut m = BytesMut::with_capacity(1460);
            m.put_slice(&[0xA5; 1460]);
            m.freeze()
        };
        let before = count_alloc::allocs();
        drop(wire_buffer());
        let first = count_alloc::allocs() - before;
        let before = count_alloc::allocs();
        for _ in 0..1000 {
            drop(wire_buffer());
        }
        let warm = count_alloc::allocs() - before;
        let mut held = Vec::with_capacity(2000);
        held.extend((0..2000).map(|_| wire_buffer()));
        held.clear();
        let before = count_alloc::allocs();
        held.extend((0..2000).map(|_| wire_buffer()));
        held.clear();
        (first, warm, count_alloc::allocs() - before)
    })
    .join()
    .unwrap();
    assert_eq!(
        (first, warm, again),
        (1, 0, 0),
        "a fresh thread's first wire buffer must cost one allocation, the \
         next 1 000 none, and 2 000 held at once none the second time"
    );

    // ---- Part 6: a second world starts on what the first gave back. ----
    // On a thread of its own, so both runs share one set of spares that
    // nothing else has touched.
    let fig2c = REGISTRY.iter().find(|s| s.name == "fig2c").unwrap();
    let entry = (fig2c.entries)(true).remove(0);
    assert_eq!(entry.variant, "refresh");
    let seed = entry.seeds[0];
    let (first, second) = std::thread::spawn(move || {
        let run = || {
            let before = count_alloc::allocs();
            drop((entry.build)(seed));
            count_alloc::allocs() - before
        };
        (run(), run())
    })
    .join()
    .unwrap();
    assert!(
        second <= FIG2C_SECOND_WORLD_ALLOC_CEILING,
        "fig2c/refresh smoke cell allocated {second} blocks the second time \
         on its thread ({first} the first), above the committed \
         {FIG2C_SECOND_WORLD_ALLOC_CEILING} — connection storage no longer \
         outlives the world"
    );

    // ---- Part 7: the drive scratch is the thread's, not each host's. ----
    // One sender and 40 hosts, each on a line of its own. Each host in turn
    // gets a stray ACK, 10 ms after the one before, and answers it with a
    // RST. The first host's turn grows the thread's drive scratch; every
    // later host is driven for the first time on that same scratch.
    let (later, rsts) = std::thread::spawn(|| {
        let mut sim = Simulator::new(1);
        let cfg = StackConfig::default;
        let sender = sim.add_node(Box::new(Host::new("sender", cfg())));
        let ack = TcpFixed {
            src_port: 80,
            dst_port: 4000,
            flags: TcpFlags::ACK,
            ..TcpFixed::default()
        };
        let stray = encode_parts(&ack, &OptionWriter::new(), &[]).unwrap();
        let mut hosts = Vec::new();
        for i in 0..40u8 {
            let host = sim.add_node(Box::new(Host::new(format!("h{i}"), cfg())));
            let (addr, peer) = (Addr::new(10, 1, i, 1), Addr::new(10, 2, i, 1));
            let line = sim.add_iface(host, addr, "eth0");
            let out = sim.add_iface(sender, peer, format!("eth{i}"));
            sim.connect(line, out, LinkCfg::mbps_ms(100, 1));
            let seg = stray.clone();
            let at = SimTime::from_millis(10 * (u64::from(i) + 1));
            sim.at(at, move |core| {
                core.send_from(out, Packet::tcp(peer, addr, seg.clone()))
            });
            hosts.push(host);
        }
        // Every host's start, then the first host's turn.
        sim.run_until(SimTime::from_millis(15));
        let before = count_alloc::allocs();
        sim.run();
        let later = count_alloc::allocs() - before;
        let rsts: Vec<u64> = hosts
            .iter()
            .map(|&h| sim.node(h).as_any().downcast_ref::<Host>().unwrap())
            .map(|h| h.stack.rst_sent)
            .collect();
        (later, rsts)
    })
    .join()
    .unwrap();
    assert_eq!(rsts, vec![1; 40], "every host answers its stray ACK");
    assert_eq!(
        later, 0,
        "39 hosts driven for the first time after one other allocated \
         {later} blocks — drive scratch is kept per host again, or an idle \
         line allocates a queue ring"
    );

    // ---- Part 8: a warm controller round trip allocates nothing. ----
    // A two-subflow connection whose 20 kB transfer is over by 1 s, its
    // controller polling every 10 ms behind sampled netlink latency; the
    // third simulated second holds 100 round trips and nothing else. (The
    // second would hold one allocation: the simulator's timer free list
    // growing once, at 1.023 s, not the control path.)
    let (replies, last, allocs) = std::thread::spawn(|| {
        let ctl = ControllerRuntime::boxed(Poller::default());
        let mut client =
            Host::new("client", StackConfig::default()).with_user(ctl, LatencyModel::idle_host());
        let app = BulkSender::new(20_000);
        client.connect_at(
            SimTime::from_millis(10),
            None,
            SERVER_ADDR,
            80,
            Box::new(app),
        );
        let mut server = Host::new("server", StackConfig::default());
        server.listen(80, Box::new(|| Box::new(Sink::default())));
        let path = LinkCfg::mbps_ms(5, 10);
        let net = topo::two_path(1, client, server, path.clone(), path);
        let mut sim = net.sim;
        let poller = |sim: &Simulator| {
            let host = topo::host(sim, net.client);
            let p = controller_of::<Poller>(host).unwrap();
            (p.replies, p.last)
        };
        sim.run_until(SimTime::from_secs(2));
        let (warm, _) = poller(&sim);
        let before = count_alloc::allocs();
        sim.run_until(SimTime::from_secs(3));
        let allocs = count_alloc::allocs() - before;
        let (replies, last) = poller(&sim);
        assert!(warm > 0, "the controller polled before the window");
        (replies - warm, last, allocs)
    })
    .join()
    .unwrap();
    assert_eq!(
        (replies, last),
        (100, (true, 2)),
        "100 replies in the window, each with the connection and both subflows"
    );
    assert_eq!(
        allocs, 0,
        "100 warm controller round trips (timer, GET_INFO, reply, on_info, \
         command, ack) allocated {allocs} blocks — the control path \
         allocates again"
    );
}
