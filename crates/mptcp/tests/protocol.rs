//! Protocol-level integration tests: multiple subflows, backup semantics,
//! reinjection, break-before-make, address signalling, fallback.
//!
//! These drive two stack nodes across a router in a simulated world, under
//! the oracle, applying path-manager actions directly (the real path managers live in
//! `smapp-pm`; the SMAPP controllers in `smapp`).

use std::time::Duration;

use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{
    ConnState, ConnToken, NullApp, PmAction, PmEvent, SfState, StackConfig, SubflowError,
};
use smapp_sim::{Addr, SimTime};

mod common;
use common::{Side, World};

const A1: Addr = Addr::new(10, 0, 0, 1);
const A2: Addr = Addr::new(10, 0, 2, 1);
const B1: Addr = Addr::new(10, 0, 1, 1);
const B2: Addr = Addr::new(10, 0, 3, 1);

fn closing_sink() -> Box<dyn smapp_mptcp::App> {
    Box::new(Sink {
        close_on_eof: true,
        ..Default::default()
    })
}

fn two_addr_world(seed: u64) -> World {
    two_addr_world_with(seed, StackConfig::default())
}

/// Two addresses on A with `cfg_a`, one on B, which listens on port 80.
fn two_addr_world_with(seed: u64, cfg_a: StackConfig) -> World {
    let addrs = [&[A1, A2][..], &[B1]];
    let mut h = World::with_configs(
        seed,
        Duration::from_millis(10),
        addrs,
        [cfg_a, Default::default()],
    );
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    h
}

#[test]
fn mp_join_adds_second_subflow() {
    let mut h = two_addr_world(1);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));

    assert!(h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
    h.run_until(SimTime::from_millis(300));

    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.live_subflow_ids(), vec![0, 1]);
    assert_eq!(conn.subflow(1).unwrap().state, SfState::Established);
    // Server sees two subflows on its (single) connection as well.
    let sconn = h.b().connections().next().unwrap();
    assert_eq!(sconn.live_subflow_ids().len(), 2);
    // Join handshake authenticated: the subflow's tuple uses A2.
    assert_eq!(conn.subflow(1).unwrap().tuple.src, A2);
}

#[test]
fn join_with_bad_token_is_refused() {
    let mut h = two_addr_world(2);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    // Claim a bogus remote: open toward a port with no matching token by
    // connecting to the right port but corrupting is impossible from the
    // public API — instead verify that a second *connection's* join stays
    // separate: open a subflow on a dead token.
    assert!(!h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token: token.wrapping_add(1),
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
}

#[test]
fn round_robin_spreads_data_over_subflows() {
    let cfg = StackConfig {
        scheduler: "round-robin",
        ..Default::default()
    };
    let mut h = two_addr_world_with(3, cfg);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(2_000_000).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(50));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    );
    h.run_until(SimTime::from_secs(60));
    let conn = h.a().conn_by_token(token).unwrap();
    let s0 = conn.subflow_info(0).unwrap();
    let s1 = conn.subflow_info(1).unwrap();
    assert!(s0.bytes_acked > 100_000, "subflow 0 carried data: {s0:?}");
    assert!(s1.bytes_acked > 100_000, "subflow 1 carried data: {s1:?}");
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, 2_000_000);
}

#[test]
fn backup_subflow_idle_until_primary_dies() {
    let mut h = two_addr_world(4);
    h.set_rate(Side::A, 10_000_000);
    h.set_rate(Side::B, 10_000_000);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(3_000_000).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(50));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: true,
        },
    );
    h.run_until(SimTime::from_millis(400));
    {
        let conn = h.a().conn_by_token(token).unwrap();
        let backup = conn.subflow_info(1).unwrap();
        assert!(backup.backup);
        assert_eq!(
            backup.bytes_acked, 0,
            "backup must not carry data while the primary lives"
        );
    }
    // Kill the primary with an RST-style close.
    h.apply(
        Side::A,
        &PmAction::CloseSubflow {
            token,
            id: 0,
            reset: true,
        },
    );
    h.run_until(SimTime::from_secs(120));
    let conn = h.a().conn_by_token(token).unwrap();
    let backup = conn.subflow_info(1).unwrap();
    assert!(
        backup.bytes_acked > 0,
        "backup takes over after the primary dies"
    );
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, 3_000_000, "no data lost across the switchover");
}

#[test]
fn blackhole_triggers_rto_reinjection() {
    // Two subflows; a loss window destroys in-flight data. Each RTO makes
    // the victim's in-flight meta ranges eligible for reinjection (while
    // the subflow keeps retransmitting them itself) - the paper's §4.3
    // mechanism. After the network heals the transfer completes and the
    // reinjection counter shows connection-level recovery happened.
    let mut h = two_addr_world(5);
    h.set_rate(Side::A, 10_000_000);
    h.set_rate(Side::B, 10_000_000);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(2_000_000).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(50));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    );
    // Let data flow on both, then blackhole for one second.
    h.run_until(SimTime::from_millis(400));
    h.set_loss(Side::A, 1.0);
    h.set_loss(Side::B, 1.0);
    h.run_until(SimTime::from_millis(1400));
    h.set_loss(Side::A, 0.0);
    h.set_loss(Side::B, 0.0);
    h.run_until(SimTime::from_secs(120));
    let conn = h.a().conn_by_token(token).unwrap();
    assert!(
        conn.stats.reinjections > 0,
        "lost in-flight data must be reinjected at the connection level"
    );
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, 2_000_000);
}

#[test]
fn rto_exhaustion_fires_timeout_events_then_kills() {
    // Short give-up for test speed: 5 doublings.
    let mut cfg = StackConfig::default();
    cfg.rto.max_retries = 5;
    let mut h = two_addr_world_with(6, cfg);
    h.record(Side::A);
    h.set_rate(Side::A, 10_000_000);
    h.set_rate(Side::B, 10_000_000);
    let token = h
        .connect(Side::A, 80, Box::new(BulkSender::new(5_000_000)))
        .unwrap();
    h.run_until(SimTime::from_millis(500));
    // Blackhole both directions: every retransmission is lost.
    h.set_loss(Side::A, 1.0);
    h.set_loss(Side::B, 1.0);
    h.run_until(SimTime::from_secs(120));
    let pm = h.recorded(Side::A);
    let timeouts = pm.count(|e| matches!(e, PmEvent::RtoExpired { .. }));
    assert!(
        timeouts >= 4,
        "each expiry raises the paper's `timeout` event (got {timeouts})"
    );
    // Timer values grow (exponential backoff visible to the controller).
    let rtos: Vec<Duration> = pm
        .events
        .iter()
        .filter_map(|e| match e {
            PmEvent::RtoExpired { current_rto, .. } => Some(*current_rto),
            _ => None,
        })
        .collect();
    assert!(rtos.windows(2).all(|w| w[1] >= w[0]));
    assert_eq!(
        pm.count(|e| matches!(
            e,
            PmEvent::SubflowClosed {
                error: SubflowError::Timeout,
                ..
            }
        )),
        1,
        "subflow killed after max_retries"
    );
    // The connection survives with zero subflows (break-before-make base).
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.state, ConnState::Established);
    assert!(conn.live_subflow_ids().is_empty());
}

#[test]
fn break_before_make_resumes_on_new_subflow() {
    let mut cfg = StackConfig::default();
    cfg.rto.max_retries = 4;
    let mut h = two_addr_world_with(7, cfg);
    h.set_rate(Side::A, 10_000_000);
    h.set_rate(Side::B, 10_000_000);
    let total = 1_000_000u64;
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(300));
    // Blackhole until the lone subflow dies.
    h.set_loss(Side::A, 1.0);
    h.set_loss(Side::B, 1.0);
    h.run_until(SimTime::from_secs(60));
    assert!(h
        .a()
        .conn_by_token(token)
        .unwrap()
        .live_subflow_ids()
        .is_empty());
    // Network heals; controller opens a fresh subflow from the other addr.
    h.set_loss(Side::A, 0.0);
    h.set_loss(Side::B, 0.0);
    assert!(h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
    h.run_until(SimTime::from_secs(200));
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, total, "transfer completes on the new subflow");
}

#[test]
fn add_addr_learned_and_usable_for_join() {
    let mut h = World::new(8, Duration::from_millis(10), &[A1, A2], &[B1, B2]);
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    h.record(Side::A);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    // Server announces its second address.
    let server_token = h.b().connections().next().unwrap().token;
    h.apply(
        Side::B,
        &PmAction::AnnounceAddr {
            token: server_token,
            addr_id: 2,
            addr: B2,
        },
    );
    h.run_until(SimTime::from_millis(200));
    {
        let pm = h.recorded(Side::A);
        assert_eq!(
            pm.count(|e| matches!(
                e,
                PmEvent::AddAddrReceived { addr, .. } if *addr == B2
            )),
            1
        );
    }
    let conn = h.a().conn_by_token(token).unwrap();
    assert!(conn.remote_addrs.iter().any(|(_, a, _)| *a == B2));
    // Join toward the announced address.
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B2,
            dst_port: 80,
            backup: false,
        },
    );
    h.run_until(SimTime::from_millis(400));
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.subflow(1).unwrap().state, SfState::Established);
    assert_eq!(conn.subflow(1).unwrap().tuple.dst, B2);
}

#[test]
fn remove_addr_event_reaches_peer_pm() {
    let mut h = World::new(9, Duration::from_millis(10), &[A1], &[B1, B2]);
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    h.record(Side::A);
    h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    let server_token = h.b().connections().next().unwrap().token;
    h.apply(
        Side::B,
        &PmAction::AnnounceAddr {
            token: server_token,
            addr_id: 2,
            addr: B2,
        },
    );
    h.run_until(SimTime::from_millis(200));
    h.apply(
        Side::B,
        &PmAction::WithdrawAddr {
            token: server_token,
            addr_id: 2,
        },
    );
    h.run_until(SimTime::from_millis(300));
    let pm = h.recorded(Side::A);
    assert_eq!(
        pm.count(|e| matches!(e, PmEvent::RemAddrReceived { addr_id: 2, .. })),
        1
    );
}

#[test]
fn mp_prio_flips_backup_flag_at_peer() {
    let mut h = two_addr_world(10);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    h.apply(
        Side::A,
        &PmAction::SetBackup {
            token,
            id: 0,
            backup: true,
        },
    );
    h.run_until(SimTime::from_millis(200));
    let sconn = h.b().connections().next().unwrap();
    assert!(
        sconn.subflow(0).unwrap().backup,
        "MP_PRIO must flip the peer's view"
    );
    assert!(
        h.a()
            .conn_by_token(token)
            .unwrap()
            .subflow(0)
            .unwrap()
            .backup
    );
}

#[test]
fn plain_tcp_fallback_when_server_lacks_mptcp() {
    let cfg_b = StackConfig {
        mptcp_enabled: false,
        ..Default::default()
    };
    let addrs = [&[A1][..], &[B1]];
    let mut h = World::with_configs(
        11,
        Duration::from_millis(10),
        addrs,
        [Default::default(), cfg_b],
    );
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(100_000).close_when_done()),
        )
        .unwrap();
    // Once the handshake has fallen back, nothing either host emits may
    // carry an MPTCP option — retransmissions and FINs included. A
    // stripper switched on after establishment counts any that do.
    h.run_until(SimTime::from_millis(25));
    assert_eq!(
        h.a().conn_by_token(token).unwrap().state,
        ConnState::Established
    );
    h.strip(None, true);
    h.set_loss(Side::A, 0.05);
    // PM-requested signalling (MP_PRIO, ADD_ADDR) has no peer to reach.
    h.apply(
        Side::A,
        &PmAction::SetBackup {
            token,
            id: 0,
            backup: false,
        },
    );
    h.apply(
        Side::A,
        &PmAction::AnnounceAddr {
            token,
            addr_id: 1,
            addr: A2,
        },
    );
    h.run_until(SimTime::from_secs(60));
    assert_eq!(h.stripped(), 0, "MPTCP option sent after fallback");
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.state, ConnState::Closed, "transfer completed");
    assert_eq!(conn.remote_token(), None, "no MPTCP negotiated");
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, 100_000);
    // A join attempt on a fallback connection must fail.
    assert!(!h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A1,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
}

#[test]
fn middlebox_stripping_both_directions_forces_clean_fallback() {
    // An option-normalizing middlebox strips MPTCP options in both
    // directions from the first SYN on: the handshake degrades to plain
    // TCP on both sides and the transfer still completes.
    let mut h = World::new(31, Duration::from_millis(10), &[A1], &[B1]);
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    h.strip(None, true);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(100_000).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(25));
    assert_eq!(
        h.a().conn_by_token(token).unwrap().state,
        ConnState::Established
    );
    // One option in all, and the server fell back at the handshake (checked
    // below), so it never saw one: the SYN's MP_CAPABLE was the one.
    assert_eq!(h.stripped(), 1, "only the SYN's MP_CAPABLE was stripped");
    // From here on the connection is plain TCP: with loss forcing
    // retransmissions, neither those nor the FINs may carry an option.
    h.set_loss(Side::A, 0.05);
    h.run_until(SimTime::from_secs(60));
    assert_eq!(h.stripped(), 1, "MPTCP option sent after fallback");
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.state, ConnState::Closed, "transfer completed");
    assert!(conn.is_fallback());
    assert!(
        !conn.stats.fallback_inferred,
        "handshake-level fallback, not data-level inference"
    );
    let sconn = h.b().connections().next().unwrap();
    assert!(sconn.is_fallback());
    assert!(
        !sconn.stats.fallback_inferred,
        "server fell back at the handshake"
    );
    let sink = sconn
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap();
    assert_eq!(sink.received, 100_000);
    // Joins stay refused on a fallback connection.
    assert!(!h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A1,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
}

#[test]
fn one_directional_stripping_infers_fallback_from_dss_less_data() {
    // The middlebox strips only B→A: the server's SYN/ACK loses its
    // MP_CAPABLE, so the *client* falls back at handshake time — but the
    // server saw an intact MP_CAPABLE SYN and believes MPTCP was
    // negotiated. The client's first data segment then arrives without a
    // DSS option; without RFC 6824 §3.7 inference the server would drop
    // those bytes as unmapped forever and the transfer would stall.
    let mut h = World::new(32, Duration::from_millis(10), &[A1], &[B1]);
    h.listen(Side::B, 80, Box::new(|| closing_sink()));
    h.strip(Some(Side::B), true);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(100_000).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_secs(30));
    let conn = h.a().conn_by_token(token).unwrap();
    assert!(conn.is_fallback(), "client fell back at the SYN/ACK");
    let sconn = h.b().connections().next().unwrap();
    assert!(
        sconn.is_fallback(),
        "server inferred the fallback from data"
    );
    assert!(
        sconn.stats.fallback_inferred,
        "server-side fallback came from the DSS-less-first-data inference"
    );
    let sink = sconn
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap();
    assert_eq!(
        sink.received, 100_000,
        "transfer completed despite stripping"
    );
    assert_eq!(conn.state, ConnState::Closed);
}

/// A two-address world where the server infers a fallback from DSS-less
/// data, then the client, not yet aware, sends an intact `MP_JOIN` from
/// its second address. Runs to 30 s.
fn join_after_inferred_fallback(seed: u64) -> (World, ConnToken) {
    let mut h = two_addr_world(seed);
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(100_000).close_when_done()),
        )
        .unwrap();
    // The router sits 5 ms from each host. It strips what the client
    // sends from 10 ms, after the SYN has passed it, to 30 ms: the client's
    // third ACK and first window pass it at 25 ms, while the SYN/ACK,
    // passing it the other way at 15 ms, keeps its MP_CAPABLE.
    h.run_until(SimTime::from_millis(10));
    h.strip(Some(Side::A), true);
    h.run_until(SimTime::from_millis(30));
    h.strip(Some(Side::A), false);
    assert!(h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    ));
    h.run_until(SimTime::from_secs(30));
    (h, token)
}

#[test]
fn join_reaching_a_connection_that_inferred_fallback_is_refused() {
    // Both ends negotiate MPTCP, then the server sees DSS-less data and
    // infers fallback (forgetting the keys) while the client sends an
    // intact MP_JOIN. The server must answer it with a reset, not look
    // for keys.
    let (h, token) = join_after_inferred_fallback(33);
    let sconn = h.b().connections().next().unwrap();
    assert!(sconn.stats.fallback_inferred);
    assert_eq!(sconn.subflow_count(), 1, "the join was refused");
    assert_eq!(sconn.stats.bytes_received, 100_000);
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.subflow(1).unwrap().state, SfState::Closed);
}

/// The same world from the client's side: its refused join sits closed
/// in its subflow list, yet the server's option-less ACKs must still
/// make it infer the fallback, and the transfer close.
#[test]
#[ignore = "item 2(a): conn/recv.rs:110"]
fn client_whose_join_was_refused_still_infers_the_fallback() {
    let (h, token) = join_after_inferred_fallback(33);
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.subflow(1).unwrap().state, SfState::Closed);
    assert!(conn.is_fallback(), "the client never inferred the fallback");
    assert_eq!(conn.state, ConnState::Closed);
}

#[test]
fn subflow_established_events_on_both_sides() {
    let mut h = two_addr_world(12);
    h.record(Side::A);
    h.record(Side::B);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    );
    h.run_until(SimTime::from_millis(300));
    for (side, initiated) in [(Side::A, true), (Side::B, false)] {
        let pm = h.recorded(side);
        assert_eq!(
            pm.count(|e| matches!(e, PmEvent::ConnEstablished { .. })),
            1
        );
        assert_eq!(
            pm.count(
                |e| matches!(e, PmEvent::SubflowEstablished { id: 1, initiated_here, .. }
                    if *initiated_here == initiated)
            ),
            1,
            "join sub_estab event (initiated={initiated})"
        );
    }
}

#[test]
fn heavy_loss_transfer_still_completes_on_two_subflows() {
    let mut h = two_addr_world(13);
    h.set_loss(Side::A, 0.15);
    h.set_loss(Side::B, 0.15);
    let total = 200_000u64;
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(500));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    );
    h.run_until(SimTime::from_secs(300));
    let sink_bytes = h
        .b()
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
        .received;
    assert_eq!(sink_bytes, total, "reliability under 15% loss, 2 subflows");
}

/// A world keeps its connection objects until it is dropped (stats, taps
/// and the diag dump read them after the run), so what a dead subflow or a
/// closed connection still *holds* is what every later connection's memory
/// sits on top of: the flight ring goes when the subflow dies, the rest
/// when the connection closes.
#[test]
fn closed_subflows_and_connections_keep_no_buffer_storage() {
    let mut h = two_addr_world(17);
    h.set_rate(Side::A, 10_000_000);
    h.set_rate(Side::B, 10_000_000);
    let total = 1_000_000u64;
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_millis(50));
    h.apply(
        Side::A,
        &PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        },
    );
    h.run_until(SimTime::from_millis(300));
    let conn = h.a().conn_by_token(token).unwrap();
    for id in [0, 1] {
        let sf = conn.subflow(id).unwrap();
        assert!(sf.flight.capacity() > 0, "subflow {id} is carrying data");
    }

    // One subflow dies mid-transfer: its ring goes at once, the other's
    // stays in use.
    h.apply(
        Side::A,
        &PmAction::CloseSubflow {
            token,
            id: 1,
            reset: true,
        },
    );
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.subflow(1).unwrap().state, SfState::Closed);
    assert_eq!(conn.subflow(1).unwrap().flight.capacity(), 0);
    assert!(conn.subflow(0).unwrap().flight.capacity() > 0);

    h.run_until(SimTime::from_secs(60));
    let send_buf = StackConfig::default().send_buf;
    for conn in [
        h.a().conn_by_token(token).unwrap(),
        h.b().connections().next().unwrap(),
    ] {
        assert_eq!(conn.state, ConnState::Closed);
        assert_eq!(conn.send_space(), send_buf, "send buffer emptied");
        for id in 0..conn.subflow_count() as u8 {
            let sf = conn.subflow(id).unwrap();
            assert_eq!(sf.flight.capacity(), 0, "subflow {id}");
            assert!(!sf.reasm.has_hole() && sf.recv_maps.capacity() == 0);
        }
    }
    // What post-run inspection reads is still there.
    let client = h.a().conn_by_token(token).unwrap();
    let server = h.b().connections().next().unwrap();
    assert_eq!(client.stats.bytes_sent, total);
    assert_eq!(server.stats.bytes_received, total);
    assert_eq!(client.meta_una(), total);
    assert!(client.subflow_info(0).unwrap().snd_una > 0);
}

/// The oracle only observes: a lossy world with an `MP_JOIN` runs the same
/// with it installed and without it, to the packet counts of every link
/// and the digests of both stream taps of both ends.
#[test]
fn the_oracle_moves_no_trajectory() {
    let run = |oracle: bool| {
        let mut h = two_addr_world(34);
        if !oracle {
            assert!(h.sim.core.take_trace().is_some());
        }
        h.set_loss(Side::A, 0.05);
        h.set_loss(Side::B, 0.05);
        let app = Box::new(BulkSender::new(300_000).close_when_done());
        let token = h.connect(Side::A, 80, app).unwrap();
        h.run_until(SimTime::from_millis(100));
        let join = PmAction::OpenSubflow {
            token,
            src: A2,
            src_port: 0,
            dst: B1,
            dst_port: 80,
            backup: false,
        };
        assert!(h.apply(Side::A, &join));
        let run = h.run_until(SimTime::from_secs(60));
        let taps = |c: &smapp_mptcp::Connection| {
            let tap = |t: &smapp_tcp::StreamTap| (t.count(), t.digest());
            (tap(&c.stats.tap_sent), tap(&c.stats.tap_recvd))
        };
        let client = h.a().conn_by_token(token).unwrap();
        let server = h.b().connections().next().unwrap();
        assert_eq!(server.subflow_count(), 2, "the join reached the server");
        assert_eq!(server.stats.bytes_received, 300_000);
        (run, h.sent(), taps(client), taps(server))
    };
    assert_eq!(run(true), run(false));
}
