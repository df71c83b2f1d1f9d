//! Edge-case and failure-injection tests for the MPTCP engine: handshake
//! loss, FASTCLOSE, fallback teardown, redundant scheduling, flow-control
//! limits and congestion-controller coupling.

use std::time::Duration;

use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{CcAlgo, ConnState, NullApp, PmAction, StackConfig};
use smapp_sim::{Addr, SimTime};

mod common;
use common::{Side, World};

const A1: Addr = Addr::new(10, 0, 0, 1);
const A2: Addr = Addr::new(10, 0, 2, 1);
const B1: Addr = Addr::new(10, 0, 1, 1);

fn closing_sink() -> Box<dyn smapp_mptcp::App> {
    Box::new(Sink {
        close_on_eof: true,
        ..Default::default()
    })
}

fn world_with(seed: u64, cfg_a: StackConfig, cfg_b: StackConfig) -> World {
    let addrs = [&[A1, A2][..], &[B1]];
    let mut h = World::with_configs(seed, Duration::from_millis(10), addrs, [cfg_a, cfg_b]);
    h.listen(Side::B, 80, Box::new(closing_sink));
    h
}

fn sink_received(h: &World) -> u64 {
    h.b()
        .connections()
        .next()
        .and_then(|c| c.app())
        .and_then(|a| a.as_any().downcast_ref::<Sink>())
        .map(|s| s.received)
        .unwrap_or(0)
}

/// The initial SYN is lost repeatedly; the handshake still completes via
/// SYN retransmission with exponential backoff.
#[test]
fn handshake_survives_syn_loss() {
    let mut h = world_with(1, StackConfig::default(), StackConfig::default());
    // Lose everything for the first 2.5 s: the first SYN (t=0) and the 1 s
    // retransmission die; the 3 s one gets through.
    h.set_loss(Side::A, 1.0);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(2500));
    assert_eq!(
        h.a().conn_by_token(token).unwrap().state,
        ConnState::Establishing
    );
    h.set_loss(Side::A, 0.0);
    h.run_until(SimTime::from_secs(10));
    assert_eq!(
        h.a().conn_by_token(token).unwrap().state,
        ConnState::Established,
        "handshake completed after the blackhole lifted"
    );
}

/// SYN retry exhaustion aborts the connection and tells the app.
#[test]
fn handshake_gives_up_after_syn_retries() {
    let cfg = StackConfig {
        syn_retries: 2,
        ..Default::default()
    };
    let mut h = world_with(2, cfg, StackConfig::default());
    h.set_loss(Side::A, 1.0);
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_secs(60));
    assert_eq!(h.a().conn_by_token(token).unwrap().state, ConnState::Closed);
}

/// Tiny receive buffer: flow control throttles the sender but every byte
/// still arrives (the advertised-window path works).
#[test]
fn tiny_receive_window_transfer_completes() {
    let cfg_b = StackConfig {
        recv_buf: 8 * 1024, // 8 KB receive buffer
        ..Default::default()
    };
    let mut h = world_with(3, StackConfig::default(), cfg_b);
    let total = 200_000u64;
    let token = h
        .connect(
            Side::A,
            80,
            Box::new(BulkSender::new(total).close_when_done()),
        )
        .unwrap();
    h.run_until(SimTime::from_secs(60));
    assert_eq!(sink_received(&h), total);
    assert_eq!(h.a().conn_by_token(token).unwrap().state, ConnState::Closed);
}

/// The redundant scheduler duplicates data on every subflow; the receiver
/// still sees the stream exactly once.
#[test]
fn redundant_scheduler_delivers_exactly_once() {
    let cfg = StackConfig {
        scheduler: "redundant",
        ..Default::default()
    };
    let mut h = world_with(4, cfg, StackConfig::default());
    let total = 300_000u64;
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
    h.run_until(SimTime::from_secs(60));
    assert_eq!(sink_received(&h), total, "no duplication at the app level");
    let conn = h.a().conn_by_token(token).unwrap();
    assert!(
        conn.stats.reinjections > 0,
        "redundant copies were actually sent"
    );
}

/// Reno (uncoupled) is more aggressive than LIA (coupled) when two
/// subflows share one bottleneck — the RFC 6356 fairness goal.
#[test]
fn lia_is_less_aggressive_than_reno_on_shared_bottleneck() {
    // Both subflows end on B's one address, whose rate-limited link is a
    // shared bottleneck.
    let completion = |cc: CcAlgo| -> SimTime {
        let cfg = StackConfig {
            cc,
            ..Default::default()
        };
        let mut h = world_with(5, cfg, StackConfig::default());
        h.set_rate(Side::A, 10_000_000);
        h.set_rate(Side::B, 10_000_000);
        h.set_loss(Side::A, 0.01); // light loss so CA (where coupling acts) matters
        h.set_loss(Side::B, 0.01);
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
        h.run_until(SimTime::from_secs(300)).ended_at
    };
    let reno = completion(CcAlgo::Reno);
    let lia = completion(CcAlgo::Lia);
    // Both finish; LIA must not be *faster* than uncoupled Reno on a
    // shared bottleneck (it deliberately backs off its aggregate rate).
    assert!(
        lia >= reno,
        "coupled LIA ({lia}) must not beat uncoupled Reno ({reno}) on a shared bottleneck"
    );
}

/// A graceful (FIN) PM-requested close drains in-flight data first.
#[test]
fn graceful_pm_close_drains_before_fin() {
    let mut h = world_with(6, StackConfig::default(), StackConfig::default());
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
    // Gracefully close subflow 0 mid-transfer (no reset).
    h.apply(
        Side::A,
        &PmAction::CloseSubflow {
            token,
            id: 0,
            reset: false,
        },
    );
    h.run_until(SimTime::from_secs(60));
    assert_eq!(sink_received(&h), total, "graceful close loses nothing");
}

/// Duplicate ADD_ADDR announcements are idempotent at the receiver.
#[test]
fn duplicate_add_addr_recorded_once() {
    let mut h = world_with(7, StackConfig::default(), StackConfig::default());
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    let server_token = h.b().connections().next().unwrap().token;
    for _ in 0..3 {
        h.apply(
            Side::B,
            &PmAction::AnnounceAddr {
                token: server_token,
                addr_id: 9,
                addr: Addr::new(10, 0, 3, 1),
            },
        );
        h.run_until(h.now() + Duration::from_millis(100));
    }
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(
        conn.remote_addrs
            .iter()
            .filter(|(id, _, _)| *id == 9)
            .count(),
        1
    );
}

/// Closing a subflow that never existed is rejected without panicking.
#[test]
fn pm_commands_on_missing_targets_are_safe() {
    let mut h = world_with(8, StackConfig::default(), StackConfig::default());
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    // Unknown subflow id: no-op.
    assert!(h.apply(
        Side::A,
        &PmAction::CloseSubflow {
            token,
            id: 77,
            reset: true,
        },
    ));
    // Unknown token: rejected.
    assert!(!h.apply(
        Side::A,
        &PmAction::SetBackup {
            token: token ^ 0xFFFF,
            id: 0,
            backup: true,
        },
    ));
    h.run_until(SimTime::from_secs(1));
    assert_eq!(
        h.a().conn_by_token(token).unwrap().state,
        ConnState::Established
    );
}

/// Opening a subflow from a down interface is refused by the stack.
#[test]
fn open_subflow_from_down_iface_refused() {
    let mut h = world_with(9, StackConfig::default(), StackConfig::default());
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    h.with(Side::A, |n, _| n.stack.set_local_addr(A2, false));
    assert!(!h.apply(
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
}

/// Opening from `A2` toward `B1:80` on `token`.
fn open_from_a2(token: u32) -> PmAction {
    PmAction::OpenSubflow {
        token,
        src: A2,
        src_port: 0,
        dst: B1,
        dst_port: 80,
        backup: false,
    }
}

/// A connection numbers its subflows with a `u8` and never reuses one, so
/// once all 256 ids are taken a path-manager open is refused instead of
/// wrapping onto id 0.
#[test]
fn open_subflow_refused_once_every_id_is_taken() {
    let mut h = world_with(10, StackConfig::default(), StackConfig::default());
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    for _ in 1..256 {
        assert!(h.apply(Side::A, &open_from_a2(token)));
    }
    assert!(!h.apply(Side::A, &open_from_a2(token)));
    let conn = h.a().conn_by_token(token).unwrap();
    assert_eq!(conn.subflow_count(), 256);
    assert_eq!(conn.subflow(255).unwrap().id, 255);
}

/// The peer can ask for a 257th subflow from the wire: an `MP_JOIN` SYN
/// carrying the connection's token reaches a connection whose 256 ids are
/// taken. It is refused with a RST, and no subflow is added.
#[test]
fn join_syn_refused_once_every_id_is_taken() {
    let mut h = world_with(11, StackConfig::default(), StackConfig::default());
    let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
    h.run_until(SimTime::from_millis(100));
    // The server fills its ids with joins of its own whose SYNs are lost,
    // so only its side holds them.
    let server_token = h.b().connections().next().unwrap().token;
    h.set_loss(Side::B, 1.0);
    for _ in 1..256 {
        let open = PmAction::OpenSubflow {
            token: server_token,
            src: B1,
            src_port: 0,
            dst: A1,
            dst_port: 80,
            backup: false,
        };
        assert!(h.apply(Side::B, &open));
    }
    let rst_before = h.b().rst_sent;
    assert!(h.apply(Side::A, &open_from_a2(token)));
    h.run_until(h.now() + Duration::from_millis(15));
    assert_eq!(h.b().rst_sent, rst_before + 1, "the join is refused");
    assert_eq!(
        h.b().conn_by_token(server_token).unwrap().subflow_count(),
        256
    );
}
