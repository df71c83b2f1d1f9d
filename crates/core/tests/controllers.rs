//! End-to-end controller tests: each §4 use case running over the full
//! stack — simulator, MPTCP engine, netlink boundary with latency,
//! controller logic — at reduced scale (the full-size experiments live in
//! the `smapp-bench` crate).

use std::time::Duration;

use bytes::Bytes;
use smapp::prelude::*;
use smapp::{controller_of, ControllerRuntime};
use smapp_mptcp::apps::{BulkSender, Sink, StreamSender};
use smapp_mptcp::{App, AppCtx};
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_sim::{DenyPolicy, Dir, SimTime};

fn server() -> Host {
    let mut s = Host::new("server", StackConfig::default());
    s.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );
    s
}

fn block_server(block: u64) -> Host {
    let mut s = Host::new("server", StackConfig::default());
    s.listen(
        80,
        Box::new(move || {
            Box::new(Sink {
                close_on_eof: true,
                ..Sink::with_blocks(block)
            })
        }),
    );
    s
}

fn server_sink(sim: &smapp_sim::Simulator, id: smapp_sim::NodeId) -> &Sink {
    topo::host(sim, id)
        .stack
        .connections()
        .next()
        .unwrap()
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<Sink>()
        .unwrap()
}

// ---------------------------------------------------------------------
// §4.2 — break-before-make backup
// ---------------------------------------------------------------------

#[test]
fn backup_controller_switches_when_rto_escalates() {
    let controller = BackupController::new(BackupConfig {
        rto_threshold: Duration::from_secs(1),
        backup_src: CLIENT_ADDR2,
    });
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(3_000_000)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let net = topo::two_path(
        1,
        client,
        server(),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    // After 1 s, the primary path starts losing 30% of packets (both
    // directions) — the Fig. 2a condition.
    let l1 = net.link1;
    sim.at(SimTime::from_secs(1), move |core| {
        core.set_loss_both(l1, LossModel::Bernoulli(0.30));
    });
    sim.run_until(SimTime::from_secs(120));

    let client = topo::host(&sim, net.client);
    let ctrl = controller_of::<BackupController>(client).unwrap();
    assert_eq!(ctrl.switchovers.len(), 1, "exactly one switchover");
    let (when, _, killed) = ctrl.switchovers[0];
    assert_eq!(killed, 0, "the primary subflow was cut");
    // The paper's point: seconds, not the ~13 minutes of RTO exhaustion.
    assert!(
        when < SimTime::from_secs(30),
        "switch happened at {when}, expected within seconds"
    );
    // Transfer completed over the backup interface.
    let conn = client.stack.connections().next().unwrap();
    let backup_info = conn.subflow_info(1).unwrap();
    assert!(backup_info.bytes_acked > 0, "backup carried the transfer");
    assert_eq!(server_sink(&sim, net.server).received, 3_000_000);
    // Break-before-make: the backup subflow did not exist before the
    // switch (subflow 1 was created at switch time, not at start).
    assert!(conn.subflow(1).unwrap().stats.created_at.as_nanos() >= when.as_nanos());
}

#[test]
fn backup_controller_stays_quiet_on_healthy_path() {
    let controller = BackupController::new(BackupConfig {
        rto_threshold: Duration::from_secs(1),
        backup_src: CLIENT_ADDR2,
    });
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(1_000_000)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let net = topo::two_path(
        2,
        client,
        server(),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));
    let client = topo::host(&sim, net.client);
    let ctrl = controller_of::<BackupController>(client).unwrap();
    assert!(ctrl.switchovers.is_empty(), "no spurious switchover");
    let conn = client.stack.connections().next().unwrap();
    assert!(
        conn.subflow(1).is_none(),
        "no backup subflow was ever established (energy saved)"
    );
}

// ---------------------------------------------------------------------
// §4.3 — smart streaming
// ---------------------------------------------------------------------

#[test]
fn stream_controller_adds_subflow_when_block_lags() {
    let controller = StreamController::new(StreamConfig::paper(CLIENT_ADDR2));
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(StreamSender::new(64 * 1024, Duration::from_secs(1), 15)),
    );
    let net = topo::two_path(
        3,
        client,
        block_server(64 * 1024),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    // 30% loss on the initial path from the start of streaming.
    let l1 = net.link1;
    sim.at(SimTime::from_millis(500), move |core| {
        core.set_loss_both(l1, LossModel::Bernoulli(0.30));
    });
    sim.run_until(SimTime::from_secs(60));

    let client_host = topo::host(&sim, net.client);
    let ctrl = controller_of::<StreamController>(client_host).unwrap();
    assert!(
        !ctrl.interventions.is_empty(),
        "controller opened the second subflow"
    );
    let sink = server_sink(&sim, net.server);
    assert_eq!(sink.received, 15 * 64 * 1024, "every block delivered");
    assert_eq!(sink.block_completions.len(), 15);
}

#[test]
fn stream_controller_idle_when_path_is_good() {
    let controller = StreamController::new(StreamConfig::paper(CLIENT_ADDR2));
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(StreamSender::new(64 * 1024, Duration::from_secs(1), 10)),
    );
    let net = topo::two_path(
        4,
        client,
        block_server(64 * 1024),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
        smapp_sim::LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(30));
    let client_host = topo::host(&sim, net.client);
    let ctrl = controller_of::<StreamController>(client_host).unwrap();
    assert!(
        ctrl.interventions.is_empty(),
        "no second subflow on a healthy path: {:?}",
        ctrl.interventions
    );
    let sink = server_sink(&sim, net.server);
    // "If the initial subflow is fast enough to support the stream no
    // additional subflow is established" — and all blocks arrive on time.
    assert_eq!(sink.block_completions.len(), 10);
}

// ---------------------------------------------------------------------
// §4.4 — ECMP refresh
// ---------------------------------------------------------------------

#[test]
fn refresh_controller_ends_up_using_all_paths() {
    let controller = RefreshController::new(RefreshConfig::default());
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(60_000_000)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let paths: Vec<smapp_sim::LinkCfg> = (1..=4)
        .map(|i| smapp_sim::LinkCfg::mbps_ms(8, 10 * i))
        .collect();
    let net = topo::ecmp(5, client, server(), &paths);
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(120));

    let client_host = topo::host(&sim, net.client);
    let ctrl = controller_of::<RefreshController>(client_host).unwrap();
    // The refresh loop pulls the connection onto (nearly) all paths; a
    // single seeded run can leave one path unvisited, so demand >= 3 here
    // (the Fig. 2c bench shows the full distribution over many runs).
    let used = net
        .paths
        .iter()
        .filter(|&&l| sim.core.link_stats(l, Dir::AtoB).bytes_delivered > 100_000)
        .count();
    assert!(
        used >= 3,
        "refresh should spread onto >=3 of 4 paths, got {used}"
    );
    assert_eq!(server_sink(&sim, net.server).received, 60_000_000);
    // The refresh loop actually ran (collisions among 5 random ports on 4
    // paths are near-certain, so at least one refresh must have fired).
    assert!(
        !ctrl.refreshes.is_empty(),
        "at least one slowest-subflow refresh"
    );
}

// ---------------------------------------------------------------------
// §4.1 — userspace full-mesh keeping long-lived connections alive
// ---------------------------------------------------------------------

/// Sends a burst, goes idle past the middlebox timeout, then sends again.
struct BurstIdleBurst {
    burst: u64,
    idle: Duration,
    sent_second: bool,
}

impl App for BurstIdleBurst {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        ctx.write(Bytes::from(vec![0u8; self.burst as usize]));
        ctx.set_timer(self.idle, 1);
    }
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_>, _t: u64) {
        if !self.sent_second {
            self.sent_second = true;
            ctx.write(Bytes::from(vec![1u8; self.burst as usize]));
            ctx.close();
        }
    }
    fn on_data(&mut self, _ctx: &mut AppCtx<'_, '_>, _d: Bytes) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn fullmesh_user_survives_middlebox_state_loss() {
    // Client behind a NAPT gateway that forgets mappings after 60 s idle.
    // The app goes idle for 200 s, then resumes: the resumed flow gets a
    // *new* public port, the server no longer recognizes the tuple and
    // RSTs it. The §4.1 controller sees sub_closed(ECONNRESET) and
    // re-establishes after its short RST backoff (new subflow, new NAT
    // mapping); connection-level reinjection re-sends the lost burst.
    let mut cfg = StackConfig::default();
    cfg.rto.max_retries = 5; // die after ~6 s of retransmissions
    let controller = FullMeshController::new();
    let mut client = Host::new("client", cfg.clone()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BurstIdleBurst {
            burst: 10_000,
            idle: Duration::from_secs(200),
            sent_second: false,
        }),
    );
    let net = topo::firewalled(
        6,
        client,
        server(),
        Duration::from_secs(60),
        DenyPolicy::SilentDrop,
        true,
        smapp_sim::LinkCfg::mbps_ms(10, 5),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(400));

    let client_host = topo::host(&sim, net.client);
    let ctrl = controller_of::<FullMeshController>(client_host).unwrap();
    assert!(
        ctrl.reestablishments >= 1,
        "controller re-established through the middlebox"
    );
    assert_eq!(
        server_sink(&sim, net.server).received,
        20_000,
        "both bursts delivered despite the state loss"
    );
}

// ---------------------------------------------------------------------
// §4.5 — userspace vs kernel subflow-creation latency (shape check; the
// full CDF is produced by the bench crate)
// ---------------------------------------------------------------------

#[test]
fn userspace_ndiffports_creates_subflow_slightly_later() {
    // Run the same single-GET workload under both managers and compare
    // when subflow 1 got created (client side). The userspace one pays
    // two boundary crossings.
    let run = |userspace: bool| -> (SimTime, SimTime) {
        let mut client = Host::new("client", StackConfig::default());
        if userspace {
            client = client.with_user(
                ControllerRuntime::boxed(NdiffportsController::new(2)),
                LatencyModel::idle_host(),
            );
        } else {
            client = client.with_pm(Box::new(NdiffportsPm::new(2)));
        }
        client.connect_at(
            SimTime::from_millis(10),
            None,
            SERVER_ADDR,
            80,
            Box::new(BulkSender::new(100_000).close_when_done()),
        );
        let net = topo::two_path(
            7,
            client,
            server(),
            smapp_sim::LinkCfg::mbps_ms(1000, 1),
            smapp_sim::LinkCfg::mbps_ms(1000, 1),
        );
        let mut sim = net.sim;
        sim.run_until(SimTime::from_secs(10));
        let client_host = topo::host(&sim, net.client);
        let conn = client_host.stack.connections().next().unwrap();
        let sf0 = conn.subflow(0).unwrap().stats.created_at;
        let sf1 = conn
            .subflow(1)
            .expect("second subflow created")
            .stats
            .created_at;
        (sf0, sf1)
    };
    let (k0, k1) = run(false);
    let (u0, u1) = run(true);
    let kernel_delta = k1 - k0;
    let user_delta = u1 - u0;
    assert!(
        user_delta > kernel_delta,
        "userspace adds boundary latency: kernel {kernel_delta:?} vs user {user_delta:?}"
    );
    let extra = user_delta - kernel_delta;
    assert!(
        extra < Duration::from_micros(200),
        "but the penalty stays tiny: {extra:?}"
    );
}

// ---------------------------------------------------------------------
// §3 — server-side subflow budget ("prevent resource abuse")
// ---------------------------------------------------------------------

#[test]
fn server_limit_controller_rejects_excess_subflows() {
    // Client greedily opens 4 subflows from the same address (kernel
    // ndiffports); the server's controller accepts at most 2 per address
    // and RSTs the rest.
    let mut client =
        Host::new("client", StackConfig::default()).with_pm(Box::new(NdiffportsPm::new(4)));
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(
            BulkSender::new(500_000)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
    );
    let limiter = ServerLimitController::new(ServerLimitConfig { max_per_addr: 2 });
    let mut server = Host::new("server", StackConfig::default())
        .with_user(ControllerRuntime::boxed(limiter), LatencyModel::idle_host());
    server.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );
    let net = topo::two_path(
        21,
        client,
        server,
        smapp_sim::LinkCfg::mbps_ms(10, 10),
        smapp_sim::LinkCfg::mbps_ms(10, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));

    let server_host = topo::host(&sim, net.server);
    let ctrl = controller_of::<ServerLimitController>(server_host).unwrap();
    assert_eq!(
        ctrl.rejections.len(),
        2,
        "2 of 4 same-address subflows rejected"
    );
    // The transfer still completed over the accepted subflows.
    assert_eq!(server_sink(&sim, net.server).received, 500_000);
    // The client's connection ends with at most 2 subflows ever carrying data.
    let conn = topo::host(&sim, net.client)
        .stack
        .connections()
        .next()
        .unwrap();
    let carried = (0u8..4)
        .filter_map(|id| conn.subflow_info(id))
        .filter(|i| i.bytes_acked > 0)
        .count();
    assert!(carried <= 2, "rejected subflows never carried data");
}

// ---------------------------------------------------------------------
// §4.1 contrast — keepalives vs. SMAPP re-establishment
// ---------------------------------------------------------------------

/// An app that sends a tiny keepalive every `interval` (the RFC 3948-style
/// workaround §4.1 criticises for its energy cost), then a real burst.
struct KeepaliveApp {
    interval: Duration,
    keepalives: u32,
    sent: u32,
    burst: u64,
    done: bool,
}

impl App for KeepaliveApp {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        ctx.set_timer(self.interval, 1);
    }
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_>, _t: u64) {
        if self.sent < self.keepalives {
            self.sent += 1;
            ctx.write(Bytes::from_static(&[0u8])); // the keepalive byte
            ctx.set_timer(self.interval, 1);
        } else if !self.done {
            self.done = true;
            ctx.write(Bytes::from(vec![7u8; self.burst as usize]));
            ctx.close();
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn keepalives_preserve_nat_state_at_a_cost() {
    // 20 s keepalives against a 60 s NAT: state never expires, the late
    // burst flows with no interruption — but the radio never sleeps.
    // (The SMAPP alternative is exercised by
    // `fullmesh_user_survives_middlebox_state_loss` above: no keepalives,
    // one RST-triggered re-establishment.)
    let mut client = Host::new("client", StackConfig::default());
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(KeepaliveApp {
            interval: Duration::from_secs(20),
            keepalives: 14, // 280 s of keepalives
            sent: 0,
            burst: 10_000,
            done: false,
        }),
    );
    let net = topo::firewalled(
        31,
        client,
        server(),
        Duration::from_secs(60),
        DenyPolicy::SilentDrop,
        true, // NAPT
        smapp_sim::LinkCfg::mbps_ms(10, 5),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(400));

    let fw = sim
        .node(net.firewall)
        .as_any()
        .downcast_ref::<smapp_sim::Firewall>()
        .unwrap();
    assert_eq!(fw.expired, 0, "keepalives kept the NAT mapping alive");
    let total = server_sink(&sim, net.server).received;
    assert_eq!(total, 14 + 10_000, "keepalive bytes + burst all arrived");
    // The cost the paper calls out: packets flowed during the idle period.
    assert!(
        fw.forwarded > 28,
        "the radio never slept: {} packets through the NAT",
        fw.forwarded
    );
}
