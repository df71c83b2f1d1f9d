//! Workspace-level integration tests: whole-system behaviours that span
//! every crate — simulator, TCP/MPTCP engines, netlink boundary, path
//! managers and controllers — through the public API only.

use std::time::Duration;

use smapp::prelude::*;
use smapp::{controller_of, ControllerRuntime};
use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_sim::SimTime;

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

fn received(sim: &smapp_sim::Simulator, id: smapp_sim::NodeId) -> u64 {
    topo::host(sim, id)
        .stack
        .connections()
        .map(|c| {
            c.app()
                .and_then(|a| a.as_any().downcast_ref::<Sink>())
                .map(|s| s.received)
                .unwrap_or(0)
        })
        .sum()
}

/// The full stack is deterministic: identical seeds give bit-identical
/// outcomes, different seeds diverge.
#[test]
fn whole_stack_is_deterministic() {
    let run = |seed: u64| -> (u64, u64) {
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
            seed,
            client,
            server(),
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        let onset = Netem::on(net.link1).loss(LossPct::ratio(0.3));
        let script = NetemScript::new().at(SimTime::from_secs(1), onset);
        sim.install(script, InstallPolicy::Sort).unwrap();
        let summary = sim.run_until(SimTime::from_secs(120));
        (summary.ended_at.as_nanos(), summary.events)
    };
    assert_eq!(run(5), run(5), "same seed, same trajectory");
    assert_ne!(run(5), run(6), "different seed, different trajectory");
}

/// Several concurrent connections with different managers coexist on one
/// client against one server.
#[test]
fn concurrent_connections_with_mixed_workloads() {
    let mut client =
        Host::new("client", StackConfig::default()).with_pm(Box::new(FullMeshPm::new()));
    for i in 0..4 {
        client.connect_at(
            SimTime::from_millis(10 + i * 50),
            None,
            SERVER_ADDR,
            80,
            Box::new(BulkSender::new(500_000).close_when_done()),
        );
    }
    let net = topo::two_path(
        11,
        client,
        server(),
        LinkCfg::mbps_ms(10, 10),
        LinkCfg::mbps_ms(10, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(received(&sim, net.server), 4 * 500_000);
    // Each client connection built its mesh (2 subflows).
    let client_host = topo::host(&sim, net.client);
    assert_eq!(client_host.stack.connections().count(), 4);
    for conn in client_host.stack.connections() {
        assert!(conn.subflow(1).is_some(), "mesh built per connection");
    }
}

/// Interface flap: taking the interface down kills its subflows (with the
/// paper's `del_local_addr`/`sub_closed` events), bringing it back up
/// re-meshes through the userspace full-mesh controller.
#[test]
fn interface_flap_remeshes_through_userspace_controller() {
    let controller = FullMeshController::new();
    let mut client = Host::new("client", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(30_000_000).close_when_done()),
    );
    let net = topo::two_path(
        12,
        client,
        server(),
        LinkCfg::mbps_ms(10, 10),
        LinkCfg::mbps_ms(10, 10),
    );
    let mut sim = net.sim;
    // Flap the second interface: down at 2 s, up at 4 s.
    let if2 = net.client_if2;
    let flap = NetemScript::new()
        .at(SimTime::from_secs(2), Netem::iface(if2).down())
        .at(SimTime::from_secs(4), Netem::iface(if2).up());
    sim.install(flap, InstallPolicy::Sort).unwrap();
    sim.run_until(SimTime::from_secs(90));

    let client_host = topo::host(&sim, net.client);
    let conn = client_host.stack.connections().next().unwrap();
    // The mesh was rebuilt: a third subflow from CLIENT_ADDR2 exists
    // (subflow 1 died in the flap).
    let sf2 = conn.subflow(2).expect("re-meshed subflow");
    assert_eq!(sf2.tuple.src, CLIENT_ADDR2);
    assert_eq!(received(&sim, net.server), 30_000_000);
}

/// The §4.2 controller and §4.4 controller running on *different hosts*
/// against the same server at the same time — controllers are per-host
/// userspace processes, not global singletons.
#[test]
fn two_smart_clients_share_one_server() {
    // Build a custom topology: two dual-homed clients, one router, one
    // server.
    let mut sim = Simulator::new(33);
    let backup_ctrl = BackupController::new(BackupConfig {
        rto_threshold: Duration::from_secs(1),
        backup_src: Addr::new(10, 0, 2, 1),
    });
    let mut c1 = Host::new("phone", StackConfig::default()).with_user(
        ControllerRuntime::boxed(backup_ctrl),
        LatencyModel::idle_host(),
    );
    c1.connect_at(
        SimTime::from_millis(10),
        Some(Addr::new(10, 0, 1, 1)),
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(2_000_000).close_when_done()),
    );
    let mut c2 = Host::new("laptop", StackConfig::default())
        .with_pm(Box::new(smapp_pm::NdiffportsPm::new(3)));
    c2.connect_at(
        SimTime::from_millis(20),
        Some(Addr::new(10, 0, 3, 1)),
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(2_000_000).close_when_done()),
    );
    let c1_id = sim.add_node(Box::new(c1));
    let c2_id = sim.add_node(Box::new(c2));
    let server_id = sim.add_node(Box::new(server()));
    let router_id = sim.add_node(Box::new(smapp_sim::Router::new(5)));

    let c1_if1 = sim.add_iface(c1_id, Addr::new(10, 0, 1, 1), "wlan0");
    let c1_if2 = sim.add_iface(c1_id, Addr::new(10, 0, 2, 1), "lte0");
    let c2_if1 = sim.add_iface(c2_id, Addr::new(10, 0, 3, 1), "eth0");
    let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");
    let r1 = sim.add_iface(router_id, Addr::new(10, 0, 1, 254), "r1");
    let r2 = sim.add_iface(router_id, Addr::new(10, 0, 2, 254), "r2");
    let r3 = sim.add_iface(router_id, Addr::new(10, 0, 3, 254), "r3");
    let r9 = sim.add_iface(router_id, Addr::new(10, 0, 9, 254), "r9");
    {
        let router = sim
            .node_mut(router_id)
            .as_any_mut()
            .downcast_mut::<smapp_sim::Router>()
            .unwrap();
        router.add_route("10.0.1.0/24".parse().unwrap(), vec![r1]);
        router.add_route("10.0.2.0/24".parse().unwrap(), vec![r2]);
        router.add_route("10.0.3.0/24".parse().unwrap(), vec![r3]);
        router.add_route("10.0.9.0/24".parse().unwrap(), vec![r9]);
    }
    sim.connect(c1_if1, r1, LinkCfg::mbps_ms(10, 10));
    sim.connect(c1_if2, r2, LinkCfg::mbps_ms(10, 20));
    sim.connect(c2_if1, r3, LinkCfg::mbps_ms(10, 10));
    sim.connect(r9, s_if, LinkCfg::mbps_ms(1000, 1));

    sim.run_until(SimTime::from_secs(60));

    assert_eq!(received(&sim, server_id), 4_000_000);
    // The laptop's ndiffports made 3 subflows; the phone stayed on one
    // (healthy path, no backup established).
    let laptop = topo::host(&sim, c2_id);
    assert!(laptop
        .stack
        .connections()
        .next()
        .unwrap()
        .subflow(2)
        .is_some());
    let phone = topo::host(&sim, c1_id);
    let ctrl = controller_of::<BackupController>(phone).unwrap();
    assert!(ctrl.switchovers.is_empty());
    assert!(phone
        .stack
        .connections()
        .next()
        .unwrap()
        .subflow(1)
        .is_none());
}
