//! End-to-end tests over the real network simulator: kernel path managers
//! building meshes across routed topologies, and a minimal userspace
//! process driving the stack through genuine netlink frames.

use std::time::Duration;

use bytes::Bytes;
use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{ConnState, StackConfig};
use smapp_netlink::{
    decode, encode_command, LatencyModel, PmNlCommand, PmNlMessage, UserCtx, UserProcess,
};
use smapp_pm::topo::{self, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::{FullMeshPm, Host, NdiffportsPm};
use smapp_sim::{LinkCfg, SimTime};

fn client_host() -> Host {
    Host::new("client", StackConfig::default())
}

fn server_host() -> Host {
    let mut h = Host::new("server", StackConfig::default());
    h.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );
    h
}

fn sink_bytes(sim: &smapp_sim::Simulator, server: smapp_sim::NodeId) -> u64 {
    topo::host(sim, server)
        .stack
        .connections()
        .next()
        .map(|c| {
            c.app()
                .unwrap()
                .as_any()
                .downcast_ref::<Sink>()
                .unwrap()
                .received
        })
        .unwrap_or(0)
}

#[test]
fn fullmesh_builds_two_subflows_over_two_paths() {
    let mut client = client_host().with_pm(Box::new(FullMeshPm::new()));
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(2_000_000).close_when_done()),
    );
    let net = topo::two_path(
        1,
        client,
        server_host(),
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));

    let client = topo::host(&sim, net.client);
    let conn = client.stack.connections().next().unwrap();
    assert_eq!(conn.state, ConnState::Closed, "transfer finished");
    // The mesh created a second subflow from the second interface.
    let sf1 = conn.subflow(1).expect("second subflow exists");
    assert_eq!(sf1.tuple.src, CLIENT_ADDR2);
    assert_eq!(sink_bytes(&sim, net.server), 2_000_000);
    // Both access links carried data packets.
    let l1 = sim.core.link_stats(net.link1, smapp_sim::Dir::AtoB);
    let l2 = sim.core.link_stats(net.link2, smapp_sim::Dir::AtoB);
    assert!(
        l1.delivered > 100,
        "link1 carried packets: {}",
        l1.delivered
    );
    assert!(
        l2.delivered > 100,
        "link2 carried packets: {}",
        l2.delivered
    );
}

#[test]
fn fullmesh_aggregates_bandwidth() {
    // 2 MB over one 5 Mb/s path ≈ 3.4 s; over two ≈ half that. Require the
    // fullmesh run to beat the single-path run clearly.
    let time_with = |mesh: bool| {
        let mut client = client_host();
        if mesh {
            client = client.with_pm(Box::new(FullMeshPm::new()));
        }
        client.connect_at(
            SimTime::from_millis(10),
            None,
            SERVER_ADDR,
            80,
            Box::new(
                BulkSender::new(2_000_000)
                    .close_when_done()
                    .stop_sim_when_acked(),
            ),
        );
        let net = topo::two_path(
            2,
            client,
            server_host(),
            LinkCfg::mbps_ms(5, 10),
            LinkCfg::mbps_ms(5, 10),
        );
        let mut sim = net.sim;
        let summary = sim.run_until(SimTime::from_secs(60));
        summary.ended_at
    };
    let single = time_with(false);
    let meshed = time_with(true);
    assert!(
        meshed.as_secs_f64() < single.as_secs_f64() * 0.7,
        "mesh {meshed} vs single {single}"
    );
}

#[test]
fn ndiffports_opens_n_subflows_over_ecmp() {
    let mut client = client_host().with_pm(Box::new(NdiffportsPm::new(5)));
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(1_000_000).close_when_done()),
    );
    let paths: Vec<LinkCfg> = (0..4).map(|i| LinkCfg::mbps_ms(8, 10 * (i + 1))).collect();
    let net = topo::ecmp(3, client, server_host(), &paths);
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));

    let client = topo::host(&sim, net.client);
    let conn = client.stack.connections().next().unwrap();
    // 5 subflows total were created (0..=4).
    assert!(conn.subflow(4).is_some(), "five subflows exist");
    assert_eq!(sink_bytes(&sim, net.server), 1_000_000);
    // The parallel paths were actually used (ECMP spread).
    let used = net
        .paths
        .iter()
        .filter(|&&l| sim.core.link_stats(l, smapp_sim::Dir::AtoB).delivered > 0)
        .count();
    assert!(used >= 2, "ECMP must spread 5 subflows over >=2 paths");
}

/// A minimal userspace controller: subscribes to everything; when the
/// connection establishes, opens one extra subflow from the second
/// interface — the ndiffports-in-userspace shape of §4.5, reduced to its
/// essentials. Everything crosses the boundary as real netlink frames.
#[derive(Default)]
struct MiniController {
    /// Establishment events seen.
    estabs: u32,
    /// Acks received from the kernel.
    acks: u32,
    seq: u32,
}

impl UserProcess for MiniController {
    fn on_start(&mut self, ctx: &mut UserCtx<'_>) {
        self.seq += 1;
        ctx.send(encode_command(
            self.seq,
            &PmNlCommand::Subscribe {
                mask: smapp_mptcp::EVENT_MASK_ALL,
            },
        ));
    }
    fn on_message(&mut self, ctx: &mut UserCtx<'_>, frame: Bytes) {
        match decode(&frame) {
            Ok(PmNlMessage::Event(smapp_mptcp::PmEvent::ConnEstablished {
                token,
                tuple,
                is_client: true,
            })) => {
                self.estabs += 1;
                self.seq += 1;
                ctx.send(encode_command(
                    self.seq,
                    &PmNlCommand::Action(smapp_mptcp::PmAction::OpenSubflow {
                        token,
                        src: CLIENT_ADDR2,
                        src_port: 0,
                        dst: tuple.dst,
                        dst_port: tuple.dst_port,
                        backup: false,
                    }),
                ));
            }
            Ok(PmNlMessage::Ack { errno, .. }) => {
                assert_eq!(errno, 0, "kernel must accept the command");
                self.acks += 1;
            }
            _ => {}
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
fn userspace_controller_creates_subflow_through_netlink() {
    let mut client = client_host().with_user(
        Box::new(MiniController::default()),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(500_000).close_when_done()),
    );
    let net = topo::two_path(
        4,
        client,
        server_host(),
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(60));

    let client = topo::host(&sim, net.client);
    let ctrl = client.user_as::<MiniController>().unwrap();
    assert_eq!(ctrl.estabs, 1);
    assert!(ctrl.acks >= 2, "subscribe + subflow-create acks");
    let conn = client.stack.connections().next().unwrap();
    let sf1 = conn.subflow(1).expect("controller-created subflow");
    assert_eq!(sf1.tuple.src, CLIENT_ADDR2);
    assert_eq!(sink_bytes(&sim, net.server), 500_000);
}

#[test]
fn unsubscribed_controller_sees_nothing() {
    /// Controller that never subscribes: must receive zero events.
    #[derive(Default)]
    struct Deaf {
        messages: u32,
    }
    impl UserProcess for Deaf {
        fn on_message(&mut self, _ctx: &mut UserCtx<'_>, _frame: Bytes) {
            self.messages += 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let mut client = client_host().with_user(Box::new(Deaf::default()), LatencyModel::idle_host());
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(10_000).close_when_done()),
    );
    let net = topo::two_path(
        5,
        client,
        server_host(),
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(30));
    let client = topo::host(&sim, net.client);
    assert_eq!(client.user_as::<Deaf>().unwrap().messages, 0);
    assert_eq!(
        sink_bytes(&sim, net.server),
        10_000,
        "data plane unaffected"
    );
}

#[test]
fn firewall_topology_passes_traffic() {
    let mut client = client_host();
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(100_000).close_when_done()),
    );
    let net = topo::firewalled(
        6,
        client,
        server_host(),
        Duration::from_secs(100),
        smapp_sim::DenyPolicy::SilentDrop,
        false,
        LinkCfg::mbps_ms(10, 5),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sink_bytes(&sim, net.server), 100_000);
}

/// One probed fullmesh run: returns the client's encoded sockdiag reply
/// frames, probed mid-transfer at 0.5 s, 1 s and 1.5 s.
fn probed_run(seed: u64) -> Vec<Bytes> {
    let mut client = client_host().with_pm(Box::new(FullMeshPm::new()));
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(2_000_000).close_when_done()),
    );
    let net = topo::two_path(
        seed,
        client,
        server_host(),
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.install(
        smapp_sim::NetemScript::new()
            .at(
                SimTime::from_millis(500),
                smapp_sim::Netem::peer(net.client).probe(),
            )
            .at(
                SimTime::from_millis(1000),
                smapp_sim::Netem::peer(net.client).probe(),
            )
            .at(
                SimTime::from_millis(1500),
                smapp_sim::Netem::peer(net.client).probe(),
            ),
        smapp_sim::InstallPolicy::Sort,
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(60));
    topo::host(&sim, net.client).diag.replies.clone()
}

#[test]
fn sockdiag_dumps_are_byte_identical_per_seed_and_see_live_state() {
    for seed in [1u64, 7, 42] {
        let a = probed_run(seed);
        let b = probed_run(seed);
        assert_eq!(a, b, "seed {seed}: probed dumps must be byte-identical");
        assert_eq!(a.len(), 3, "one reply per scripted probe");
        // Mid-transfer dumps report the live connection: established, not
        // fallen back, with per-subflow RTT/cwnd snapshots.
        let mut live_subflows = 0usize;
        for frame in &a {
            let PmNlMessage::DiagReply { conns, .. } = decode(frame).unwrap() else {
                panic!("stored probe reply must decode as a diag reply");
            };
            assert_eq!(conns.len(), 1, "one connection on the client");
            let c = &conns[0];
            assert_eq!(c.state, ConnState::Established);
            assert!(!c.fallback_inferred);
            assert!(c.meta_snd_nxt >= c.meta_una);
            for (_, info) in &c.subflows {
                if info.cwnd > 0 && info.srtt_us > 0 {
                    live_subflows += 1;
                }
            }
        }
        assert!(
            live_subflows > 0,
            "seed {seed}: at least one subflow snapshot carries cwnd/RTT"
        );
    }
}

/// Opens two more subflows when the connection establishes, closes the
/// second one 300 ms later and, 300 ms after that, sends three `GetInfo`
/// queries: every subflow, the closed one alone, and an unknown token.
#[derive(Default)]
struct InfoQuerier {
    token: Option<smapp_mptcp::ConnToken>,
    seq: u32,
    /// The `InfoReply` messages, in arrival order.
    replies: Vec<PmNlMessage>,
}

/// A token no connection of the test world carries.
const UNKNOWN_TOKEN: smapp_mptcp::ConnToken = 0x0BAD_F00D;

impl InfoQuerier {
    fn command(&mut self, ctx: &mut UserCtx<'_>, cmd: PmNlCommand) {
        self.seq += 1;
        ctx.send(encode_command(self.seq, &cmd));
    }
}

impl UserProcess for InfoQuerier {
    fn on_start(&mut self, ctx: &mut UserCtx<'_>) {
        let mask = smapp_mptcp::EVENT_MASK_ALL;
        self.command(ctx, PmNlCommand::Subscribe { mask });
    }
    fn on_message(&mut self, ctx: &mut UserCtx<'_>, frame: Bytes) {
        match decode(&frame).unwrap() {
            PmNlMessage::Event(smapp_mptcp::PmEvent::ConnEstablished {
                token,
                tuple,
                is_client: true,
            }) => {
                self.token = Some(token);
                for src in [CLIENT_ADDR2, tuple.src] {
                    let open = smapp_mptcp::PmAction::OpenSubflow {
                        token,
                        src,
                        src_port: 0,
                        dst: tuple.dst,
                        dst_port: tuple.dst_port,
                        backup: false,
                    };
                    self.command(ctx, PmNlCommand::Action(open));
                }
                ctx.set_timer(Duration::from_millis(300), 1);
            }
            reply @ PmNlMessage::InfoReply { .. } => self.replies.push(reply),
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut UserCtx<'_>, tok: u64) {
        let token = self.token.unwrap();
        if tok == 1 {
            let close = smapp_mptcp::PmAction::CloseSubflow {
                token,
                id: 1,
                reset: true,
            };
            self.command(ctx, PmNlCommand::Action(close));
            ctx.set_timer(Duration::from_millis(300), 2);
            return;
        }
        for (token, id) in [(token, None), (token, Some(1)), (UNKNOWN_TOKEN, None)] {
            self.command(ctx, PmNlCommand::GetInfo { token, id });
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What an info reply carries: the live subflows in id order with
/// `(meta_una, meta_snd_nxt)` for a query of every subflow, the named
/// subflow even once closed for a query of one, and nothing for a token
/// the host does not know. The transfer is over before the queries, so
/// the stack read after the run is the stack the replies saw.
#[test]
fn info_replies_carry_live_subflows_closed_ones_on_request_and_nothing_unknown() {
    let mut client = client_host().with_user(Box::new(InfoQuerier::default()), LatencyModel::Zero);
    client.connect_at(
        SimTime::from_millis(10),
        None,
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(50_000)),
    );
    let net = topo::two_path(
        6,
        client,
        server_host(),
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.run_until(SimTime::from_secs(2));

    let client = topo::host(&sim, net.client);
    let q = client.user_as::<InfoQuerier>().unwrap();
    let token = q.token.expect("connection established");
    let conn = client.stack.conn_by_token(token).unwrap();
    assert_eq!(conn.state, ConnState::Established);
    assert_eq!(conn.subflow_count(), 3);
    assert_eq!(conn.live_subflow_ids(), vec![0, 2], "subflow 1 is closed");
    assert_eq!(sink_bytes(&sim, net.server), 50_000, "transfer over");
    let info = conn.info();
    let snapshot = |id: u8| (id, conn.subflow_info(id).unwrap());
    assert_eq!(snapshot(1).1.state, smapp_tcp::TcpStateInfo::Closed);

    // The three queries were the last commands sent.
    let query_seq = q.seq - 2;
    assert_eq!(
        q.replies,
        [
            PmNlMessage::InfoReply {
                seq: query_seq,
                token,
                conn: Some((info.meta_una, info.meta_snd_nxt)),
                subflows: vec![snapshot(0), snapshot(2)],
            },
            PmNlMessage::InfoReply {
                seq: query_seq + 1,
                token,
                conn: Some((info.meta_una, info.meta_snd_nxt)),
                subflows: vec![snapshot(1)],
            },
            PmNlMessage::InfoReply {
                seq: query_seq + 2,
                token: UNKNOWN_TOKEN,
                conn: None,
                subflows: vec![],
            },
        ]
    );
}
