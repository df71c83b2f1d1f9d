//! Wire-byte pin for the connection's segment emitters.
//!
//! The smoke golden (`bench/tests/smoke_golden.rs`) pins event counts and
//! end times; a change that flips PSH, mis-scales a window or swaps two
//! options of equal length keeps all of those. This pins the bytes: one
//! `topo::two_path` world per leg, every packet any node hands to an
//! interface folded — with its time and interface — into a digest, and the
//! digest compared with constants recorded from the commit that last
//! *meant* to change what goes on the wire. On a mismatch the failure
//! prints the new table; paste it over [`GOLDEN`] only if the change was
//! intended.

use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{PathManagerHook, PmAction, PmActions, PmEvent, StackConfig, StackView};
use smapp_pm::topo::{self, TwoPathNet, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};
use smapp_pm::{FullMeshPm, Host};
use smapp_sim::{
    InstallPolicy, LinkCfg, LossModel, LossPct, Netem, NetemScript, SimTime, Stage, TraceEvent,
    TraceKind, TraceSink,
};
use smapp_tcp::check::StreamTap;

/// `(leg, packets sent, digest over (time, iface, segment bytes))`.
const GOLDEN: [(&str, u64, u64); 4] = [
    ("fullmesh_loss_datafin", 1074, 0xfc3eefa3fe151b7e),
    ("backup_prio_addaddr", 898, 0x827716767b712417),
    ("pm_reset", 944, 0xcc211c2b0c3971dc),
    ("stripped_fallback_loss", 900, 0x8ae7e668010da25d),
];

#[derive(Default)]
struct WireSink {
    tap: StreamTap,
    pkts: u64,
}

impl TraceSink for WireSink {
    fn record(&mut self, ev: &TraceEvent<'_>) {
        if let TraceKind::Send { iface, .. } = ev.kind {
            self.tap.update(&ev.at.as_nanos().to_le_bytes());
            self.tap.update(&(iface.0 as u64).to_le_bytes());
            self.tap.update(&ev.pkt.payload);
            self.pkts += 1;
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A path manager that is just a closure over the event stream.
struct ScriptPm<F>(F);

impl<F: FnMut(&PmEvent, &mut PmActions) + Send + 'static> PathManagerHook for ScriptPm<F> {
    fn on_event(&mut self, ev: &PmEvent, _view: &dyn StackView, actions: &mut PmActions) {
        (self.0)(ev, actions)
    }
    fn name(&self) -> &'static str {
        "script"
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Open a second subflow from the client's other address once the
/// connection establishes.
fn join_on_estab(ev: &PmEvent, actions: &mut PmActions, backup: bool) {
    if let PmEvent::ConnEstablished { token, tuple, .. } = ev {
        actions.push(PmAction::OpenSubflow {
            token: *token,
            src: CLIENT_ADDR2,
            src_port: 0,
            dst: tuple.dst,
            dst_port: tuple.dst_port,
            backup,
        });
    }
}

fn world(seed: u64, pm: Box<dyn PathManagerHook>, link: LinkCfg) -> TwoPathNet {
    let mut client = Host::new("client", StackConfig::default()).with_pm(pm);
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(BulkSender::new(300_000).close_when_done()),
    );
    let mut server = Host::new("server", StackConfig::default());
    server.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                ..Default::default()
            })
        }),
    );
    topo::two_path(seed, client, server, link.clone(), link)
}

/// Run a leg to its horizon and check the transfer arrived; returns its
/// [`GOLDEN`] row and the world for the leg's own sanity checks.
fn run(
    leg: &'static str,
    mut net: TwoPathNet,
    script: NetemScript,
) -> ((&'static str, u64, u64), TwoPathNet) {
    net.sim.install(script, InstallPolicy::Sort).unwrap();
    net.sim.core.set_trace(Box::<WireSink>::default());
    net.sim.run_until(SimTime::from_secs(60));
    let sink = net.sim.core.take_trace().unwrap();
    let sink = sink.as_any().downcast_ref::<WireSink>().unwrap();
    let server = topo::host(&net.sim, net.server).stack.connections().next();
    assert_eq!(server.unwrap().stats.bytes_received, 300_000);
    ((leg, sink.pkts, sink.tap.digest()), net)
}

#[test]
fn emitted_bytes_match_the_recorded_constants() {
    let clean = || LinkCfg::mbps_ms(5, 10);
    let lossy = || clean().loss(LossModel::Bernoulli(0.02));
    let mut got = Vec::new();

    // (a) Full-mesh join, 2 % loss (RTO + fast retransmit + reinjection),
    // DATA_FIN close and the subflow FIN exchanges.
    let net = world(14, Box::new(FullMeshPm::new()), lossy());
    let (row, net) = run("fullmesh_loss_datafin", net, NetemScript::new());
    let conn = topo::host(&net.sim, net.client).stack.connections().next();
    assert_eq!(conn.unwrap().subflow_count(), 2);
    assert!(conn.unwrap().stats.reinjections > 0);
    got.push(row);

    // (b) Backup join, then MP_PRIO, ADD_ADDR and REMOVE_ADDR riding on
    // pure ACKs.
    let pm = ScriptPm(|ev: &PmEvent, actions: &mut PmActions| {
        join_on_estab(ev, actions, true);
        if let PmEvent::SubflowEstablished { token, id: 1, .. } = *ev {
            actions.push(PmAction::SetBackup {
                token,
                id: 1,
                backup: false,
            });
            actions.push(PmAction::AnnounceAddr {
                token,
                addr_id: 2,
                addr: CLIENT_ADDR2,
            });
            actions.push(PmAction::WithdrawAddr { token, addr_id: 2 });
        }
    });
    let net = world(2, Box::new(pm), clean());
    let (row, net) = run("backup_prio_addaddr", net, NetemScript::new());
    let server = topo::host(&net.sim, net.server).stack.connections().next();
    assert!(!server.unwrap().subflow(1).unwrap().backup, "MP_PRIO seen");
    got.push(row);

    // (c) Path 2 blackholes mid-transfer; the PM answers the first RTO
    // there with a reset close, and the flight is reinjected on path 1.
    let pm = ScriptPm(|ev: &PmEvent, actions: &mut PmActions| {
        join_on_estab(ev, actions, false);
        if let PmEvent::RtoExpired { token, id: 1, .. } = *ev {
            actions.push(PmAction::CloseSubflow {
                token,
                id: 1,
                reset: true,
            });
        }
    });
    let net = world(3, Box::new(pm), clean());
    let blackhole = NetemScript::new().at(
        SimTime::from_millis(200),
        Netem::on(net.link2).loss(LossPct::percent(100.0)),
    );
    let (row, net) = run("pm_reset", net, blackhole);
    let conn = topo::host(&net.sim, net.client).stack.connections().next();
    assert!(conn.unwrap().stats.reinjections > 0);
    got.push(row);

    // (d) The router strips MPTCP options from the first SYN on: plain-TCP
    // fallback, with loss so the retransmission and FIN paths run too.
    let net = world(4, Box::new(smapp_mptcp::NoopPm), lossy());
    let strip_on = Netem::peer(net.router).middlebox(None, Stage::StripMptcp, true);
    let strip = NetemScript::new().at(SimTime::ZERO, strip_on);
    let (row, net) = run("stripped_fallback_loss", net, strip);
    let conn = topo::host(&net.sim, net.client).stack.connections().next();
    assert!(conn.unwrap().is_fallback());
    got.push(row);

    let table: String = got
        .iter()
        .map(|(leg, pkts, digest)| format!("    (\"{leg}\", {pkts}, {digest:#018x}),\n"))
        .collect();
    assert!(got == GOLDEN, "wire bytes changed; new table:\n{table}");
}
