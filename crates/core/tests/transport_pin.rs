//! Transport pin: one path-management policy, two transports, one wire.
//!
//! §4.5 runs the kernel's ndiffports strategy in userspace and measures
//! only what the netlink crossings cost. With the crossings free
//! (`LatencyModel::Zero`), a client running a policy as its kernel path
//! manager and a client running the same policy under [`InUserspace`]
//! must put the same bytes on the wire at the same instants. Every
//! packet a world sends is folded — with its time and interface — into a
//! digest, as the wire pin (`smapp-pm`'s `wire_golden`) does, and the
//! two transports' digests are compared world by world.
//!
//! The worlds are two-path clients holding three bulk connections, clean
//! and with the second interface flapping mid-transfer, 2 % loss on both
//! paths, or both. The paths are slow enough (2 Mb/s) that every
//! connection is still sending when the interface comes back, so the full
//! mesh re-meshes in each flap world.

use smapp::{ControllerRuntime, InUserspace, NdiffportsController};
use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_mptcp::{PathManagerHook, StackConfig};
use smapp_netlink::LatencyModel;
use smapp_pm::topo::{self, SERVER_ADDR};
use smapp_pm::{FullMeshPm, Host, NdiffportsPm};
use smapp_sim::{LinkCfg, LossModel, SimTime, TraceEvent, TraceKind, TraceSink};
use smapp_tcp::check::StreamTap;

const SEEDS: [u64; 3] = [1, 2, 3];
const CONN_BYTES: u64 = 400_000;

/// `(packets sent, digest over (time, iface, packet bytes))`.
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

/// One world: `client` opens three bulk connections over `topo::two_path`;
/// returns the wire digest and the bytes the server received.
fn wire(seed: u64, mut client: Host, flap: bool, loss: bool) -> ((u64, u64), u64) {
    for at_ms in [10, 17, 24] {
        client.connect_at(
            SimTime::from_millis(at_ms),
            None,
            SERVER_ADDR,
            80,
            Box::new(BulkSender::new(CONN_BYTES).close_when_done()),
        );
    }
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
    let mut link = LinkCfg::mbps_ms(2, 10);
    if loss {
        link = link.loss(LossModel::Bernoulli(0.02));
    }
    let net = topo::two_path(seed, client, server, link.clone(), link);
    let mut sim = net.sim;
    if flap {
        let if2 = net.client_if2;
        sim.core
            .schedule_iface_admin(SimTime::from_millis(900), if2, false);
        sim.core
            .schedule_iface_admin(SimTime::from_millis(1500), if2, true);
    }
    sim.core.set_trace(Box::<WireSink>::default());
    sim.run_until(SimTime::from_secs(30));
    let sink = sim.core.take_trace().unwrap();
    let sink = sink.as_any().downcast_ref::<WireSink>().unwrap();
    let server = topo::host(&sim, net.server);
    let received = server.stack.connections().map(|c| c.stats.bytes_received);
    ((sink.pkts, sink.tap.digest()), received.sum())
}

/// Both transports of one policy, in every world.
fn pin<P: PathManagerHook + 'static>(
    policy: &str,
    kernel: impl Fn() -> P,
    user: impl Fn() -> InUserspace<P>,
) {
    for seed in SEEDS {
        for (flap, loss) in [(false, false), (true, false), (false, true), (true, true)] {
            let in_kernel = Host::new("client", StackConfig::default()).with_pm(Box::new(kernel()));
            let in_user = Host::new("client", StackConfig::default())
                .with_user(ControllerRuntime::boxed(user()), LatencyModel::Zero);
            let (want, delivered) = wire(seed, in_kernel, flap, loss);
            let (got, _) = wire(seed, in_user, flap, loss);
            let world = format!("{policy} seed {seed} flap {flap} loss {loss}");
            assert_eq!(delivered, 3 * CONN_BYTES, "{world}: transfers finish");
            assert_eq!(got, want, "{world}: the transports' wires differ");
        }
    }
}

#[test]
fn ndiffports_sends_the_same_bytes_from_either_side_of_netlink() {
    pin(
        "ndiffports",
        || NdiffportsPm::new(4),
        || NdiffportsController::new(4),
    );
}

#[test]
fn full_mesh_sends_the_same_bytes_from_either_side_of_netlink() {
    pin("fullmesh", FullMeshPm::new, InUserspace::<FullMeshPm>::new);
}
