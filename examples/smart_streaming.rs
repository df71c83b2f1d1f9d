//! §4.3 — smart streaming: keep 64 KB blocks flowing within their
//! one-second deadline despite loss on the initial path.
//!
//! The controller checks progress 500 ms into every block (via the
//! `snd_una` it polls over netlink) and opens a second subflow when fewer
//! than 32 KB of the block were acknowledged; any subflow whose RTO grows
//! past one second is closed immediately.
//!
//! ```text
//! cargo run -p smapp --example smart_streaming
//! ```

use std::time::Duration;

use smapp::prelude::*;
use smapp::{controller_of, ControllerRuntime};
use smapp_mptcp::apps::{Sink, StreamSender};
use smapp_pm::topo::{self, CLIENT_ADDR1, CLIENT_ADDR2, SERVER_ADDR};

fn main() {
    const BLOCK: u64 = 64 * 1024;
    const BLOCKS: u64 = 20;

    let controller = StreamController::new(StreamConfig::paper(CLIENT_ADDR2));
    let mut client = Host::new("streamer", StackConfig::default()).with_user(
        ControllerRuntime::boxed(controller),
        LatencyModel::idle_host(),
    );
    client.connect_at(
        SimTime::from_millis(10),
        Some(CLIENT_ADDR1),
        SERVER_ADDR,
        80,
        Box::new(StreamSender::new(BLOCK, Duration::from_secs(1), BLOCKS)),
    );
    let mut server = Host::new("viewer", StackConfig::default());
    server.listen(
        80,
        Box::new(|| {
            Box::new(Sink {
                close_on_eof: true,
                stop_on_eof: true,
                ..Sink::with_blocks(BLOCK)
            })
        }),
    );

    let net = topo::two_path(
        3,
        client,
        server,
        LinkCfg::mbps_ms(5, 10),
        LinkCfg::mbps_ms(5, 10),
    );
    let mut sim = net.sim;
    sim.core.set_trace(Box::new(smapp_sim::Oracle::new()));
    // The initial path starts losing 30% of packets shortly after start.
    let onset = Netem::on(net.link1).loss(LossPct::ratio(0.30));
    let script = NetemScript::new().at(SimTime::from_millis(500), onset);
    sim.install(script, InstallPolicy::Sort).unwrap();
    let summary = sim.run_until(SimTime::from_secs(120));
    smapp_pm::verify::conclude(&mut sim, &summary, "smart_streaming", 3).expect_clean();
    println!("protocol-invariant oracle: clean");

    // Report per-block delivery delay.
    let starts = topo::host(&sim, net.client)
        .stack
        .connections()
        .next()
        .and_then(|c| c.app())
        .and_then(|a| a.as_any().downcast_ref::<StreamSender>())
        .map(|s| s.block_starts.clone())
        .unwrap_or_default();
    let completions = topo::host(&sim, net.server)
        .stack
        .connections()
        .next()
        .and_then(|c| c.app())
        .and_then(|a| a.as_any().downcast_ref::<Sink>())
        .map(|s| s.block_completions.clone())
        .unwrap_or_default();
    println!("block  delay");
    let mut worst = 0.0f64;
    for (i, (s, c)) in starts.iter().zip(&completions).enumerate() {
        let d = c.saturating_since(*s).as_secs_f64();
        worst = worst.max(d);
        println!("{i:>5}  {d:.3}s");
    }
    println!("worst block delay: {worst:.3}s (deadline: 1s per block)");

    let ctrl = controller_of::<StreamController>(topo::host(&sim, net.client)).unwrap();
    match ctrl.interventions.first() {
        Some(at) => println!("controller opened the second subflow at t = {at}"),
        None => println!("controller never intervened (path was healthy)"),
    }
    for (at, id) in &ctrl.rto_closes {
        println!("controller closed subflow {id} at t = {at} (RTO > 1s)");
    }
}
