//! Writing your own subflow controller.
//!
//! The whole point of SMAPP: "the specific knowledge of an application can
//! not be known in advance", so the paper delegates path management to the
//! application. This example implements a custom policy from scratch in
//! ~40 lines of controller logic: a **latency ceiling** controller that
//! keeps adding subflows (up to a budget) while the measured smoothed RTT
//! of every established subflow stays above a target.
//!
//! ```text
//! cargo run -p smapp --example custom_controller
//! ```

use std::time::Duration;

use smapp::prelude::*;
use smapp::{controller_of, ControlApi, ControllerRuntime, SubflowController};
use smapp_mptcp::apps::{BulkSender, Sink};
use smapp_pm::topo::{self, SERVER_ADDR};
use smapp_tcp::TcpInfo;

/// Add subflows while all subflows' SRTT exceeds `target`; stop at `max`.
struct LatencyCeiling {
    target_us: u64,
    max_subflows: usize,
    opened: usize,
    conn: Option<(ConnToken, Addr, u16, Addr)>,
    decisions: Vec<String>,
}

impl SubflowController for LatencyCeiling {
    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        if let PmEvent::ConnEstablished {
            token,
            tuple,
            is_client: true,
        } = ev
        {
            self.conn = Some((*token, tuple.src, tuple.dst_port, tuple.dst));
            self.opened = 1;
            api.set_timer(Duration::from_millis(500), 0);
        }
    }

    fn on_timer(&mut self, api: &mut ControlApi<'_, '_>, _token: u64) {
        if let Some((token, ..)) = self.conn {
            api.get_info(token, None, 0);
            api.set_timer(Duration::from_millis(500), 0);
        }
    }

    fn on_info(
        &mut self,
        api: &mut ControlApi<'_, '_>,
        _tag: u64,
        token: ConnToken,
        _conn: Option<(u64, u64)>,
        subflows: &[(SubflowId, TcpInfo)],
    ) {
        let Some((_, src, dst_port, dst)) = self.conn else {
            return;
        };
        if self.opened >= self.max_subflows {
            return;
        }
        let sampled: Vec<u64> = subflows
            .iter()
            .filter(|(_, i)| i.srtt_us > 0)
            .map(|(_, i)| i.srtt_us)
            .collect();
        if !sampled.is_empty() && sampled.iter().all(|&s| s > self.target_us) {
            self.opened += 1;
            self.decisions.push(format!(
                "t={}: all {} subflows above {} us — opening subflow #{}",
                api.now(),
                sampled.len(),
                self.target_us,
                self.opened
            ));
            api.open_subflow(token, src, 0, dst, dst_port, false);
        }
    }
}

fn main() {
    let controller = LatencyCeiling {
        target_us: 25_000, // 25 ms SRTT target
        max_subflows: 4,
        opened: 0,
        conn: None,
        decisions: Vec::new(),
    };
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
            BulkSender::new(20_000_000)
                .close_when_done()
                .stop_sim_when_acked(),
        ),
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

    // An ECMP fabric where queueing pushes the RTT well above 25 ms: the
    // controller reacts by spreading load over more paths.
    let paths: Vec<LinkCfg> = (1..=4).map(|i| LinkCfg::mbps_ms(8, 15 * i)).collect();
    let net = topo::ecmp(9, client, server, &paths);
    let mut sim = net.sim;
    sim.core.set_trace(Box::new(smapp_sim::Oracle::new()));
    let summary = sim.run_until(SimTime::from_secs(300));
    smapp_pm::verify::conclude(&mut sim, &summary, "custom_controller", 9).expect_clean();
    println!("protocol-invariant oracle: clean");

    println!("custom latency-ceiling controller over a 4-path fabric");
    println!("completed at t = {}", summary.ended_at);
    let ctrl = controller_of::<LatencyCeiling>(topo::host(&sim, net.client)).unwrap();
    println!("subflows opened: {}", ctrl.opened);
    for d in &ctrl.decisions {
        println!("  {d}");
    }
    println!(
        "this controller is {} lines of application logic — no kernel module required",
        60
    );
}
