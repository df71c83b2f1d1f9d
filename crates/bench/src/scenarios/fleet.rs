//! Fleet — a many-client workload far beyond anything in the paper.
//!
//! The paper's experiments all run a *single* SMAPP client. The north-star
//! system serves heavy traffic from millions of users, so this scenario
//! opens the fleet dimension: hundreds to thousands of concurrent SMAPP
//! clients, each a full multihomed MPTCP endpoint, doing staggered
//! HTTP/1.0-style GETs against one server through a shared ECMP bottleneck
//! fabric. Half the clients run the in-kernel ndiffports path manager, half
//! run the §4.4 refresh controller behind the netlink boundary — the two
//! production configurations, side by side under contention.
//!
//! Besides opening a workload dimension, the fleet is a deliberate stress
//! test of the simulator's calendar event queue: thousands of concurrent
//! connections keep tens of thousands of timers and in-flight packets
//! queued at once — depths far beyond the ~5.7 k peak the fig3 chain
//! reaches — while per-client `/24` routes exercise the router's memoized
//! longest-prefix-match path.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use smapp::{ControllerRuntime, RefreshConfig, RefreshController};
use smapp_mptcp::apps::{GetClient, GetProgress, GetServer};
use smapp_mptcp::{ConnState, StackConfig};
use smapp_netlink::{decode, LatencyModel, PmNlMessage};
use smapp_pm::topo::{self, SERVER_ADDR};
use smapp_pm::{Host, NdiffportsPm};
use smapp_sim::{
    Addr, AddrPrefix, InstallPolicy, LinkCfg, Netem, NetemScript, Router, SimTime, Simulator,
};

use super::{checked_run, Row, Run, Scenario};
use crate::sweep::fnv1a;

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of concurrent clients (paper scenarios: 1; fleet: 100s–1000s).
    pub clients: usize,
    /// Chained GETs per client.
    pub gets: u32,
    /// Response size per GET, bytes.
    pub response: u64,
    /// Request size, bytes.
    pub request: usize,
    /// Connect-time spacing between consecutive clients.
    pub stagger: Duration,
    /// Subflows per client connection.
    pub n_subflows: u8,
    /// The shared bottleneck: parallel ECMP paths between the two routers.
    pub paths: Vec<LinkCfg>,
    /// Per-client access link.
    pub access: LinkCfg,
    /// Sockdiag probe delay after each client's connect instant: every
    /// client is probed mid-transfer at `connect + probe_after` and again
    /// fleet-wide at 500 ms. `None` disables probing (probes are strictly
    /// read-only, so trajectories are identical either way).
    pub probe_after: Option<Duration>,
    /// Simulation horizon (the run normally drains and stops earlier).
    pub horizon: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            clients: 800,
            gets: 1,
            response: 128 * 1024,
            request: 100,
            stagger: Duration::from_millis(2),
            n_subflows: 2,
            // 4 × 50 Mb/s with spread delays: a 200 Mb/s shared fabric.
            paths: vec![
                LinkCfg::mbps_ms(50, 5),
                LinkCfg::mbps_ms(50, 10),
                LinkCfg::mbps_ms(50, 15),
                LinkCfg::mbps_ms(50, 20),
            ],
            access: LinkCfg::mbps_ms(100, 2),
            probe_after: Some(Duration::from_millis(40)),
            horizon: SimTime::from_secs(120),
        }
    }
}

/// The addressing scheme below supports this many clients before the
/// second octet would overflow (16 + 10_000/200 = 66 ≤ 255, with room to
/// spare); [`Fleet`]'s runner rejects larger fleets up front rather than
/// wrapping octets into colliding addresses.
pub const MAX_CLIENTS: usize = 10_000;

/// Address of client `i` (one unique /24 per client).
fn client_addr(i: usize) -> Addr {
    // 10.16.0.0 upward — disjoint from the 10.0.x.x experiment space.
    Addr::new(10, 16 + (i / 200) as u8, (i % 200) as u8, 1)
}

/// Aggregate results of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// GET cycles expected (`clients × gets`).
    pub expected: u64,
    /// GET cycles completed within the horizon.
    pub completed: u64,
    /// Clients that finished every GET.
    pub clients_done: usize,
    /// Completion time of the last finished GET, nanoseconds.
    pub last_completion_ns: u64,
    /// FNV-1a digest over every client's completion-time series (client
    /// order, nanosecond precision) — the byte-parity fingerprint of the
    /// whole fleet trajectory.
    pub completions_digest: u64,
    /// Sockdiag probes answered across the fleet.
    pub diag_probes: u64,
    /// Connections reported across all sockdiag replies.
    pub diag_conns: u64,
    /// Subflow snapshots (with RTT/cwnd) across all sockdiag replies.
    pub diag_subflows: u64,
    /// Connections caught live mid-transfer: established, with at least
    /// one subflow reporting a nonzero cwnd and a sampled RTT.
    pub diag_live: u64,
    /// FNV-1a digest over the raw encoded sockdiag reply frames of every
    /// client, in client order — byte parity for the introspection plane.
    pub diag_digest: u64,
}

/// The many-client fleet scenario.
pub struct Fleet;

impl Scenario for Fleet {
    const NAME: &'static str = "fleet";
    // PR 24 (wheel event queue, allocation-free reassembly ring, crypto and
    // netlink lookups): 0.143 -> 0.102 full, 0.350 -> 0.217 smoke;
    // ceiling is 2x the higher one.
    // Timers re-armed in place, PM events swapped instead of re-grown,
    // `events` counting dispatches only: 0.217 -> 0.205 smoke, 0.101 -> 0.089 full;
    // ceiling is 2x the higher one.
    // Connection state recycled through per-stack spare sets:
    // 0.205 -> 0.192 smoke, 0.089 -> 0.082 full; ceiling is 2x the higher one.
    // Wire buffers in one allocation, pooled per size class:
    // 0.192 -> 0.188 smoke, 0.082 -> 0.068 full; ceiling is 2x the higher one.
    // Connection storage spared per thread, given back when a world ends:
    // 0.188 -> 0.180 smoke, 0.068 -> 0.066 full; ceiling is 2x the higher one.
    // Info replies and sockdiag dumps built in per-thread scratch, decoded
    // in place: 0.1546 -> 0.1424 smoke, 0.0588 -> 0.0541 full; ceiling is
    // 1.5x the higher one.
    const ALLOC_CEILING: f64 = 0.22;
    type Params = Params;
    type Results = FleetStats;

    fn rows(smoke: bool) -> Vec<Row<Params>> {
        let params = if smoke {
            Params {
                clients: 60,
                response: 32 * 1024,
                ..Default::default()
            }
        } else {
            Params::default()
        };
        vec![Row {
            variant: "mixed",
            seeds: vec![1],
            workload: format!(
                "{} clients x {} GET(s) of {} B, {} ECMP bottleneck paths, mixed kernel/refresh",
                params.clients,
                params.gets,
                params.response,
                params.paths.len()
            ),
            params,
        }]
    }

    fn run(p: &Params, seed: u64) -> Run<FleetStats> {
        assert!(p.clients > 0 && p.gets > 0 && !p.paths.is_empty());
        assert!(
            p.clients <= MAX_CLIENTS,
            "fleet addressing supports at most {MAX_CLIENTS} clients"
        );
        let mut sim = Simulator::new(seed);

        // Server.
        let response = p.response;
        let mut server = Host::new("server", StackConfig::default());
        server.listen(80, Box::new(move || Box::new(GetServer::new(response))));
        let server_id = sim.add_node(Box::new(server));
        let s_if = sim.add_iface(server_id, SERVER_ADDR, "eth0");

        // The two routers around the shared bottleneck.
        let r1_id = sim.add_node(Box::new(Router::new(11)));
        let r2_id = sim.add_node(Box::new(Router::new(22)));
        let r2_s = sim.add_iface(r2_id, Addr::new(10, 0, 9, 254), "toS");
        sim.connect(r2_s, s_if, LinkCfg::mbps_ms(1000, 1));

        let mut r1_ups = Vec::new();
        let mut r2_ups = Vec::new();
        for (i, cfg) in p.paths.iter().enumerate() {
            let a = sim.add_iface(r1_id, Addr::new(10, 1, i as u8, 1), "up");
            let b = sim.add_iface(r2_id, Addr::new(10, 1, i as u8, 2), "down");
            sim.connect(a, b, cfg.clone());
            r1_ups.push(a);
            r2_ups.push(b);
        }

        // Clients: even indices run the in-kernel ndiffports PM, odd indices
        // the userspace refresh controller — the fleet is heterogeneous.
        let mut progress: Vec<Rc<RefCell<GetProgress>>> = Vec::with_capacity(p.clients);
        let mut client_ids: Vec<smapp_sim::NodeId> = Vec::with_capacity(p.clients);
        let mut client_routes: Vec<(AddrPrefix, smapp_sim::IfaceId)> = Vec::with_capacity(p.clients);
        for i in 0..p.clients {
            let mut client = if i % 2 == 0 {
                Host::new(format!("c{i}"), StackConfig::default())
                    .with_pm(Box::new(NdiffportsPm::new(p.n_subflows)))
            } else {
                Host::new(format!("c{i}"), StackConfig::default()).with_user(
                    ControllerRuntime::boxed(RefreshController::new(RefreshConfig {
                        n: p.n_subflows,
                        ..Default::default()
                    })),
                    LatencyModel::idle_host(),
                )
            };
            let prog = Rc::new(RefCell::new(GetProgress::default()));
            client.connect_at(
                SimTime::from_millis(10) + p.stagger * i as u32,
                None,
                SERVER_ADDR,
                80,
                Box::new(GetClient {
                    remaining: p.gets - 1,
                    request_size: p.request,
                    dst: SERVER_ADDR,
                    dst_port: 80,
                    progress: Rc::clone(&prog),
                    stop_when_done: false,
                }),
            );
            progress.push(prog);

            let addr = client_addr(i);
            let client_id = sim.add_node(Box::new(client));
            client_ids.push(client_id);
            let c_if = sim.add_iface(client_id, addr, "eth0");
            let r_if = sim.add_iface(
                r1_id,
                Addr::new(addr.octets()[0], addr.octets()[1], addr.octets()[2], 254),
                "toC",
            );
            sim.connect(c_if, r_if, p.access.clone());
            client_routes.push((AddrPrefix::new(addr, 24), r_if));
        }

        {
            let r1 = sim
                .node_mut(r1_id)
                .as_any_mut()
                .downcast_mut::<Router>()
                .unwrap();
            r1.add_route("10.0.9.0/24".parse().unwrap(), r1_ups);
            for (prefix, iface) in client_routes {
                r1.add_route(prefix, vec![iface]);
            }
        }
        {
            let r2 = sim
                .node_mut(r2_id)
                .as_any_mut()
                .downcast_mut::<Router>()
                .unwrap();
            r2.add_route("10.0.9.0/24".parse().unwrap(), vec![r2_s]);
            // Return traffic to every client funnels back over the bottleneck.
            r2.add_route("10.0.0.0/8".parse().unwrap(), r2_ups);
        }

        // Sockdiag sweep: probe every client mid-transfer (shortly after its
        // own staggered connect) and once more fleet-wide at 500 ms. Probes
        // are strictly read-only — no RNG draws, no sends — so a probed run's
        // trajectory is bit-identical to an unprobed one.
        if let Some(after) = p.probe_after {
            let mut script = NetemScript::new();
            for (i, &id) in client_ids.iter().enumerate() {
                let connect = SimTime::from_millis(10) + p.stagger * i as u32;
                script.add(connect + after, Netem::peer(id).probe());
                script.add(SimTime::from_millis(500), Netem::peer(id).probe());
            }
            sim.install(script, InstallPolicy::Sort).unwrap();
        }

        // Watchdog: the refresh controllers re-arm their poll timers for as
        // long as they live, so the event queue never drains on its own. A
        // 1 Hz script watches aggregate progress and stops the run as soon as
        // every GET has completed — `ended_at` then reports the fleet's true
        // completion second instead of the horizon.
        let expected = p.clients as u64 * p.gets as u64;
        let watch: Rc<Vec<Rc<RefCell<GetProgress>>>> = Rc::new(progress.clone());
        for t in 1..=(p.horizon.as_secs_f64().ceil() as u64) {
            let watch = Rc::clone(&watch);
            sim.at(SimTime::from_secs(t), move |core| {
                let done: u64 = watch.iter().map(|c| c.borrow().completed as u64).sum();
                if done >= expected {
                    core.request_stop();
                }
            });
        }

        let (summary, _) = checked_run(&mut sim, None, p.horizon, Self::NAME, seed);

        // Fold every client's completion series into the stats.
        let mut completed = 0u64;
        let mut clients_done = 0usize;
        let mut last_ns = 0u64;
        let mut digest_bytes: Vec<u8> = Vec::with_capacity(p.clients * 16);
        for prog in &progress {
            let prog = prog.borrow();
            completed += prog.completed as u64;
            if prog.completed >= p.gets {
                clients_done += 1;
            }
            for t in &prog.completions {
                let ns = t.as_nanos();
                last_ns = last_ns.max(ns);
                digest_bytes.extend_from_slice(&ns.to_le_bytes());
            }
            // Client delimiter keeps (a,bc) and (ab,c) distributions distinct.
            digest_bytes.push(0xFF);
        }
        // Fold the sockdiag plane into the stats: decode every stored reply
        // frame (exercising the full netlink wire path) and fingerprint the
        // raw bytes for per-seed parity.
        let mut diag_probes = 0u64;
        let mut diag_conns = 0u64;
        let mut diag_subflows = 0u64;
        let mut diag_live = 0u64;
        let mut diag_bytes: Vec<u8> = Vec::new();
        for &id in &client_ids {
            let host = topo::host(&sim, id);
            diag_probes += host.diag.probes;
            for frame in &host.diag.replies {
                diag_bytes.extend_from_slice(frame);
                let Ok(PmNlMessage::DiagReply { conns, .. }) = decode(frame) else {
                    panic!("stored probe reply must decode as a diag reply");
                };
                for c in &conns {
                    diag_conns += 1;
                    diag_subflows += c.subflows.len() as u64;
                    if c.state == ConnState::Established
                        && c.subflows.iter().any(|(_, i)| i.cwnd > 0 && i.srtt_us > 0)
                    {
                        diag_live += 1;
                    }
                }
            }
        }
        Run {
            summary,
            results: FleetStats {
                expected,
                completed,
                clients_done,
                last_completion_ns: last_ns,
                completions_digest: fnv1a(&digest_bytes),
                diag_probes,
                diag_conns,
                diag_subflows,
                diag_live,
                diag_digest: fnv1a(&diag_bytes),
            },
        }
    }

    fn trajectory(run: &Run<FleetStats>) -> String {
        let stats = &run.results;
        format!(
            "completed={}/{} clients_done={} last_ns={} digest={:016x} \
             diag=p{}/c{}/s{} ddigest={:016x}",
            stats.completed,
            stats.expected,
            stats.clients_done,
            stats.last_completion_ns,
            stats.completions_digest,
            stats.diag_probes,
            stats.diag_conns,
            stats.diag_subflows,
            stats.diag_digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            clients: 24,
            gets: 2,
            response: 24 * 1024,
            stagger: Duration::from_millis(5),
            paths: vec![LinkCfg::mbps_ms(50, 5), LinkCfg::mbps_ms(50, 10)],
            ..Default::default()
        }
    }

    #[test]
    fn fleet_completes_and_is_deterministic() {
        let p = small();
        let Run {
            summary: s1,
            results: f1,
        } = Fleet::run(&p, 3);
        assert_eq!(
            f1.completed, f1.expected,
            "all GETs complete within the horizon: {f1:?}"
        );
        assert_eq!(f1.clients_done, p.clients);
        assert!(f1.last_completion_ns > 0);
        // The watchdog stops the run at the first whole second after the
        // fleet finishes — well before the horizon.
        assert_eq!(s1.reason, smapp_sim::StopReason::Requested);
        assert!(s1.ended_at < p.horizon);
        // The queue holds at least one pending item per client early on.
        assert!(
            s1.peak_queue > p.clients,
            "fleet stresses the event queue: peak {} with {} clients",
            s1.peak_queue,
            p.clients
        );
        // The sockdiag sweep answered every scripted probe (two per
        // client) and caught real mid-run state: connections with subflow
        // RTT/cwnd snapshots, at least one of them live mid-transfer.
        assert_eq!(f1.diag_probes, 2 * p.clients as u64);
        assert!(f1.diag_conns > 0, "dumps report connections: {f1:?}");
        assert!(f1.diag_subflows > 0, "dumps report subflows: {f1:?}");
        assert!(
            f1.diag_live > 0,
            "a mid-transfer probe sees established conns with cwnd/RTT: {f1:?}"
        );
        // Same seed ⇒ bit-identical trajectory (digest covers every
        // completion instant of every client), including the encoded
        // sockdiag reply bytes.
        let again = Fleet::run(&p, 3);
        assert_eq!(f1, again.results);
        assert_eq!(s1.events, again.summary.events);
        assert_eq!(s1.ended_at, again.summary.ended_at);
        // Different seed ⇒ different micro-trajectory.
        let f3 = Fleet::run(&p, 4).results;
        assert_ne!(f1.completions_digest, f3.completions_digest);
    }

    #[test]
    fn probes_are_invisible_to_the_trajectory() {
        // A probed run and an unprobed run of the same seed must agree on
        // every completion instant: sockdiag is a pure observer.
        let p = small();
        let probed = Fleet::run(&p, 9).results;
        let unprobed_p = Params {
            probe_after: None,
            ..small()
        };
        let unprobed = Fleet::run(&unprobed_p, 9).results;
        assert!(probed.diag_probes > 0 && unprobed.diag_probes == 0);
        assert_eq!(probed.completions_digest, unprobed.completions_digest);
        assert_eq!(probed.last_completion_ns, unprobed.last_completion_ns);
    }
}
