//! Run-level oracle verdicts: wire checks + end-host checks, one call.
//!
//! The `smapp_sim::Oracle` checks everything observable on the wire; the
//! `smapp-mptcp` connection taps check everything observable above the
//! meta socket (stream digests, DSS coverage at the receiver, buffer and
//! sequence bounds). This module is where the two meet after a run:
//! [`conclude`] drains the wire oracle, sweeps every [`Host`] node for
//! connection-level violations, pairs up the two ends of every connection
//! it can find and cross-checks their byte-stream taps — received bytes
//! must be exactly a prefix of the sent bytes, in both directions.
//!
//! Every violation is prefixed with the replayable `(scenario, seed)`
//! pair; wire violations additionally carry their simulated time, so a
//! report line is a complete replay recipe.

use std::fmt;

use smapp_mptcp::{Connection, FourTuple};
use smapp_sim::{oracle, FxHashMap, NodeId, RunSummary, Simulator, Spare, TraceSink};

use crate::host::Host;

/// The complete oracle verdict for one finished run.
pub struct RunVerdict {
    /// Scenario label (for replay lines).
    pub scenario: String,
    /// Seed the world was built with.
    pub seed: u64,
    /// All violations: wire-level first (event order), then host-level.
    pub violations: Vec<String>,
    /// The sink the oracle wrapped (scenarios take their collectors back
    /// out of here).
    pub inner: Option<Box<dyn TraceSink>>,
    /// Whether a wire oracle was installed and checked.
    pub wire_checked: bool,
    /// Wire-feature coverage the oracle observed (see
    /// [`smapp_sim::Coverage`]); empty when no oracle was installed.
    pub wire_coverage: smapp_sim::Coverage,
}

impl RunVerdict {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation when the run was not clean. The message
    /// leads with the replayable `(scenario, seed)` triple.
    #[track_caller]
    pub fn expect_clean(&self) {
        assert!(
            self.is_clean(),
            "protocol-invariant oracle: {} violation(s) in scenario `{}` seed {} \
             (replay: rebuild this scenario with the same seed)\n{}",
            self.violations.len(),
            self.scenario,
            self.seed,
            self.violations.join("\n")
        );
    }
}

/// Every connection with an initial subflow, in node then creation order,
/// with its host and initial-subflow four-tuple.
fn endpoints(sim: &Simulator) -> impl Iterator<Item = (NodeId, &Host, &Connection, FourTuple)> {
    sim.node_ids().flat_map(move |id| {
        let host = sim.node(id).as_any().downcast_ref::<Host>();
        host.into_iter().flat_map(move |host| {
            let conns = host.stack.connections();
            conns.filter_map(move |c| Some((id, host, c, c.subflow(0)?.tuple)))
        })
    })
}

fn reversed(t: &FourTuple) -> FourTuple {
    FourTuple {
        src: t.dst,
        src_port: t.dst_port,
        dst: t.src,
        dst_port: t.src_port,
    }
}

/// Conclude a finished run: drain the wire oracle, sweep every host for
/// end-host violations, and cross-check paired byte streams.
pub fn conclude(
    sim: &mut Simulator,
    summary: &RunSummary,
    scenario: &str,
    seed: u64,
) -> RunVerdict {
    let mut violations = Vec::new();
    // Every line leads with the replayable pair, formatted only for a
    // violation: a clean run allocates no report.
    let mut report = |what: fmt::Arguments<'_>| {
        violations.push(format!("[{scenario} seed={seed}] {what}"));
    };

    // Wire level. A run concluded here is *supposed* to have the oracle
    // installed; a missing one would silently skip every wire invariant,
    // so it is itself a violation (install with
    // `sim.core.set_trace(Box::new(Oracle::new()))` or `Oracle::wrapping`).
    let wire = oracle::conclude(&mut sim.core, summary);
    if !wire.checked {
        report(format_args!(
            "wire oracle was not installed — wire invariants unchecked"
        ));
    }
    for v in &wire.violations {
        report(format_args!("wire {v}"));
    }
    if wire.suppressed > 0 {
        report(format_args!(
            "wire ... and {} more violations suppressed",
            wire.suppressed
        ));
    }

    // Host level: per-connection taps.
    for id in sim.node_ids() {
        let Some(host) = sim.node(id).as_any().downcast_ref::<Host>() else {
            continue;
        };
        for conn in host.stack.connections() {
            for v in &conn.stats.integrity_violations {
                report(format_args!(
                    "host={} conn={:08x} {v}",
                    host.name, conn.token
                ));
            }
        }
    }

    // Stream integrity across hosts: match each endpoint with the endpoint
    // whose initial-subflow tuple is the mirror image (NATted topologies
    // simply produce no match and are covered by the per-host taps alone).
    // Indexed by tuple so a many-client world (fleet: ~1600 endpoints)
    // pairs in linear time; a tuple seen twice keeps its last endpoint.
    // The index (the host's node and the connection's slot per tuple) is
    // kept for the next run on the thread; it is only probed, so its
    // capacity reaches no verdict.
    let mut by_tuple: Spare<FxHashMap<FourTuple, (NodeId, usize)>> = Spare::default();
    for (id, _, conn, tuple) in endpoints(sim) {
        by_tuple.insert(tuple, (id, conn.idx));
    }
    for (_, a_host, a, tuple) in endpoints(sim) {
        let Some(&(b_id, b_idx)) = by_tuple.get(&reversed(&tuple)) else {
            continue;
        };
        let b_host = crate::topo::host(sim, b_id);
        let b = b_host
            .stack
            .connection(b_idx)
            .expect("an endpoint's slot holds its connection");
        if let Some(err) = a.stats.tap_sent.check_against_receiver(&b.stats.tap_recvd) {
            report(format_args!(
                "stream {}:{:08x} -> {}:{:08x}: {err}",
                a_host.name, a.token, b_host.name, b.token
            ));
        }
    }

    RunVerdict {
        scenario: scenario.to_string(),
        seed,
        violations,
        inner: wire.inner,
        wire_checked: wire.checked,
        wire_coverage: wire.coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{self, SERVER_ADDR};
    use smapp_mptcp::apps::{BulkSender, Sink};
    use smapp_mptcp::StackConfig;
    use smapp_sim::{LinkCfg, Oracle, SimTime};

    fn bulk_world(seed: u64, transfer: u64) -> (Simulator, RunSummary) {
        let mut client = Host::new("client", StackConfig::default());
        client.connect_at(
            SimTime::from_millis(10),
            None,
            SERVER_ADDR,
            80,
            Box::new(BulkSender::new(transfer).close_when_done()),
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
        let net = topo::two_path(
            seed,
            client,
            server,
            LinkCfg::mbps_ms(10, 10),
            LinkCfg::mbps_ms(10, 10),
        );
        let mut sim = net.sim;
        sim.core.set_trace(Box::new(Oracle::new()));
        let summary = sim.run_until(SimTime::from_secs(60));
        (sim, summary)
    }

    #[test]
    fn healthy_transfer_is_oracle_clean_both_levels() {
        let (mut sim, summary) = bulk_world(7, 200_000);
        let verdict = conclude(&mut sim, &summary, "verify-test", 7);
        assert!(verdict.wire_checked, "oracle was installed");
        verdict.expect_clean();
    }

    #[test]
    fn missing_wire_oracle_is_itself_a_violation() {
        // A scenario that installs a plain sink (or none) instead of the
        // oracle must not silently pass `expect_clean`.
        let mut client = Host::new("client", StackConfig::default());
        client.connect_at(
            SimTime::from_millis(10),
            None,
            SERVER_ADDR,
            80,
            Box::new(BulkSender::new(10_000).close_when_done()),
        );
        let mut server = Host::new("server", StackConfig::default());
        server.listen(80, Box::new(|| Box::<Sink>::default()));
        let net = topo::two_path(
            3,
            client,
            server,
            LinkCfg::mbps_ms(10, 10),
            LinkCfg::mbps_ms(10, 10),
        );
        let mut sim = net.sim;
        let summary = sim.run_until(SimTime::from_secs(30));
        let verdict = conclude(&mut sim, &summary, "verify-test", 3);
        assert!(!verdict.wire_checked);
        assert_eq!(
            verdict.violations,
            ["[verify-test seed=3] wire oracle was not installed — wire invariants unchecked"]
        );
    }

    #[test]
    fn stream_endpoints_pair_and_counts_match() {
        let (mut sim, summary) = bulk_world(8, 150_000);
        let verdict = conclude(&mut sim, &summary, "verify-test", 8);
        verdict.expect_clean();
        // The server really received what the client wrote: find the two
        // hosts and compare tap counts directly.
        let mut sent = None;
        let mut recvd = None;
        for id in sim.node_ids() {
            if let Some(h) = sim.node(id).as_any().downcast_ref::<Host>() {
                for c in h.stack.connections() {
                    match h.name.as_str() {
                        "client" => sent = Some(c.stats.tap_sent.count()),
                        "server" => recvd = Some(c.stats.tap_recvd.count()),
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(sent, Some(150_000));
        assert_eq!(recvd, Some(150_000));
    }
}
