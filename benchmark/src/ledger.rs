//! The per-layer ledger: raw counts, replay timings and probes of one
//! traced run turned into the declared `per_layer` metrics.
//!
//! A layer's `*_share` is its cost per operation (replayed or probed on
//! its own) times the whole-run operation count, over the untraced host
//! time of the same work. Shares overlap a little (the controller's busy
//! time includes its half of the netlink codec), so they are estimates of
//! where time goes, not an exact partition; what no share claims is
//! printed as `sim.world.residual_share`, not hidden.

use crate::bind::Layers;
use crate::measure::{Rep, SimOutputs};
use crate::stats::{mean, median, quantile};

/// Results of the bare-substrate and single-function probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub timer_hold_ns: f64,
    pub timer_cancel_ns: f64,
    pub link_hop_ns: f64,
    pub capable_ns: f64,
    pub join_ns: f64,
}

/// Everything the ledger is computed from.
pub struct Input<'a> {
    /// Untraced repetitions with the oracle on.
    pub on: &'a [Rep],
    /// Phase seconds of each alternating oracle on/off pair.
    pub ablation: &'a [(f64, f64)],
    pub traced: &'a Rep,
    pub probes: Probes,
}

/// Sum the raw numbers of every job of the traced repetition.
pub fn sum_layers(rep: &Rep) -> Layers {
    let mut t = Layers::default();
    for l in rep.outcomes.iter().filter_map(|o| o.layers.as_ref()) {
        macro_rules! sum {
            ($($f:ident),*) => { $( t.$f += l.$f; )* };
        }
        sum!(
            netem_actions,
            records,
            captured,
            violations,
            pkts_sent,
            pkts_delivered,
            drops_loss,
            drops_queue,
            wire_bytes,
            segs,
            payload_bytes,
            pure_acks,
            data_segs,
            opt_dss,
            opt_capable,
            opt_join,
            opt_add_addr,
            opt_other,
            syn_capable,
            syn_join,
            retrans,
            conns,
            subflows,
            reinjections,
            fallbacks,
            ooo_inserts
        );
        t.max_subflows = t.max_subflows.max(l.max_subflows);
        macro_rules! sum_timed {
            ($($f:ident),*) => { $( t.$f.add(l.$f); )* };
        }
        sum_timed!(
            oracle_replay,
            wire_decode,
            wire_encode,
            opt_decode,
            opt_encode,
            reassembly,
            lpm_replay,
            sched_replay,
            nl_decode,
            nl_encode
        );
        t.user.calls += l.user.calls;
        t.user.timers += l.user.timers;
        t.user.busy_ns += l.user.busy_ns;
        t.user.allocs += l.user.allocs;
        t.user.to_user += l.user.to_user;
        t.user.to_kernel += l.user.to_kernel;
        t.user.bytes += l.user.bytes;
        t.pm.events += l.pm.events;
        t.pm.actions += l.pm.actions;
        t.pm.busy_ns += l.pm.busy_ns;
        t.pm.rto_expired += l.pm.rto_expired;
    }
    t
}

/// `(name, value)` for every per-layer metric: the one Rust list of
/// their names (`BENCHMARK.json` declares unit and direction).
pub fn ledger(input: &Input<'_>) -> Vec<(&'static str, f64)> {
    let l = sum_layers(input.traced);
    let p = input.probes;
    let sim: SimOutputs = input.traced.sim_outputs();
    let outcomes = &input.traced.outcomes;
    let worlds = outcomes.len().max(1) as f64;

    // Host nanoseconds of one untraced repetition's timed phases.
    let wall_ns = median(
        &input
            .on
            .iter()
            .map(|r| r.phase_ns() as f64)
            .collect::<Vec<_>>(),
    );
    let per_world = |f: fn(&crate::bind::Outcome) -> u64| {
        let per_rep: Vec<f64> = input
            .on
            .iter()
            .map(|r| r.outcomes.iter().map(f).sum::<u64>() as f64 / worlds)
            .collect();
        median(&per_rep)
    };
    let share = |ns: f64| if wall_ns > 0.0 { ns / wall_ns } else { 0.0 };

    let events: u64 = outcomes.iter().map(|o| o.summary.events).sum();
    let peak_queue = outcomes
        .iter()
        .map(|o| o.summary.peak_queue)
        .max()
        .unwrap_or(0);
    let sim_ns: u64 = outcomes.iter().map(|o| o.summary.ended_ns).sum();

    let options = l.opt_dss + l.opt_capable + l.opt_join + l.opt_add_addr + l.opt_other;
    let frames = l.user.to_user + l.user.to_kernel;
    let handshakes = l.syn_capable + l.syn_join;
    let crypto_ns = l.syn_capable as f64 * p.capable_ns + l.syn_join as f64 * p.join_ns;

    let link_share = share(p.link_hop_ns * l.pkts_delivered as f64);
    let oracle_share = share(l.oracle_replay.per_op() * l.records as f64);
    let wire_share = share((l.wire_decode.per_op() + l.wire_encode.per_op()) * l.segs as f64);
    let options_share = share((l.opt_decode.per_op() + l.opt_encode.per_op()) * options as f64);
    let crypto_share = share(crypto_ns);
    let sched_share = share(l.sched_replay.per_op() * l.data_segs as f64);
    let netlink_share = share((l.nl_decode.per_op() + l.nl_encode.per_op()) * frames as f64);
    let controller_share = share(l.user.busy_ns as f64);
    let pm_share = share(l.pm.busy_ns as f64);
    let residual = 1.0
        - (link_share
            + oracle_share
            + wire_share
            + options_share
            + crypto_share
            + sched_share
            + netlink_share
            + controller_share
            + pm_share);

    let ablation: Vec<f64> = input
        .ablation
        .iter()
        .map(|&(on, off)| (on - off) / on)
        .collect();
    let overhead = share(input.traced.phase_ns() as f64) - 1.0;

    let paper = &sim.paper;
    let penalty = if paper.join_us_user.is_empty() || paper.join_us_kernel.is_empty() {
        0.0
    } else {
        mean(&paper.join_us_user) - mean(&paper.join_us_kernel)
    };

    vec![
        ("sim.world.events", events as f64),
        ("sim.world.peak_queue", peak_queue as f64),
        ("sim.world.sim_s", sim_ns as f64 / 1e9),
        ("sim.world.ns_per_event", wall_ns / events.max(1) as f64),
        (
            "sim.world.events_per_sec",
            events as f64 / (wall_ns / 1e9).max(1e-9),
        ),
        ("sim.world.build_ns_per_world", per_world(|o| o.build_ns)),
        (
            "sim.world.build_allocs_per_world",
            per_world(|o| o.build_allocs),
        ),
        ("sim.world.timer_hold_ns", p.timer_hold_ns),
        ("sim.world.timer_cancel_ns", p.timer_cancel_ns),
        ("sim.world.residual_share", residual),
        ("sim.link.pkts_sent", l.pkts_sent as f64),
        ("sim.link.pkts_delivered", l.pkts_delivered as f64),
        ("sim.link.drops_loss", l.drops_loss as f64),
        ("sim.link.drops_queue", l.drops_queue as f64),
        ("sim.link.wire_bytes", l.wire_bytes as f64),
        ("sim.link.hop_ns", p.link_hop_ns),
        ("sim.link.share", link_share),
        ("sim.router.lpm_ns", l.lpm_replay.per_op()),
        ("sim.oracle.records", l.records as f64),
        ("sim.oracle.violations", l.violations as f64),
        ("sim.oracle.record_ns", l.oracle_replay.per_op()),
        ("sim.oracle.share", oracle_share),
        ("sim.oracle.ablation_share", median(&ablation)),
        ("sim.netem.actions", l.netem_actions as f64),
        ("tcp.wire.segs", l.segs as f64),
        ("tcp.wire.payload_bytes", l.payload_bytes as f64),
        ("tcp.wire.pure_acks", l.pure_acks as f64),
        ("tcp.wire.decode_ns", l.wire_decode.per_op()),
        ("tcp.wire.encode_ns", l.wire_encode.per_op()),
        ("tcp.wire.share", wire_share),
        ("tcp.buffer.reassembly_ns", l.reassembly.per_op()),
        (
            "tcp.buffer.ooo_share",
            l.ooo_inserts as f64 / l.reassembly.ops.max(1) as f64,
        ),
        ("tcp.flight.retrans", l.retrans as f64),
        ("tcp.flight.rto_backoffs", l.pm.rto_expired as f64),
        ("mptcp.options.dss", l.opt_dss as f64),
        ("mptcp.options.mp_capable", l.opt_capable as f64),
        ("mptcp.options.mp_join", l.opt_join as f64),
        ("mptcp.options.add_addr", l.opt_add_addr as f64),
        ("mptcp.options.other", l.opt_other as f64),
        ("mptcp.options.decode_ns", l.opt_decode.per_op()),
        ("mptcp.options.encode_ns", l.opt_encode.per_op()),
        ("mptcp.options.share", options_share),
        ("mptcp.crypto.handshakes", handshakes as f64),
        (
            "mptcp.crypto.handshake_ns",
            crypto_ns / handshakes.max(1) as f64,
        ),
        ("mptcp.crypto.share", crypto_share),
        ("mptcp.scheduler.select_ns", l.sched_replay.per_op()),
        ("mptcp.scheduler.share", sched_share),
        ("mptcp.conn.conns", l.conns as f64),
        ("mptcp.conn.subflows", l.subflows as f64),
        ("mptcp.conn.reinjections", l.reinjections as f64),
        ("mptcp.conn.fallbacks", l.fallbacks as f64),
        ("netlink.channel.to_user", l.user.to_user as f64),
        ("netlink.channel.to_kernel", l.user.to_kernel as f64),
        ("netlink.channel.bytes", l.user.bytes as f64),
        ("netlink.family.decode_ns", l.nl_decode.per_op()),
        ("netlink.family.encode_ns", l.nl_encode.per_op()),
        ("netlink.family.share", netlink_share),
        ("core.controller.calls", l.user.calls as f64),
        ("core.controller.timers", l.user.timers as f64),
        ("core.controller.busy_ns", l.user.busy_ns as f64),
        ("core.controller.allocs", l.user.allocs as f64),
        ("core.controller.share", controller_share),
        ("pm.hook.events", l.pm.events as f64),
        ("pm.hook.actions", l.pm.actions as f64),
        ("pm.hook.busy_ns", l.pm.busy_ns as f64),
        ("pm.hook.share", pm_share),
        ("pm.verify.conclude_ns", per_world(|o| o.conclude_ns)),
        ("trace.overhead_share", overhead),
        (
            "paper.join_delay_us_p50",
            quantile(&paper.join_us_user, 0.50),
        ),
        (
            "paper.join_delay_us_p95",
            quantile(&paper.join_us_user, 0.95),
        ),
        ("paper.join_penalty_us", penalty),
        ("paper.get_ms_p50", quantile(&paper.get_ms, 0.50)),
        ("paper.get_ms_p99", quantile(&paper.get_ms, 0.99)),
        ("paper.switch_ms_p50", quantile(&paper.switch_ms, 0.50)),
        ("paper.switch_ms_p90", quantile(&paper.switch_ms, 0.90)),
        ("paper.block_delay_ms_p50", quantile(&paper.block_ms, 0.50)),
        ("paper.block_delay_ms_p99", quantile(&paper.block_ms, 0.99)),
    ]
}
