//! Property: the typed netem language compiles positionally. For any
//! random netem program, the script's entries are *equal* — entry by
//! entry, times and actions — to the hand-written `(SimTime, DynAction)`
//! list of what each builder call is documented to compile to. The
//! simulator executes exactly those entries.

use std::time::Duration;

use proptest::prelude::*;
use smapp_sim::{
    Dir, DynAction, Eviction, IfaceId, LinkId, LossModel, LossPct, Netem, NetemScript, NodeCommand,
    NodeId, OneWayDelay, QueueLen, RateBps, SimTime, Stage,
};

/// One randomly-drawn builder call, paired with the `DynAction` the
/// hand-written script would push for it.
#[derive(Clone, Debug)]
enum Op {
    Rate(u64),
    Delay(u64),
    Loss(u64),
    Queue(usize),
    QueueEvict(usize),
    Reorder(u64, u64),
    Duplicate(u64),
    Down,
    Up,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..1_000).prop_map(Op::Rate),
        (1u64..200).prop_map(Op::Delay),
        (0u64..=100).prop_map(Op::Loss),
        (1usize..500).prop_map(Op::Queue),
        (1usize..500).prop_map(Op::QueueEvict),
        ((0u64..=100), (1u64..50)).prop_map(|(p, h)| Op::Reorder(p, h)),
        (0u64..=100).prop_map(Op::Duplicate),
        Just(Op::Down),
        Just(Op::Up),
    ]
}

/// A clause: a time, a link, a direction selector, and 1..4 calls.
fn clause_strategy() -> impl Strategy<Value = (u64, usize, u8, Vec<Op>)> {
    (
        0u64..60_000,
        0usize..3,
        0u8..3,
        proptest::collection::vec(op_strategy(), 1..4),
    )
}

fn dir_of(sel: u8) -> Option<Dir> {
    match sel {
        0 => None,
        1 => Some(Dir::AtoB),
        _ => Some(Dir::BtoA),
    }
}

/// Apply one op through the typed builder.
fn apply(clause: Netem, op: &Op) -> Netem {
    match *op {
        Op::Rate(k) => clause.rate(RateBps::kbps(k)),
        Op::Delay(ms) => clause.delay(OneWayDelay::ms(ms)),
        Op::Loss(pct) => clause.loss(LossPct::percent(pct as f64)),
        Op::Queue(pkts) => clause.queue(QueueLen::pkts(pkts)),
        Op::QueueEvict(pkts) => clause.queue_with(QueueLen::pkts(pkts), Eviction::DropNewest),
        Op::Reorder(pct, ms) => clause.reorder(LossPct::percent(pct as f64), OneWayDelay::ms(ms)),
        Op::Duplicate(pct) => clause.duplicate(LossPct::percent(pct as f64)),
        Op::Down => clause.down(),
        Op::Up => clause.up(),
    }
}

/// Push the entry the op is documented to compile to.
fn push_raw(
    script: &mut Vec<(SimTime, DynAction)>,
    at: SimTime,
    link: LinkId,
    dir: Option<Dir>,
    op: &Op,
) {
    let action = match *op {
        Op::Rate(k) => DynAction::SetRate {
            link,
            dir,
            rate_bps: k * 1_000,
        },
        Op::Delay(ms) => DynAction::SetDelay {
            link,
            dir,
            delay: Duration::from_millis(ms),
        },
        Op::Loss(pct) => DynAction::SetLoss {
            link,
            dir,
            loss: LossModel::Bernoulli(pct as f64 / 100.0),
        },
        Op::Queue(pkts) => DynAction::SetQueue {
            link,
            dir,
            pkts,
            evict: Eviction::Keep,
        },
        Op::QueueEvict(pkts) => DynAction::SetQueue {
            link,
            dir,
            pkts,
            evict: Eviction::DropNewest,
        },
        Op::Reorder(pct, ms) => DynAction::SetReorder {
            link,
            dir,
            pct: pct as f64 / 100.0,
            hold: Duration::from_millis(ms),
        },
        Op::Duplicate(pct) => DynAction::SetDuplicate {
            link,
            dir,
            pct: pct as f64 / 100.0,
        },
        Op::Down => DynAction::LinkAdmin { link, up: false },
        Op::Up => DynAction::LinkAdmin { link, up: true },
    };
    script.push((at, action));
}

proptest! {
    /// Every random link-clause program compiles to exactly the entries a
    /// scenario author would have written by hand.
    #[test]
    fn netem_compiles_to_the_identical_hand_written_script(
        clauses in proptest::collection::vec(clause_strategy(), 0..10),
    ) {
        let mut typed = NetemScript::new();
        let mut raw = Vec::new();
        for (t_ms, link, dir_sel, ops) in &clauses {
            let at = SimTime::from_millis(*t_ms);
            let link = LinkId(*link);
            let dir = dir_of(*dir_sel);
            let mut clause = match dir_sel {
                0 => Netem::on(link),
                1 => Netem::on(link).egress(),
                _ => Netem::on(link).ingress(),
            };
            for op in ops {
                clause = apply(clause, op);
                push_raw(&mut raw, at, link, dir, op);
            }
            typed.add(at, clause);
        }
        prop_assert_eq!(typed.entries(), raw);
    }

    /// Peer/iface/world clauses compile positionally too.
    #[test]
    fn control_clauses_compile_positionally(
        node in 0usize..4,
        iface in 0usize..4,
        t_ms in 0u64..10_000,
        strip in any::<bool>(),
        thin in 0u32..8,
    ) {
        let at = SimTime::from_millis(t_ms);
        let typed = NetemScript::new()
            .at(
                at,
                Netem::peer(NodeId(node))
                    .middlebox(None, Stage::StripMptcp, strip)
                    .middlebox(Some(IfaceId(iface)), Stage::AckThin(thin), true)
                    .probe(),
            )
            .at(at, Netem::iface(IfaceId(iface)).down().up())
            .at(at, Netem::world().stop());

        let mut raw = Vec::new();
        for cmd in [
            NodeCommand::Middlebox { iface: None, stage: Stage::StripMptcp, on: strip },
            NodeCommand::Middlebox { iface: Some(IfaceId(iface)), stage: Stage::AckThin(thin), on: true },
            NodeCommand::Probe,
        ] {
            raw.push((at, DynAction::Command { node: NodeId(node), cmd }));
        }
        raw.push((at, DynAction::IfaceAdmin { iface: IfaceId(iface), up: false }));
        raw.push((at, DynAction::IfaceAdmin { iface: IfaceId(iface), up: true }));
        raw.push((at, DynAction::Stop));
        prop_assert_eq!(typed.entries(), raw);
    }
}
