//! Property tests for [`DynamicsScript`] install paths: stable ordering of
//! same-timestamp actions, and the `InstallPolicy::Strict` policy rejecting
//! exactly the out-of-order inputs that `InstallPolicy::Sort` reorders.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smapp_sim::{
    DynAction, DynamicsScript, Eviction, InstallPolicy, LinkId, SimTime, Simulator, StopReason,
};

/// Build a script from millisecond timestamps; each action's `pkts` field
/// encodes its insertion index so ordering is observable after the sort.
fn script_from(times_ms: &[u64]) -> DynamicsScript {
    let mut s = DynamicsScript::new();
    for (i, &t) in times_ms.iter().enumerate() {
        s.push(
            SimTime::from_millis(t),
            DynAction::SetQueue {
                link: LinkId(0),
                dir: None,
                pkts: i,
                evict: Eviction::Keep,
            },
        );
    }
    s
}

/// The insertion index an entry carries.
fn index_of(a: &DynAction) -> usize {
    match a {
        DynAction::SetQueue { pkts, .. } => *pkts,
        _ => unreachable!("scripts here only carry SetQueue"),
    }
}

/// First index whose time precedes its predecessor's, if any — the spec
/// for `validate()`.
fn first_violation(times_ms: &[u64]) -> Option<usize> {
    times_ms.windows(2).position(|w| w[1] < w[0]).map(|i| i + 1)
}

/// An in-order script installs — and then executes — identically under
/// either policy.
#[test]
fn either_policy_executes_an_in_order_script() {
    let run = |policy| {
        let mut sim = Simulator::new(1);
        let script = DynamicsScript::new().at(SimTime::from_millis(1), DynAction::Stop);
        sim.install(script, policy).unwrap();
        sim.run()
    };
    let (sorted, strict) = (run(InstallPolicy::Sort), run(InstallPolicy::Strict));
    assert_eq!(sorted.reason, StopReason::Requested);
    assert_eq!(sorted, strict);
}

proptest! {
    #[test]
    fn validate_rejects_exactly_out_of_order_inputs(
        times in proptest::collection::vec(0u64..50, 0..12),
    ) {
        let script = script_from(&times);
        match (script.validate(), first_violation(&times)) {
            (Ok(()), None) => {}
            (Err(e), Some(want)) => {
                prop_assert_eq!(e.index, want);
                prop_assert_eq!(e.at, SimTime::from_millis(times[want]));
                prop_assert_eq!(e.prev, SimTime::from_millis(times[want - 1]));
            }
            (got, want) => {
                return Err(TestCaseError::Fail(format!(
                    "validate() disagrees with the spec: got {got:?}, first \
                     out-of-order index {want:?} for times {times:?}"
                )));
            }
        }
    }

    #[test]
    fn into_ordered_is_a_stable_sort_by_time(
        times in proptest::collection::vec(0u64..10, 0..12),
    ) {
        // Reference: stable sort of (time, insertion index) pairs.
        let mut want: Vec<(u64, usize)> =
            times.iter().copied().zip(0..).collect();
        want.sort_by_key(|&(t, _)| t);

        let ordered = script_from(&times).into_ordered();
        let got: Vec<(u64, usize)> = ordered
            .iter()
            .map(|e| (e.at.as_nanos() / 1_000_000, index_of(&e.action)))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn strict_install_rejects_exactly_what_lenient_install_reorders(
        times in proptest::collection::vec(0u64..50, 0..12),
    ) {
        let strict = {
            let mut sim = Simulator::new(1);
            sim.install(script_from(&times), InstallPolicy::Strict)
        };
        match first_violation(&times) {
            None => prop_assert!(strict.is_ok(), "in-order scripts install strictly"),
            Some(idx) => {
                let e = strict.expect_err("out-of-order scripts are rejected");
                prop_assert_eq!(e.index, idx);
            }
        }
        // The lenient path accepts everything (normalizing deterministically).
        let mut sim = Simulator::new(1);
        sim.install(script_from(&times), InstallPolicy::Sort).unwrap();
    }
}
