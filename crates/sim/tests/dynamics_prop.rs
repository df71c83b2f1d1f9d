//! Property test for [`Simulator::install`]: a script's entries execute in
//! stable time order — by instant, and entries sharing an instant in the
//! order they were added — whatever order they were added in.

use std::any::Any;

use proptest::prelude::*;
use smapp_sim::{
    Ctx, IfaceId, InstallPolicy, Netem, NetemScript, Node, NodeCommand, Packet, SimTime, Simulator,
    Stage,
};

/// Records each command it receives, with the instant it ran; the
/// `Stage::AckThin` period carries the entry's insertion index.
#[derive(Default)]
struct Recorder(Vec<(SimTime, u32)>);

impl Node for Recorder {
    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: &NodeCommand) {
        if let NodeCommand::Middlebox {
            stage: Stage::AckThin(index),
            ..
        } = *cmd
        {
            self.0.push((ctx.now(), index));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

proptest! {
    #[test]
    fn install_executes_entries_in_stable_time_order(
        times in proptest::collection::vec(0u64..10, 0..12),
    ) {
        // Reference: stable sort of (time, insertion index) pairs.
        let mut want: Vec<(SimTime, u32)> =
            times.iter().map(|&t| SimTime::from_millis(t)).zip(0..).collect();
        want.sort_by_key(|&(at, _)| at);

        let mut sim = Simulator::new(1);
        let node = sim.add_node(Box::new(Recorder::default()));
        let mut script = NetemScript::new();
        for (&t, index) in times.iter().zip(0..) {
            script.add(SimTime::from_millis(t), Netem::peer(node).middlebox(None, Stage::AckThin(index), true));
        }
        sim.install(script, InstallPolicy::Sort).unwrap();
        sim.run();
        prop_assert_eq!(&sim.node_as::<Recorder>(node).unwrap().0, &want);
    }
}
