//! The Netlink path manager — the paper's kernel-side contribution.
//!
//! `NetlinkPm` plugs into the in-kernel path-manager interface
//! ([`PathManagerHook`]) like `fullmesh` and `ndiffports` do, but instead
//! of deciding anything itself it *delegates*: every event is encoded as a
//! generic-netlink frame and queued toward the subflow controller in
//! userspace. Commands flow the other way (decoded and applied by the
//! host). "The subflow controller receives only notifications for events
//! it registered to" — enforced here with the subscription mask.

use bytes::Bytes;
use smapp_mptcp::{PathManagerHook, PmActions, PmEvent, StackView};
use smapp_netlink::encode_event;
use smapp_sim::Spare;

/// The kernel side of the SMAPP architecture.
#[derive(Debug)]
pub struct NetlinkPm {
    /// Subscription mask (bits = [`PmEvent::mask_bit`]); 0 until the
    /// controller subscribes.
    pub mask: u32,
    /// Encoded frames waiting for delivery to userspace. When dropped, it
    /// gives back whichever vector it holds: it may be one the host traded
    /// for it (see [`NetlinkPm::swap_outbox`]), and the host's own goes on
    /// serving the next one.
    outbox: Spare<Vec<Bytes>>,
    /// Events suppressed by the mask (diagnostics).
    pub suppressed: u64,
    /// Events queued (diagnostics).
    pub queued: u64,
}

impl NetlinkPm {
    /// Fresh instance with an empty subscription, on the outbox the last
    /// one dropped on this thread gave back.
    pub fn new() -> Self {
        NetlinkPm {
            mask: 0,
            outbox: Spare::default(),
            suppressed: 0,
            queued: 0,
        }
    }

    /// Move the frames queued toward userspace into `into` (cleared
    /// first). The two vectors trade places, so both keep their capacity.
    pub fn swap_outbox(&mut self, into: &mut Vec<Bytes>) {
        into.clear();
        std::mem::swap(&mut *self.outbox, into);
    }
}

impl Default for NetlinkPm {
    fn default() -> Self {
        Self::new()
    }
}

impl PathManagerHook for NetlinkPm {
    fn on_event(&mut self, ev: &PmEvent, _view: &dyn StackView, _actions: &mut PmActions) {
        if ev.mask_bit() & self.mask == 0 {
            self.suppressed += 1;
            return;
        }
        self.queued += 1;
        self.outbox.push(encode_event(ev));
    }

    fn name(&self) -> &'static str {
        "netlink"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_mptcp::{ConnToken, EVENT_MASK_ALL};
    use smapp_netlink::{decode, PmNlMessage};
    use smapp_sim::Addr;

    struct NullView;
    impl StackView for NullView {
        fn local_addrs(&self) -> Vec<Addr> {
            vec![]
        }
        fn remote_addrs(&self, _: ConnToken) -> Vec<(u8, Addr, u16)> {
            vec![]
        }
    }

    #[test]
    fn unsubscribed_events_suppressed() {
        let mut pm = NetlinkPm::new();
        let mut actions = PmActions::new();
        pm.on_event(&PmEvent::ConnClosed { token: 1 }, &NullView, &mut actions);
        let mut frames = Vec::new();
        pm.swap_outbox(&mut frames);
        assert!(frames.is_empty());
        assert_eq!(pm.suppressed, 1);
    }

    #[test]
    fn subscribed_events_encode_to_frames() {
        let mut pm = NetlinkPm::new();
        pm.mask = EVENT_MASK_ALL;
        let mut actions = PmActions::new();
        let ev = PmEvent::ConnClosed { token: 42 };
        pm.on_event(&ev, &NullView, &mut actions);
        let mut frames = vec![Bytes::from_static(b"stale")];
        pm.swap_outbox(&mut frames);
        assert_eq!(frames.len(), 1);
        assert_eq!(decode(&frames[0]).unwrap(), PmNlMessage::Event(ev));
        let mut again = Vec::new();
        pm.swap_outbox(&mut again);
        assert!(again.is_empty());
        assert!(actions.is_empty(), "netlink pm never acts by itself");
    }

    /// A dropped path manager gives its outbox, emptied, to the thread;
    /// the next one queues into it.
    #[test]
    fn a_new_pm_queues_into_the_outbox_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let mut pm = NetlinkPm::new();
            pm.mask = EVENT_MASK_ALL;
            let mut actions = PmActions::new();
            for token in 0..3 {
                pm.on_event(&PmEvent::ConnClosed { token }, &NullView, &mut actions);
            }
            let cap = pm.outbox.capacity();
            assert!(cap >= 3);
            drop(pm);
            let pm = NetlinkPm::new();
            assert_eq!((pm.outbox.len(), pm.outbox.capacity()), (0, cap));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn partial_mask_filters() {
        let mut pm = NetlinkPm::new();
        let closed = PmEvent::ConnClosed { token: 1 };
        pm.mask = closed.mask_bit();
        let mut actions = PmActions::new();
        pm.on_event(&closed, &NullView, &mut actions);
        pm.on_event(
            &PmEvent::LocalAddrUp {
                addr: Addr::new(1, 1, 1, 1),
            },
            &NullView,
            &mut actions,
        );
        let mut frames = Vec::new();
        pm.swap_outbox(&mut frames);
        assert_eq!(frames.len(), 1);
        assert_eq!(pm.suppressed, 1);
        assert_eq!(pm.queued, 1);
    }
}
