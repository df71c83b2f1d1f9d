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

/// The kernel side of the SMAPP architecture.
#[derive(Debug, Default)]
pub struct NetlinkPm {
    /// Subscription mask (bits = [`PmEvent::mask_bit`]); 0 until the
    /// controller subscribes.
    pub mask: u32,
    /// Encoded frames waiting for delivery to userspace.
    outbox: Vec<Bytes>,
    /// Events suppressed by the mask (diagnostics).
    pub suppressed: u64,
    /// Events queued (diagnostics).
    pub queued: u64,
}

impl NetlinkPm {
    /// Fresh instance with an empty subscription.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the frames queued toward userspace into `into` (cleared
    /// first). The two vectors trade places, so both keep their capacity.
    pub fn swap_outbox(&mut self, into: &mut Vec<Bytes>) {
        into.clear();
        std::mem::swap(&mut self.outbox, into);
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
