//! Kernel path managers run in userspace, and §4.5's ndiffports.
//!
//! A policy is written once, as its kernel [`PathManagerHook`] in
//! `smapp-pm`. [`InUserspace`] runs that code as a [`SubflowController`]:
//! events arrive over netlink, each action the policy asks for goes back
//! as a command, and what the policy reads of the stack comes from a view
//! kept of the events themselves.
//!
//! [`NdiffportsController`] is §4.5's experiment: "These two path managers
//! create a second subflow as soon as the initial subflow has been
//! established." Only where it runs differs: Fig. 3 measures the two
//! netlink crossings (event up, command down) before the `MP_JOIN` SYN.

use smapp_mptcp::{
    ConnToken, FourTuple, PathManagerHook, PmActions, PmEvent, StackView, EVENT_MASK_ALL,
};
use smapp_pm::{FullMeshPm, NdiffportsPm};
use smapp_sim::{Addr, FxHashMap};

use crate::controller::{ControlApi, SubflowController};

/// A kernel path manager run as a userspace subflow controller.
#[derive(Debug)]
pub struct InUserspace<P> {
    pub(crate) policy: P,
    mask: u32,
    pub(crate) view: EventView,
    actions: PmActions,
}

/// Userspace ndiffports: the kernel [`NdiffportsPm`], subscribed to
/// connection establishment only (the paper's point: subscribe to what
/// you need).
pub type NdiffportsController = InUserspace<NdiffportsPm>;

impl InUserspace<NdiffportsPm> {
    /// Create `n` subflows per connection in total.
    pub fn new(n: u8) -> Self {
        let established = PmEvent::ConnEstablished {
            token: 0,
            tuple: FourTuple::default(),
            is_client: true,
        };
        Self::with_mask(NdiffportsPm::new(n), established.mask_bit())
    }
}

impl InUserspace<FullMeshPm> {
    /// The kernel full mesh, subscribed to every event it reads.
    pub fn new() -> Self {
        Self::with_mask(FullMeshPm::new(), EVENT_MASK_ALL)
    }
}

impl Default for InUserspace<FullMeshPm> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PathManagerHook> InUserspace<P> {
    fn with_mask(policy: P, mask: u32) -> Self {
        InUserspace {
            policy,
            mask,
            view: EventView::default(),
            actions: PmActions::new(),
        }
    }
}

impl<P: PathManagerHook> SubflowController for InUserspace<P> {
    fn subscription(&self) -> u32 {
        self.mask
    }

    fn on_event(&mut self, api: &mut ControlApi<'_, '_>, ev: &PmEvent) {
        // The stack has applied an event by the time it raises it.
        self.view.apply(ev);
        self.policy.on_event(ev, &self.view, &mut self.actions);
        for action in self.actions.drain() {
            api.act(action);
        }
    }
}

/// The stack as the events have described it: local addresses with
/// their state, in first-seen order (as `HostStack` keeps them), and per
/// connection the initial remote (id 0) followed by those the peer
/// announced (as `Connection` keeps them).
#[derive(Debug, Default)]
pub(crate) struct EventView {
    locals: Vec<(Addr, bool)>,
    remotes: FxHashMap<ConnToken, Vec<(u8, Addr, u16)>>,
}

impl EventView {
    fn apply(&mut self, ev: &PmEvent) {
        match *ev {
            PmEvent::ConnCreated { token, tuple, .. } => {
                let initial = (0, tuple.dst, tuple.dst_port);
                self.remotes.insert(token, vec![initial]);
            }
            PmEvent::ConnClosed { token } => {
                self.remotes.remove(&token);
            }
            PmEvent::AddAddrReceived {
                token,
                addr_id,
                addr,
                port,
            } => {
                // Without a port the stack takes the receiving subflow's;
                // every subflow here goes to the initial remote's port.
                if let Some(remotes) = self.remotes.get_mut(&token) {
                    if !remotes[1..].iter().any(|&(id, ..)| id == addr_id) {
                        remotes.push((addr_id, addr, port.unwrap_or(remotes[0].2)));
                    }
                }
            }
            PmEvent::RemAddrReceived { token, addr_id } => {
                // A withdrawal names an announcement; the initial remote stays.
                if let Some(remotes) = self.remotes.get_mut(&token) {
                    let mut index = 0..;
                    remotes.retain(|&(id, ..)| index.next() == Some(0) || id != addr_id);
                }
            }
            PmEvent::LocalAddrUp { addr } | PmEvent::LocalAddrDown { addr } => {
                let up = matches!(ev, PmEvent::LocalAddrUp { .. });
                match self.locals.iter_mut().find(|(a, _)| *a == addr) {
                    Some(slot) => slot.1 = up,
                    None => self.locals.push((addr, up)),
                }
            }
            _ => {}
        }
    }
}

impl StackView for EventView {
    fn local_addrs(&self) -> Vec<Addr> {
        let up = self.locals.iter().filter(|(_, up)| *up);
        up.map(|&(a, _)| a).collect()
    }
    fn remote_addrs(&self, token: ConnToken) -> Vec<(u8, Addr, u16)> {
        self.remotes.get(&token).cloned().unwrap_or_default()
    }
}
