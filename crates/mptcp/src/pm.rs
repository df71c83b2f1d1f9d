//! The in-kernel path-manager interface.
//!
//! This is the "red interface" of the paper's Figure 1: the set of events
//! the Multipath TCP stack raises toward whatever path manager is plugged
//! in, and the actions a path manager can request in response. The
//! in-kernel `fullmesh` and `ndiffports` baselines (crate `smapp-pm`)
//! implement [`PathManagerHook`] directly; the SMAPP Netlink path manager
//! implements it by serializing every event toward userspace and replaying
//! userspace commands back through [`PmAction`]s.

use std::time::Duration;

use smapp_sim::Addr;

/// Identifies a connection toward path managers: the local token
/// (RFC 6824 §3.1), as the paper's netlink PM does.
pub type ConnToken = u32;

/// Per-connection subflow identifier (dense, assigned at creation).
pub type SubflowId = u8;

/// The four-tuple of a subflow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FourTuple {
    /// Local address.
    pub src: Addr,
    /// Local port.
    pub src_port: u16,
    /// Remote address.
    pub dst: Addr,
    /// Remote port.
    pub dst_port: u16,
}

impl std::fmt::Display for FourTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// Why a subflow was closed — the errno-style codes the paper attaches to
/// `sub_closed` events so controllers can react per error class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SubflowError {
    /// Normal FIN close.
    #[default]
    None,
    /// Excessive retransmission timeouts (`ETIMEDOUT`).
    Timeout,
    /// RST received (`ECONNRESET`).
    Reset,
    /// Connection refused — RST in answer to our SYN (`ECONNREFUSED`).
    Refused,
    /// ICMP network/host unreachable (`ENETUNREACH`).
    NetUnreachable,
    /// Local interface went down (`ENETDOWN`).
    IfaceDown,
    /// Closed on request of a path manager or controller.
    PmRequested,
}

impl SubflowError {
    /// The errno number Linux would report, for the netlink encoding.
    pub fn errno(self) -> u16 {
        match self {
            SubflowError::None => 0,
            SubflowError::Timeout => 110,        // ETIMEDOUT
            SubflowError::Reset => 104,          // ECONNRESET
            SubflowError::Refused => 111,        // ECONNREFUSED
            SubflowError::NetUnreachable => 101, // ENETUNREACH
            SubflowError::IfaceDown => 100,      // ENETDOWN
            SubflowError::PmRequested => 125,    // ECANCELED
        }
    }

    /// One-hot bit for coverage bitmasks (`ConnStats::sf_close_reasons`):
    /// bit 0 is a graceful FIN close, bits 1..7 the error variants.
    pub fn coverage_bit(self) -> u8 {
        1 << match self {
            SubflowError::None => 0,
            SubflowError::Timeout => 1,
            SubflowError::Reset => 2,
            SubflowError::Refused => 3,
            SubflowError::NetUnreachable => 4,
            SubflowError::IfaceDown => 5,
            SubflowError::PmRequested => 6,
        }
    }

    /// Inverse of [`SubflowError::errno`]; unknown numbers map to `Timeout`.
    pub fn from_errno(e: u16) -> Self {
        match e {
            0 => SubflowError::None,
            104 => SubflowError::Reset,
            111 => SubflowError::Refused,
            101 => SubflowError::NetUnreachable,
            100 => SubflowError::IfaceDown,
            125 => SubflowError::PmRequested,
            _ => SubflowError::Timeout,
        }
    }
}

/// Events raised by the stack toward the path manager. These mirror the
/// event list in §3 of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmEvent {
    /// A connection object exists (client: SYN sent; server: SYN received).
    ConnCreated {
        /// Connection token.
        token: ConnToken,
        /// Four-tuple of the initial subflow.
        tuple: FourTuple,
        /// Id of the initial subflow (always 0).
        initial_subflow: SubflowId,
        /// True on the connection-initiating host.
        is_client: bool,
    },
    /// Three-way handshake completed (the paper's `estab`).
    ConnEstablished {
        /// Connection token.
        token: ConnToken,
        /// Four-tuple of the initial subflow.
        tuple: FourTuple,
        /// True on the connection-initiating host.
        is_client: bool,
    },
    /// The connection is gone (the paper's `closed`).
    ConnClosed {
        /// Connection token.
        token: ConnToken,
    },
    /// A subflow completed its handshake (the paper's `sub_estab`).
    SubflowEstablished {
        /// Connection token.
        token: ConnToken,
        /// Subflow id within the connection.
        id: SubflowId,
        /// The subflow's four-tuple.
        tuple: FourTuple,
        /// Whether the subflow carries the backup flag.
        backup: bool,
        /// True if this end initiated the subflow.
        initiated_here: bool,
    },
    /// A subflow died (the paper's `sub_closed`), with the reason.
    SubflowClosed {
        /// Connection token.
        token: ConnToken,
        /// Subflow id within the connection.
        id: SubflowId,
        /// The subflow's four-tuple.
        tuple: FourTuple,
        /// Why it closed.
        error: SubflowError,
    },
    /// The peer announced an address (the paper's `add_addr`).
    AddAddrReceived {
        /// Connection token.
        token: ConnToken,
        /// Peer's address identifier.
        addr_id: u8,
        /// The announced address.
        addr: Addr,
        /// Optional announced port.
        port: Option<u16>,
    },
    /// The peer withdrew an address (the paper's `rem_addr`).
    RemAddrReceived {
        /// Connection token.
        token: ConnToken,
        /// Peer's address identifier.
        addr_id: u8,
    },
    /// A retransmission timer expired on a subflow (the paper's `timeout`).
    /// Reports the timer value now in force (after backoff), as the paper
    /// describes controllers comparing it against a threshold.
    RtoExpired {
        /// Connection token.
        token: ConnToken,
        /// Subflow id within the connection.
        id: SubflowId,
        /// The backed-off RTO now armed.
        current_rto: Duration,
        /// Consecutive expiries so far.
        backoffs: u32,
    },
    /// A local address became usable (the paper's `new_local_addr`).
    LocalAddrUp {
        /// The address.
        addr: Addr,
    },
    /// A local address went away (the paper's `del_local_addr`).
    LocalAddrDown {
        /// The address.
        addr: Addr,
    },
}

impl PmEvent {
    /// The subscription-mask bit for this event class (see the paper:
    /// "The subflow controller receives only notifications for events it
    /// registered to").
    pub fn mask_bit(&self) -> u32 {
        match self {
            PmEvent::ConnCreated { .. } => 1 << 0,
            PmEvent::ConnEstablished { .. } => 1 << 1,
            PmEvent::ConnClosed { .. } => 1 << 2,
            PmEvent::SubflowEstablished { .. } => 1 << 3,
            PmEvent::SubflowClosed { .. } => 1 << 4,
            PmEvent::AddAddrReceived { .. } => 1 << 5,
            PmEvent::RemAddrReceived { .. } => 1 << 6,
            PmEvent::RtoExpired { .. } => 1 << 7,
            PmEvent::LocalAddrUp { .. } => 1 << 8,
            PmEvent::LocalAddrDown { .. } => 1 << 9,
        }
    }
}

/// Mask with every event bit set.
pub const EVENT_MASK_ALL: u32 = (1 << 10) - 1;

/// Actions a path manager can request from the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmAction {
    /// Open an additional subflow on `conn` from `src` (port 0 = pick an
    /// ephemeral port) to `dst`.
    OpenSubflow {
        /// Target connection.
        token: ConnToken,
        /// Local source address.
        src: Addr,
        /// Local source port; 0 lets the stack pick an ephemeral port.
        src_port: u16,
        /// Remote address.
        dst: Addr,
        /// Remote port.
        dst_port: u16,
        /// Request backup priority for the new subflow.
        backup: bool,
    },
    /// Close a subflow (FIN if possible, RST if `reset`).
    CloseSubflow {
        /// Target connection.
        token: ConnToken,
        /// Subflow to close.
        id: SubflowId,
        /// Send RST instead of a graceful FIN.
        reset: bool,
    },
    /// Change a subflow's backup priority (sends `MP_PRIO`).
    SetBackup {
        /// Target connection.
        token: ConnToken,
        /// Subflow whose priority changes.
        id: SubflowId,
        /// New backup value.
        backup: bool,
    },
    /// Announce a local address to the peer via `ADD_ADDR`.
    AnnounceAddr {
        /// Target connection.
        token: ConnToken,
        /// Our address identifier for the announcement.
        addr_id: u8,
        /// The address to announce.
        addr: Addr,
    },
    /// Withdraw a previously announced address via `REMOVE_ADDR`.
    WithdrawAddr {
        /// Target connection.
        token: ConnToken,
        /// The address identifier being withdrawn.
        addr_id: u8,
    },
}

/// Collector for the actions a path manager requests while handling an
/// event. The stack applies them after the callback returns.
#[derive(Debug, Default)]
pub struct PmActions {
    actions: Vec<PmAction>,
}

impl PmActions {
    /// New empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an action.
    pub fn push(&mut self, a: PmAction) {
        self.actions.push(a);
    }

    /// Drain all queued actions, in order; the collector keeps its
    /// capacity.
    pub fn drain(&mut self) -> std::vec::Drain<'_, PmAction> {
        self.actions.drain(..)
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Read-only view of stack state offered to path managers during event
/// handling (the in-kernel PMs can inspect any control block, as in Linux).
pub trait StackView {
    /// Local addresses currently usable (interfaces that are up).
    fn local_addrs(&self) -> Vec<Addr>;
    /// Remote addresses known for a connection (initial + ADD_ADDR learned),
    /// as `(addr_id, addr, port)`.
    fn remote_addrs(&self, token: ConnToken) -> Vec<(u8, Addr, u16)>;
}

/// A path manager plugged into the stack.
///
/// `Send` so a pre-built kernel PM can travel inside a scenario-builder
/// closure to a sweep worker thread; once plugged into a host it is only
/// ever driven by that world's thread.
pub trait PathManagerHook: Send {
    /// Handle one stack event, optionally queueing actions.
    fn on_event(&mut self, ev: &PmEvent, view: &dyn StackView, actions: &mut PmActions);

    /// Name for logs and reports ("fullmesh", "ndiffports", "netlink").
    fn name(&self) -> &'static str;

    /// Downcast support (the host needs to reach the netlink PM's queues).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A path manager that does nothing — plain single-path TCP behaviour.
#[derive(Debug, Default)]
pub struct NoopPm;

impl PathManagerHook for NoopPm {
    fn on_event(&mut self, _ev: &PmEvent, _view: &dyn StackView, _actions: &mut PmActions) {}
    fn name(&self) -> &'static str {
        "noop"
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A path manager that records every event it sees and takes no action.
/// Useful in tests and for event-stream inspection.
#[derive(Debug, Default)]
pub struct RecordingPm {
    /// Events in arrival order.
    pub events: Vec<PmEvent>,
}

impl RecordingPm {
    /// Count events matching a predicate.
    pub fn count(&self, f: impl Fn(&PmEvent) -> bool) -> usize {
        self.events.iter().filter(|e| f(e)).count()
    }
}

impl PathManagerHook for RecordingPm {
    fn on_event(&mut self, ev: &PmEvent, _view: &dyn StackView, _actions: &mut PmActions) {
        self.events.push(ev.clone());
    }
    fn name(&self) -> &'static str {
        "recording"
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_roundtrip() {
        for e in [
            SubflowError::None,
            SubflowError::Timeout,
            SubflowError::Reset,
            SubflowError::Refused,
            SubflowError::NetUnreachable,
            SubflowError::IfaceDown,
            SubflowError::PmRequested,
        ] {
            assert_eq!(SubflowError::from_errno(e.errno()), e);
        }
    }

    #[test]
    fn mask_bits_distinct() {
        let evs = [
            PmEvent::ConnCreated {
                token: 1,
                tuple: t(),
                initial_subflow: 0,
                is_client: true,
            },
            PmEvent::ConnEstablished {
                token: 1,
                tuple: t(),
                is_client: true,
            },
            PmEvent::ConnClosed { token: 1 },
            PmEvent::SubflowEstablished {
                token: 1,
                id: 0,
                tuple: t(),
                backup: false,
                initiated_here: true,
            },
            PmEvent::SubflowClosed {
                token: 1,
                id: 0,
                tuple: t(),
                error: SubflowError::Reset,
            },
            PmEvent::AddAddrReceived {
                token: 1,
                addr_id: 1,
                addr: Addr::new(1, 1, 1, 1),
                port: None,
            },
            PmEvent::RemAddrReceived {
                token: 1,
                addr_id: 1,
            },
            PmEvent::RtoExpired {
                token: 1,
                id: 0,
                current_rto: Duration::from_secs(1),
                backoffs: 1,
            },
            PmEvent::LocalAddrUp {
                addr: Addr::new(1, 1, 1, 1),
            },
            PmEvent::LocalAddrDown {
                addr: Addr::new(1, 1, 1, 1),
            },
        ];
        let mut seen = smapp_sim::FxHashSet::default();
        for e in &evs {
            assert!(seen.insert(e.mask_bit()), "duplicate mask bit");
            assert!(e.mask_bit() & EVENT_MASK_ALL != 0);
        }
    }

    fn t() -> FourTuple {
        FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 1000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
        }
    }

    #[test]
    fn actions_collector() {
        let mut a = PmActions::new();
        assert!(a.is_empty());
        a.push(PmAction::CloseSubflow {
            token: 9,
            id: 1,
            reset: false,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(a.drain().len(), 1);
        assert!(a.is_empty());
    }
}
