//! The paper's subflow controllers (§4 use cases).
//!
//! A policy the kernel already has is not written again here:
//! [`InUserspace`] runs a kernel [`PathManagerHook`](smapp_mptcp::PathManagerHook)
//! as a controller, reading what it needs of the stack from a view it
//! keeps of the events it receives, and sending each action the policy
//! asks for as a netlink command.
//!
//! * [`FullMeshController`] — §4.1: the kernel full mesh under
//!   [`InUserspace`], plus a layer that *re-establishes* failed subflows
//!   with error-specific backoff, keeping long-lived connections alive
//!   across middlebox state loss.
//! * [`BackupController`] — §4.2: break-before-make backup. No backup
//!   subflow is pre-established; when the retransmission timer grows past
//!   a threshold the primary is cut and a subflow is opened over the
//!   backup interface.
//! * [`StreamController`] — §4.3: watches per-block progress (`snd_una`)
//!   and the RTO; adds a second subflow when a block lags, closes
//!   subflows whose RTO exceeds one second.
//! * [`RefreshController`] — §4.4: opens n subflows over an ECMP fabric,
//!   polls `pacing_rate` every 2.5 s, kills the slowest and replaces it
//!   with a fresh ephemeral source port (a fresh ECMP hash).
//! * [`NdiffportsController`] — §4.5: the kernel ndiffports under
//!   [`InUserspace`], used for the Fig. 3 kernel-vs-userspace latency
//!   comparison.
//! * [`ServerLimitController`] — the §3 server-side example: reject
//!   subflows beyond a per-address budget to prevent resource abuse.

mod backup;
mod fullmesh;
mod in_userspace;
mod refresh;
mod server_limit;
mod stream;

pub use backup::{BackupConfig, BackupController};
pub use fullmesh::{FullMeshConfig, FullMeshController};
pub use in_userspace::{InUserspace, NdiffportsController};
pub use refresh::{RefreshConfig, RefreshController};
pub use server_limit::{ServerLimitConfig, ServerLimitController};
pub use stream::{StreamConfig, StreamController};
