//! The userspace path-manager library's netlink end.
//!
//! This is the Rust equivalent of the paper's 1900-line C library: it hides
//! netlink framing, so a subflow controller is written against decoded
//! [`smapp_netlink::PmNlMessage`]s and the typed calls of
//! [`crate::ControlApi`] — "we abstract all the complexity of handling
//! Netlink in a library that is linked with the subflow controller" (§3).
//! [`PmClient`] numbers and frames the commands, and remembers which info
//! query each reply answers.

use smapp_mptcp::{ConnToken, SubflowId};
use smapp_netlink::{encode_command, PmNlCommand, UserCtx};
use smapp_sim::Spare;

/// Sequence numbers and pending queries of one controller's netlink
/// socket.
#[derive(Debug, Default)]
pub struct PmClient {
    seq: u32,
    /// seq -> user tag for outstanding info queries, on the table the last
    /// client dropped on this thread gave back.
    pending_info: Spare<Vec<(u32, u64)>>,
    /// Commands sent (diagnostics).
    pub commands_sent: u64,
    /// Frames that failed to parse (diagnostics).
    pub parse_errors: u64,
}

impl PmClient {
    /// Fresh client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frame `cmd` under the next sequence number and send it; returns
    /// that number, which the kernel echoes in its reply.
    pub(crate) fn send(&mut self, ctx: &mut UserCtx<'_>, cmd: &PmNlCommand) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.commands_sent += 1;
        ctx.send(encode_command(self.seq, cmd));
        self.seq
    }

    /// Send a `GetInfo` query and remember `tag` for its reply.
    pub(crate) fn query(
        &mut self,
        ctx: &mut UserCtx<'_>,
        token: ConnToken,
        id: Option<SubflowId>,
        tag: u64,
    ) {
        let seq = self.send(ctx, &PmNlCommand::GetInfo { token, id });
        self.pending_info.push((seq, tag));
    }

    /// The tag of the info query that reply `seq` answers (0 when none is
    /// pending); the query is no longer pending afterwards.
    pub(crate) fn take_tag(&mut self, seq: u32) -> u64 {
        self.pending_info
            .iter()
            .position(|(s, _)| *s == seq)
            .map(|i| self.pending_info.remove(i).1)
            .unwrap_or(0)
    }
}

#[cfg(test)]
impl PmClient {
    /// Info queries still waiting for their reply.
    pub(crate) fn pending_queries(&self) -> usize {
        self.pending_info.len()
    }
}
