//! In-memory spans and the counters recorded beside them.
//!
//! One [`Recorder`] is shared by every decorator of a traced job (behind
//! an uncontended mutex, because the decorated traits are `Send`). Spans
//! are only taken around rare calls — world build, `run_until`,
//! `conclude`, controller and path-manager callbacks — so the two
//! `Instant` reads per span stay far below the work they bracket.

use std::time::Instant;

/// One timed interval: name, start, end, the span that caused it, and the
/// job (world) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u32,
}

/// What the userspace decorator saw (`core.controller.*`,
/// `netlink.channel.*`).
#[derive(Clone, Debug, Default)]
pub struct UserCounts {
    pub calls: u64,
    pub timers: u64,
    pub busy_ns: u64,
    pub allocs: u64,
    pub to_user: u64,
    pub to_kernel: u64,
    pub bytes: u64,
}

/// What the kernel path-manager decorator saw (`pm.hook.*`).
#[derive(Clone, Debug, Default)]
pub struct PmCounts {
    pub events: u64,
    pub actions: u64,
    pub busy_ns: u64,
    /// `RtoExpired` events, counted on every host (policy or not).
    pub rto_expired: u64,
}

/// Spans and decorator counters of one traced job.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    job: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub user: UserCounts,
    pub pm: PmCounts,
}

impl Recorder {
    /// A recorder whose span times count from `t0`.
    pub fn new(t0: Instant, job: u32) -> Self {
        Recorder {
            t0,
            job,
            open: Vec::new(),
            spans: Vec::new(),
            user: UserCounts::default(),
            pm: PmCounts::default(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }
}
