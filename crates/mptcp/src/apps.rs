//! Ready-made applications for tests, examples and experiments.
//!
//! * [`BulkSender`] — writes N bytes as fast as backpressure allows
//!   (Fig. 2a backup experiment, Fig. 2c 100 MB transfer).
//! * [`Sink`] — consumes everything, tracking per-block completion times
//!   (the receiving side of every experiment; Fig. 2b measures its block
//!   completions).
//! * [`StreamSender`] — writes one fixed-size block per interval, the
//!   §4.3 streaming workload.
//! * [`GetClient`] / [`GetServer`] — HTTP/1.0-style request/response with
//!   connection chaining, the §4.5 (Fig. 3) workload: 1000 consecutive
//!   GETs of a 512 KB object.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use smapp_sim::SimTime;

use crate::app::{App, AppCtx};

// Payload pattern blocks, one per sending app. `on_send_space` fires for
// every MSS the peer acknowledges, and a send buffer holds up to 4 MiB per
// connection: every write is a slice of one of these static-backed blocks,
// so neither the call nor the buffered stream costs any heap.
static BULK_CHUNK: Bytes = Bytes::from_static(&[0xA5; 64 * 1024]);
static STREAM_CHUNK: Bytes = Bytes::from_static(&[0x5A; 16 * 1024]);
static RESPONSE_CHUNK: Bytes = Bytes::from_static(&[0xC3; 64 * 1024]);
static REQUEST_CHUNK: Bytes = Bytes::from_static(&[b'G'; 4 * 1024]);

/// Writes `total` bytes, then (optionally) closes. Tracks when every byte
/// was acknowledged.
#[derive(Debug, Default)]
pub struct BulkSender {
    /// Bytes to send.
    pub total: u64,
    written: u64,
    close_when_done: bool,
    stop_sim_when_acked: bool,
    /// When the connection established.
    pub established_at: Option<SimTime>,
    /// When every byte (and the DATA_FIN, if closing) was acknowledged.
    pub acked_at: Option<SimTime>,
}

impl BulkSender {
    /// Send `total` bytes.
    pub fn new(total: u64) -> Self {
        BulkSender {
            total,
            ..Default::default()
        }
    }

    /// Close the connection after the last byte is written.
    pub fn close_when_done(mut self) -> Self {
        self.close_when_done = true;
        self
    }

    /// Stop the simulation once everything is acknowledged.
    pub fn stop_sim_when_acked(mut self) -> Self {
        self.stop_sim_when_acked = true;
        self
    }

    fn fill(&mut self, ctx: &mut AppCtx<'_, '_>) {
        while self.written < self.total {
            let want = (self.total - self.written).min(BULK_CHUNK.len() as u64) as usize;
            let n = ctx.write(BULK_CHUNK.slice(..want));
            self.written += n as u64;
            if n < want {
                return; // buffer full; resume on_send_space
            }
        }
        if self.close_when_done {
            ctx.close();
        }
    }

    fn check_done(&mut self, ctx: &mut AppCtx<'_, '_>) {
        if self.acked_at.is_none() && ctx.bytes_acked() >= self.total && self.total > 0 {
            self.acked_at = Some(ctx.now());
            if self.stop_sim_when_acked {
                ctx.stop_sim();
            }
        }
    }
}

impl App for BulkSender {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.established_at = Some(ctx.now());
        self.fill(ctx);
        self.check_done(ctx);
    }
    fn on_send_space(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.fill(ctx);
        self.check_done(ctx);
    }
    fn on_data(&mut self, ctx: &mut AppCtx<'_, '_>, _data: Bytes) {
        self.check_done(ctx);
    }
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.check_done(ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Consumes the incoming stream; optionally tracks completion of
/// fixed-size blocks (for the Fig. 2b CDF).
#[derive(Debug, Default)]
pub struct Sink {
    /// Total bytes received.
    pub received: u64,
    /// When EOF (DATA_FIN) was consumed.
    pub eof_at: Option<SimTime>,
    /// Block size to track, 0 = no tracking.
    pub block_size: u64,
    /// Completion time of each full block, in order.
    pub block_completions: Vec<SimTime>,
    /// Close back (half-close reciprocation) when EOF arrives.
    pub close_on_eof: bool,
    /// Stop the simulation at EOF.
    pub stop_on_eof: bool,
}

impl Sink {
    /// A sink that records completion times of `block_size`-byte blocks.
    pub fn with_blocks(block_size: u64) -> Self {
        Sink {
            block_size,
            ..Default::default()
        }
    }
}

impl App for Sink {
    fn on_data(&mut self, ctx: &mut AppCtx<'_, '_>, data: Bytes) {
        let before = self.received;
        self.received += data.len() as u64;
        if let Some(blocks_before) = before.checked_div(self.block_size) {
            let mut boundary = (blocks_before + 1) * self.block_size;
            while boundary <= self.received {
                self.block_completions.push(ctx.now());
                boundary += self.block_size;
            }
        }
    }
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.eof_at = Some(ctx.now());
        if self.close_on_eof {
            ctx.close();
        }
        if self.stop_on_eof {
            ctx.stop_sim();
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Writes one `block_size` block every `interval`, `blocks` times in total
/// — the §4.3 streaming workload (64 KB every second).
#[derive(Debug)]
pub struct StreamSender {
    /// Block size in bytes.
    pub block_size: u64,
    /// Interval between block starts.
    pub interval: std::time::Duration,
    /// Number of blocks to send.
    pub blocks: u64,
    /// Blocks fully handed to the stack so far.
    pub sent: u64,
    /// Time each block's write began (send deadline base).
    pub block_starts: Vec<SimTime>,
    pending: u64,
    close_when_done: bool,
}

impl StreamSender {
    /// `blocks` blocks of `block_size` bytes, one per `interval`.
    pub fn new(block_size: u64, interval: std::time::Duration, blocks: u64) -> Self {
        StreamSender {
            block_size,
            interval,
            blocks,
            sent: 0,
            block_starts: Vec::new(),
            pending: 0,
            close_when_done: true,
        }
    }

    fn write_pending(&mut self, ctx: &mut AppCtx<'_, '_>) {
        while self.pending > 0 {
            let want = self.pending.min(STREAM_CHUNK.len() as u64) as usize;
            let n = ctx.write(STREAM_CHUNK.slice(..want));
            self.pending -= n as u64;
            if n < want {
                return;
            }
        }
        if self.sent == self.blocks && self.pending == 0 && self.close_when_done {
            ctx.close();
        }
    }

    fn start_block(&mut self, ctx: &mut AppCtx<'_, '_>) {
        if self.sent >= self.blocks {
            return;
        }
        self.sent += 1;
        self.block_starts.push(ctx.now());
        self.pending += self.block_size;
        self.write_pending(ctx);
        if self.sent < self.blocks {
            ctx.set_timer(self.interval, 1);
        }
    }
}

impl App for StreamSender {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.start_block(ctx);
    }
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_>, _token: u64) {
        self.start_block(ctx);
    }
    fn on_send_space(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.write_pending(ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Shared progress of a [`GetClient`] chain.
#[derive(Debug, Default)]
pub struct GetProgress {
    /// Completed request/response cycles.
    pub completed: u32,
    /// Completion time of each cycle.
    pub completions: Vec<SimTime>,
}

/// HTTP/1.0-style client: sends a small request, reads the response until
/// EOF, closes, and opens the next connection — `remaining` times.
pub struct GetClient {
    /// Remaining connections to run after this one.
    pub remaining: u32,
    /// Request size in bytes.
    pub request_size: usize,
    /// Server address for follow-up connections.
    pub dst: smapp_sim::Addr,
    /// Server port.
    pub dst_port: u16,
    /// Shared progress record.
    pub progress: Rc<RefCell<GetProgress>>,
    /// Stop the simulation after the final cycle.
    pub stop_when_done: bool,
}

impl App for GetClient {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        // Whatever the send buffer does not take at once is not sent.
        let mut left = self.request_size;
        while left > 0 {
            let want = left.min(REQUEST_CHUNK.len());
            let n = ctx.write(REQUEST_CHUNK.slice(..want));
            left -= n;
            if n < want {
                return;
            }
        }
    }
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        {
            let mut p = self.progress.borrow_mut();
            p.completed += 1;
            p.completions.push(ctx.now());
        }
        ctx.close();
        if self.remaining > 0 {
            ctx.connect(
                self.dst,
                self.dst_port,
                Box::new(GetClient {
                    remaining: self.remaining - 1,
                    request_size: self.request_size,
                    dst: self.dst,
                    dst_port: self.dst_port,
                    progress: Rc::clone(&self.progress),
                    stop_when_done: self.stop_when_done,
                }),
            );
        } else if self.stop_when_done {
            ctx.stop_sim();
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Serves a fixed-size response to any request, then closes its direction
/// (HTTP/1.0 semantics).
#[derive(Debug)]
pub struct GetServer {
    /// Response size in bytes.
    pub response_size: u64,
    written: u64,
    responding: bool,
}

impl GetServer {
    /// Serve `response_size` bytes per request.
    pub fn new(response_size: u64) -> Self {
        GetServer {
            response_size,
            written: 0,
            responding: false,
        }
    }

    fn fill(&mut self, ctx: &mut AppCtx<'_, '_>) {
        if !self.responding {
            return;
        }
        while self.written < self.response_size {
            let want =
                (self.response_size - self.written).min(RESPONSE_CHUNK.len() as u64) as usize;
            let n = ctx.write(RESPONSE_CHUNK.slice(..want));
            self.written += n as u64;
            if n < want {
                return;
            }
        }
        ctx.close();
    }
}

impl App for GetServer {
    fn on_data(&mut self, ctx: &mut AppCtx<'_, '_>, _req: Bytes) {
        if !self.responding {
            self.responding = true;
            self.fill(ctx);
        }
    }
    fn on_send_space(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.fill(ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Harness, Side};
    use smapp_sim::Addr;
    use std::time::Duration;

    #[test]
    fn bulk_sender_completion_and_block_tracking() {
        let mut h = Harness::new(
            1,
            Duration::from_millis(5),
            vec![Addr::new(10, 0, 0, 1)],
            vec![Addr::new(10, 0, 1, 1)],
        );
        h.b.listen(
            80,
            Box::new(|| {
                Box::new(Sink {
                    close_on_eof: true,
                    ..Sink::with_blocks(64 * 1024)
                })
            }),
        );
        let token = h
            .connect(
                Side::A,
                80,
                Box::new(BulkSender::new(256 * 1024).close_when_done()),
            )
            .unwrap();
        h.run_until(SimTime::from_secs(20));
        let sink =
            h.b.connections()
                .next()
                .unwrap()
                .app()
                .unwrap()
                .as_any()
                .downcast_ref::<Sink>()
                .unwrap();
        assert_eq!(sink.received, 256 * 1024);
        assert_eq!(sink.block_completions.len(), 4);
        assert!(sink.block_completions.windows(2).all(|w| w[0] <= w[1]));
        let bulk =
            h.a.conn_by_token(token)
                .unwrap()
                .app()
                .unwrap()
                .as_any()
                .downcast_ref::<BulkSender>()
                .unwrap();
        assert!(bulk.acked_at.is_some());
    }

    #[test]
    fn stream_sender_paces_blocks() {
        let mut h = Harness::new(
            2,
            Duration::from_millis(5),
            vec![Addr::new(10, 0, 0, 1)],
            vec![Addr::new(10, 0, 1, 1)],
        );
        h.b.listen(80, Box::new(|| Box::new(Sink::with_blocks(64 * 1024))));
        let token = h
            .connect(
                Side::A,
                80,
                Box::new(StreamSender::new(64 * 1024, Duration::from_secs(1), 5)),
            )
            .unwrap();
        h.run_until(SimTime::from_secs(30));
        let app = h.a.conn_by_token(token).unwrap().app().unwrap();
        let s = app.as_any().downcast_ref::<StreamSender>().unwrap();
        assert_eq!(s.sent, 5);
        assert_eq!(s.block_starts.len(), 5);
        // Block starts are 1 s apart.
        for w in s.block_starts.windows(2) {
            assert_eq!((w[1] - w[0]).as_millis(), 1000);
        }
        let sink =
            h.b.connections()
                .next()
                .unwrap()
                .app()
                .unwrap()
                .as_any()
                .downcast_ref::<Sink>()
                .unwrap();
        assert_eq!(sink.received, 5 * 64 * 1024);
        assert_eq!(sink.block_completions.len(), 5);
    }

    #[test]
    fn get_chain_runs_n_cycles() {
        let mut h = Harness::new(
            3,
            Duration::from_millis(2),
            vec![Addr::new(10, 0, 0, 1)],
            vec![Addr::new(10, 0, 1, 1)],
        );
        h.b.listen(80, Box::new(|| Box::new(GetServer::new(100_000))));
        let progress = Rc::new(RefCell::new(GetProgress::default()));
        h.connect(
            Side::A,
            80,
            Box::new(GetClient {
                remaining: 4,
                request_size: 100,
                dst: Addr::new(10, 0, 1, 1),
                dst_port: 80,
                progress: Rc::clone(&progress),
                stop_when_done: false,
            }),
        )
        .unwrap();
        h.run_until(SimTime::from_secs(60));
        assert_eq!(progress.borrow().completed, 5);
        // Five distinct connections were created on the server.
        assert_eq!(h.b.connections().count(), 5);
        let times = &progress.borrow().completions;
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    /// True when the oldest byte `conn` still buffers lives in `block`.
    fn buffers_from(conn: &crate::conn::Connection, block: &Bytes) -> bool {
        let buf = conn.send_buffer();
        assert!(!buf.is_empty(), "nothing buffered");
        let first = buf.slice(buf.head_offset(), 1).as_ptr() as usize;
        let start = block.as_ptr() as usize;
        (start..start + block.len()).contains(&first)
    }

    #[test]
    fn senders_buffer_their_static_blocks_not_copies() {
        let mut h = Harness::new(
            4,
            Duration::from_millis(5),
            vec![Addr::new(10, 0, 0, 1)],
            vec![Addr::new(10, 0, 1, 1)],
        );
        h.rate_a2b = Some(1_000_000);
        h.rate_b2a = Some(1_000_000);
        h.b.listen(80, Box::new(|| Box::new(Sink::default())));
        h.b.listen(81, Box::new(|| Box::new(GetServer::new(512 * 1024))));
        let bulk = h
            .connect(Side::A, 80, Box::new(BulkSender::new(1 << 20)))
            .unwrap();
        let get = GetClient {
            remaining: 0,
            request_size: 100,
            dst: Addr::new(10, 0, 1, 1),
            dst_port: 81,
            progress: Rc::default(),
            stop_when_done: false,
        };
        h.connect(Side::A, 81, Box::new(get)).unwrap();
        // Long enough for both senders to fill, far too short to drain.
        h.run_until(SimTime::from_millis(200));
        assert!(buffers_from(h.a.conn_by_token(bulk).unwrap(), &BULK_CHUNK));
        let serving = h.b.connections().find(|c| !c.send_buffer().is_empty());
        assert!(buffers_from(serving.unwrap(), &RESPONSE_CHUNK));
    }
}
