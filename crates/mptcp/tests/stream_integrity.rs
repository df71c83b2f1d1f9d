//! Stream integrity: the byte stream delivered to the application is
//! *exactly* the byte stream written, in order, no duplicates, no holes —
//! under loss, multiple subflows, reinjection and subflow death. This is
//! the strongest correctness property of the whole engine, checked with
//! position-dependent payloads (every byte encodes its own stream offset).

use std::time::Duration;

use bytes::Bytes;
use smapp_mptcp::app::{App, AppCtx};
use smapp_mptcp::harness::{Harness, Side};
use smapp_mptcp::PmAction;
use smapp_sim::{Addr, SimTime};

const A1: Addr = Addr::new(10, 0, 0, 1);
const A2: Addr = Addr::new(10, 0, 2, 1);
const B1: Addr = Addr::new(10, 0, 1, 1);

/// The expected byte at stream offset `i`.
fn pattern(i: u64) -> u8 {
    (i % 251) as u8 ^ (i / 251 % 256) as u8
}

/// How a [`PatternSender`] hands its stream to [`AppCtx::write`].
#[derive(Clone, Copy)]
enum Writes {
    /// A freshly built `Vec` of up to 16 KiB per call.
    FreshVecs,
    /// Everything not yet accepted as one `Bytes`, offered again whenever
    /// room appears: every call but the last is accepted in part.
    WholeRemainder,
    /// One byte per call.
    SingleBytes,
}

/// Writes `total` position-encoded bytes, then closes.
struct PatternSender {
    stream: Bytes,
    written: usize,
    writes: Writes,
    /// Calls that were accepted only in part.
    cut_short: u32,
}

impl PatternSender {
    fn new(total: u64, writes: Writes) -> Self {
        PatternSender {
            stream: (0..total).map(pattern).collect(),
            written: 0,
            writes,
            cut_short: 0,
        }
    }

    fn fill(&mut self, ctx: &mut AppCtx<'_, '_>) {
        while self.written < self.stream.len() {
            let rest = self.stream.slice(self.written..);
            let chunk = match self.writes {
                Writes::FreshVecs => Bytes::from(rest[..rest.len().min(16 * 1024)].to_vec()),
                Writes::WholeRemainder => rest,
                Writes::SingleBytes => rest.slice(..1),
            };
            let want = chunk.len();
            let n = ctx.write(chunk);
            self.written += n;
            if n < want {
                self.cut_short += 1;
                return;
            }
        }
        ctx.close();
    }
}

impl App for PatternSender {
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.fill(ctx);
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

/// Verifies every received byte against its expected position value.
#[derive(Default)]
struct PatternChecker {
    received: u64,
    mismatches: u64,
    eof: bool,
}

impl App for PatternChecker {
    fn on_data(&mut self, _ctx: &mut AppCtx<'_, '_>, data: Bytes) {
        for (k, &b) in data.iter().enumerate() {
            if b != pattern(self.received + k as u64) {
                self.mismatches += 1;
            }
        }
        self.received += data.len() as u64;
    }
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        self.eof = true;
        ctx.close();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_scenario(seed: u64, loss: f64, total: u64, second_subflow: bool, blackhole: bool) {
    run_writer(
        seed,
        loss,
        total,
        second_subflow,
        blackhole,
        Writes::FreshVecs,
        4 << 20,
    );
}

/// Runs one transfer and checks it three ways: the receiving app compares
/// every byte with its position, the connections' stream taps agree, and
/// EOF arrives. Returns how many of the sender's writes were cut short.
fn run_writer(
    seed: u64,
    loss: f64,
    total: u64,
    second_subflow: bool,
    blackhole: bool,
    writes: Writes,
    send_buf: u64,
) -> u32 {
    let mut h = Harness::new(seed, Duration::from_millis(10), vec![A1, A2], vec![B1]);
    h.a.cfg.send_buf = send_buf;
    h.b.listen(80, Box::new(|| Box::new(PatternChecker::default())));
    h.rate_a2b = Some(10_000_000);
    h.rate_b2a = Some(10_000_000);
    h.loss_a2b = loss;
    h.loss_b2a = loss;
    let token = h
        .connect(Side::A, 80, Box::new(PatternSender::new(total, writes)))
        .unwrap();
    if second_subflow {
        h.run_until(SimTime::from_millis(100));
        h.apply(
            Side::A,
            &PmAction::OpenSubflow {
                token,
                src: A2,
                src_port: 0,
                dst: B1,
                dst_port: 80,
                backup: false,
            },
        );
    }
    if blackhole {
        // A one-second total outage in the middle of the transfer: RTOs,
        // reinjection, recovery.
        h.run_until(SimTime::from_millis(600));
        h.loss_a2b = 1.0;
        h.loss_b2a = 1.0;
        h.run_until(SimTime::from_millis(1600));
        h.loss_a2b = loss;
        h.loss_b2a = loss;
    }
    h.run_until(SimTime::from_secs(600));

    let sender = h.a.conn_by_token(token).unwrap();
    let receiver = h.b.connections().next().unwrap();
    let (sent, recvd) = (&sender.stats.tap_sent, &receiver.stats.tap_recvd);
    assert_eq!((sent.count(), recvd.count()), (total, total));
    assert_eq!(sent.check_against_receiver(recvd), None, "seed {seed}");
    let checker = receiver
        .app()
        .unwrap()
        .as_any()
        .downcast_ref::<PatternChecker>()
        .unwrap();
    assert_eq!(
        checker.received, total,
        "seed {seed} loss {loss}: byte count"
    );
    assert_eq!(
        checker.mismatches, 0,
        "seed {seed} loss {loss}: every byte at its exact offset"
    );
    assert!(checker.eof, "seed {seed}: EOF delivered");
    let sender = sender.app().unwrap().as_any();
    sender.downcast_ref::<PatternSender>().unwrap().cut_short
}

#[test]
fn clean_single_path() {
    run_scenario(1, 0.0, 500_000, false, false);
}

#[test]
fn lossy_single_path() {
    run_scenario(2, 0.10, 300_000, false, false);
}

#[test]
fn clean_two_paths() {
    run_scenario(3, 0.0, 500_000, true, false);
}

#[test]
fn lossy_two_paths() {
    run_scenario(4, 0.10, 300_000, true, false);
}

#[test]
fn blackhole_recovery_two_paths() {
    run_scenario(5, 0.02, 500_000, true, true);
}

#[test]
fn heavy_loss_two_paths() {
    run_scenario(6, 0.20, 150_000, true, false);
}

/// The whole stream as one `Bytes`, far larger than a 24 000-byte send
/// buffer: the connection keeps a prefix of the caller's buffer each time.
#[test]
fn oversized_write_offered_repeatedly_lossy_two_paths() {
    let cut_short = run_writer(
        7,
        0.05,
        400_000,
        true,
        false,
        Writes::WholeRemainder,
        24_000,
    );
    assert!(cut_short >= 400_000 / 24_000, "only {cut_short} partial");
}

/// One-byte writes: every segment is stitched from ~1400 buffered chunks.
#[test]
fn one_byte_chunks_lossy_two_paths() {
    run_writer(8, 0.05, 40_000, true, false, Writes::SingleBytes, 4 << 20);
}

/// Property-style sweep: many seeds × loss ratios, smaller transfers.
#[test]
fn integrity_sweep() {
    for seed in 10..20 {
        let loss = (seed % 4) as f64 * 0.05;
        run_scenario(seed, loss, 60_000, seed % 2 == 0, false);
    }
}
