//! Criterion micro-benchmarks of the hot paths: wire buffers, wire codecs,
//! the oracle and the option stripper, stream taps, crypto, the send buffer,
//! connection storage across world turnover, reassembly, schedulers,
//! netlink framing, ECMP hashing, the event queue and the raw simulator
//! event loop.

use bytes::{BufMut, Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smapp_mptcp::crypto::{hmac_sha1, sha1};
use smapp_mptcp::options::{Dss, DssMapping, MpOption};
use smapp_mptcp::{LowestRtt, SchedCandidate, Scheduler};
use smapp_netlink::{
    decode as nl_decode, encode_command, encode_event, encode_reply, DiagConn, PmNlCommand,
    PmNlMessage,
};
use smapp_sim::{Addr, FlowKey};
use smapp_tcp::{
    encode_parts, OptionWriter, Reassembly, SendBuffer, StreamTap, TcpFlags, TcpHeader, TcpOption,
    TcpOptions, TcpSegment, TcpView, OPT_KIND_MPTCP,
};
use std::hint::black_box;

/// An ACK carrying a 1400-byte payload and one DSS option (data ACK and
/// mapping): the common data segment of every workload.
fn dss_segment() -> TcpSegment {
    TcpSegment {
        hdr: TcpHeader {
            src_port: 43210,
            dst_port: 80,
            seq: 0xDEAD_BEEF.into(),
            ack: 0x0102_0304.into(),
            flags: TcpFlags::ACK,
            window: 65535,
            options: TcpOptions::from([TcpOption::Mptcp(
                MpOption::Dss(Dss {
                    data_ack: Some(123_456_789),
                    mapping: Some(DssMapping {
                        dsn: 987_654_321,
                        ssn: 42,
                        len: 1400,
                    }),
                    data_fin: false,
                })
                .encode(),
            )]),
        },
        payload: Bytes::from(vec![0xA5u8; 1400]),
    }
}

/// A wire buffer's life: a pool hit (take, write one MSS, freeze, drop),
/// and one header read from each of 16 384 live 1 460-byte buffers in a
/// fixed pseudo-random order — how `fleet` touches its in-flight packets,
/// with far more of them live than the caches hold.
fn bench_bytes(c: &mut Criterion) {
    const MSS: usize = 1460;
    const LIVE: usize = 16_384;
    let mut g = c.benchmark_group("bytes");
    g.bench_function("freeze_drop_cycle_1460", |b| {
        let payload = [0xA5u8; MSS];
        b.iter(|| {
            let mut m = BytesMut::with_capacity(MSS);
            m.put_slice(black_box(&payload));
            drop(black_box(m.freeze()));
        })
    });
    let live: Vec<Bytes> = (0..LIVE as u32)
        .map(|i| {
            let mut m = BytesMut::with_capacity(MSS);
            m.put_u32(i);
            m.put_bytes(0, MSS - 4);
            m.freeze()
        })
        .collect();
    // Fisher-Yates with a fixed xorshift64: the same order every run.
    let mut order: Vec<usize> = (0..LIVE).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..LIVE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    // One sample reads every buffer once, so the median over 16 384 is
    // the time one read takes, with the timer's own cost spread thin.
    g.throughput(Throughput::Elements(LIVE as u64));
    g.bench_function("read_header_16k_live_shuffled", |b| {
        b.iter(|| {
            order.iter().fold(0u32, |sum, &i| {
                let buf = &live[i];
                sum.wrapping_add(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]))
            })
        })
    });
    g.finish();
}

fn bench_tcp_codec(c: &mut Criterion) {
    let seg = dss_segment();
    let wire = seg.encode().unwrap();
    let mut g = c.benchmark_group("tcp_codec");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_1400b_dss", |b| {
        b.iter(|| black_box(&seg).encode().unwrap())
    });
    g.bench_function("decode_1400b_dss", |b| {
        b.iter(|| TcpSegment::decode(black_box(&wire)).unwrap())
    });
    // What the stack does per segment: read in place, write from parts.
    g.bench_function("view_parse_1400b_dss", |b| {
        b.iter(|| {
            let view = TcpView::parse(black_box(&wire)).unwrap();
            view.mptcp_opts().count()
        })
    });
    let hdr = seg.hdr.fixed();
    let dss = seg.mptcp_opt().unwrap();
    g.bench_function("encode_parts_1400b_dss", |b| {
        b.iter(|| {
            let mut opts = OptionWriter::new();
            opts.push(OPT_KIND_MPTCP, black_box(dss));
            encode_parts(&hdr, &opts, &seg.payload).unwrap()
        })
    });
    g.finish();
}

/// The simulator's own readers of the same frame: the always-on oracle
/// checks every sent segment, and an option-stripping router rewrites it.
fn bench_sim_wire(c: &mut Criterion) {
    use smapp_sim::dynamics::strip_mptcp_options;
    use smapp_sim::{IfaceId, NodeId, Oracle, Packet, SimTime, TraceEvent, TraceKind, TraceSink};
    let wire = dss_segment().encode().unwrap();
    let pkt = Packet::tcp(Addr::new(10, 0, 1, 1), Addr::new(10, 0, 9, 1), wire.clone());
    let mut g = c.benchmark_group("sim_wire");
    g.bench_function("oracle_send_1400b_dss", |b| {
        let mut oracle = Oracle::new();
        let ev = TraceEvent {
            at: SimTime::from_millis(1),
            kind: TraceKind::Send {
                node: NodeId(0),
                iface: IfaceId(0),
            },
            pkt: &pkt,
        };
        b.iter(|| oracle.record(black_box(&ev)));
        assert!(oracle.is_clean());
    });
    g.bench_function("strip_1400b_dss", |b| {
        b.iter(|| strip_mptcp_options(black_box(&wire)).unwrap())
    });
    g.finish();
}

/// The end-host integrity tap over 1 MiB of stream, fed the way the two
/// ends feed it: MSS-sized deliveries (receiver) and 64 KiB application
/// writes (sender).
fn bench_stream_tap(c: &mut Criterion) {
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let mut g = c.benchmark_group("stream_tap");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for (name, chunk) in [("update_1400b", 1400), ("update_64kib", 64 * 1024)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut tap = StreamTap::new();
                for piece in black_box(&data).chunks(chunk) {
                    tap.update(piece);
                }
                tap.digest()
            })
        });
    }
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let key = [0xABu8; 8];
    g.bench_function("sha1_8b_token_derivation", |b| {
        b.iter(|| sha1(black_box(&key)))
    });
    let msg = [0u8; 64];
    g.bench_function("hmac_sha1_join_auth", |b| {
        b.iter(|| hmac_sha1(black_box(&key), black_box(&msg)))
    });
    g.finish();
}

/// One application write through the connection send buffer: accept a
/// 64 KiB block, hand it out in MSS-sized ranges, release each as if
/// acknowledged. `owned` is an app that builds a `Vec` per write (allocate,
/// fill, hand over); `static_backed` is what the `smapp_mptcp::apps`
/// senders do, a slice of a `static` block.
fn bench_send_buffer(c: &mut Criterion) {
    const BLOCK: usize = 64 * 1024;
    const MSS: u64 = 1400;
    static PATTERN: Bytes = Bytes::from_static(&[0xA5; BLOCK]);
    let cycle = |sb: &mut SendBuffer, data: Bytes| {
        let mut off = sb.tail_offset();
        sb.write(data);
        while off < sb.tail_offset() {
            let len = (sb.tail_offset() - off).min(MSS);
            black_box(sb.slice(off, len as u32));
            off += len;
            sb.release_until(off);
        }
    };
    let mut g = c.benchmark_group("send_buffer");
    g.throughput(Throughput::Bytes(BLOCK as u64));
    g.bench_function("write_slice_release_owned_64kib", |b| {
        let mut sb = SendBuffer::with_capacity(4 << 20);
        b.iter(|| cycle(&mut sb, Bytes::from(vec![0xA5u8; BLOCK])))
    });
    g.bench_function("write_slice_release_static_64kib", |b| {
        let mut sb = SendBuffer::with_capacity(4 << 20);
        b.iter(|| cycle(&mut sb, PATTERN.clone()))
    });
    g.finish();
}

/// World turnover: each iteration builds a two-host harness, moves 64 KiB
/// each way over one connection, closes it and drops the harness. From the
/// second iteration on, the connections and subflows start on the storage
/// the previous iteration's stacks gave back to the thread.
fn bench_spares(c: &mut Criterion) {
    use smapp_mptcp::apps::BulkSender;
    use smapp_mptcp::harness::{Harness, Side};
    use smapp_mptcp::ConnState;
    use smapp_sim::SimTime;
    use std::time::Duration;
    const BLOCK: u64 = 64 * 1024;
    let (client, server) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
    let mut g = c.benchmark_group("spares");
    g.throughput(Throughput::Bytes(2 * BLOCK));
    g.bench_function("connection_on_fresh_stack_64kib", |b| {
        b.iter(|| {
            let delay = Duration::from_millis(5);
            let mut h = Harness::new(7, delay, vec![client], vec![server]);
            let send = || Box::new(BulkSender::new(BLOCK).close_when_done());
            h.b.listen(80, Box::new(move || send()));
            h.connect(Side::A, 80, send()).unwrap();
            h.run_until(SimTime::from_secs(10));
            let closed = |c: &smapp_mptcp::Connection| c.state == ConnState::Closed;
            assert!(h.a.connections().chain(h.b.connections()).all(closed));
        })
    });
    g.finish();
}

fn bench_reassembly(c: &mut Criterion) {
    let mut g = c.benchmark_group("reassembly");
    g.bench_function("in_order_1000x1400", |b| {
        let chunk = Bytes::from(vec![0u8; 1400]);
        b.iter(|| {
            let mut r = Reassembly::new();
            for i in 0..1000u64 {
                r.insert(i * 1400, chunk.clone());
                black_box(r.pop_ready());
            }
        })
    });
    g.bench_function("reverse_order_200x1400", |b| {
        let chunk = Bytes::from(vec![0u8; 1400]);
        b.iter(|| {
            let mut r = Reassembly::new();
            for i in (0..200u64).rev() {
                r.insert(i * 1400, chunk.clone());
            }
            black_box(r.pop_ready());
        })
    });
    // The connection-level queue over unequal paths: neighbours arrive
    // swapped, so the hole queue goes non-empty and empty again per pair.
    g.bench_function("swapped_pairs_1000x1400", |b| {
        let chunk = Bytes::from(vec![0u8; 1400]);
        let mut r = Reassembly::new();
        let mut base = 0u64;
        b.iter(|| {
            for pair in 0..500u64 {
                let off = base + pair * 2800;
                r.insert(off + 1400, chunk.clone());
                r.insert(off, chunk.clone());
                while let Some(c) = r.pop_next() {
                    black_box(c);
                }
            }
            base += 500 * 2800;
        })
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let cands: Vec<SchedCandidate> = (0..8)
        .map(|i| SchedCandidate {
            id: i,
            srtt: Some(std::time::Duration::from_millis(10 + i as u64 * 7)),
            cwnd_space: 14_000,
            in_flight: 1400,
            backup: false,
        })
        .collect();
    c.bench_function("scheduler_lowest_rtt_8_subflows", |b| {
        let mut s = LowestRtt;
        b.iter(|| s.select(black_box(&cands)))
    });
}

fn bench_netlink(c: &mut Criterion) {
    let ev = smapp_mptcp::PmEvent::SubflowEstablished {
        token: 0xDEAD_BEEF,
        id: 3,
        tuple: smapp_mptcp::FourTuple {
            src: Addr::new(10, 0, 1, 1),
            src_port: 43210,
            dst: Addr::new(10, 0, 9, 1),
            dst_port: 80,
        },
        backup: false,
        initiated_here: true,
    };
    let frame = encode_event(&ev);
    let mut g = c.benchmark_group("netlink");
    g.bench_function("encode_sub_estab_event", |b| {
        b.iter(|| encode_event(black_box(&ev)))
    });
    g.bench_function("decode_sub_estab_event", |b| {
        b.iter(|| nl_decode(black_box(&frame)).unwrap())
    });

    // The command and reply paths: a command, and the nests and TCP_INFO
    // blobs of the replies.
    let open = PmNlCommand::Action(smapp_mptcp::PmAction::OpenSubflow {
        token: 0xDEAD_BEEF,
        src: Addr::new(10, 0, 2, 1),
        src_port: 0,
        dst: Addr::new(10, 0, 9, 1),
        dst_port: 80,
        backup: false,
    });
    let open_frame = encode_command(7, &open);
    let info = |srtt_us| smapp_tcp::TcpInfo {
        state: smapp_tcp::TcpStateInfo::Established,
        srtt_us,
        cwnd: 140_000,
        pacing_rate: 5_000_000,
        ..Default::default()
    };
    let subflows = vec![(0, info(10_000)), (1, info(40_000))];
    let reply = PmNlMessage::InfoReply {
        seq: 8,
        token: 0xDEAD_BEEF,
        conn: Some((1_000, 2_000)),
        subflows: subflows.clone(),
    };
    let reply_frame = encode_reply(&reply);
    let diag = PmNlMessage::DiagReply {
        seq: 9,
        conns: (0..2)
            .map(|token| DiagConn {
                token,
                state: smapp_mptcp::ConnState::Established,
                fallback_inferred: false,
                meta_una: 4_000,
                meta_snd_nxt: 6_500,
                tap_sent: (6_500, 0xDEAD),
                tap_recvd: (1_200, 0xBEEF),
                reinjections: 2,
                subflows: subflows.clone(),
            })
            .collect(),
    };
    g.bench_function("encode_open_subflow_command", |b| {
        b.iter(|| encode_command(7, black_box(&open)))
    });
    g.bench_function("decode_open_subflow_command", |b| {
        b.iter(|| nl_decode(black_box(&open_frame)).unwrap())
    });
    g.bench_function("encode_info_reply_2_subflows", |b| {
        b.iter(|| encode_reply(black_box(&reply)))
    });
    g.bench_function("decode_info_reply_2_subflows", |b| {
        b.iter(|| nl_decode(black_box(&reply_frame)).unwrap())
    });
    g.bench_function("encode_diag_reply_2_conns", |b| {
        b.iter(|| encode_reply(black_box(&diag)))
    });
    g.finish();
}

fn bench_ecmp_hash(c: &mut Criterion) {
    let key = FlowKey {
        src: Addr::new(10, 0, 1, 1),
        dst: Addr::new(10, 0, 9, 1),
        src_port: 43210,
        dst_port: 80,
        proto: 6,
    };
    c.bench_function("ecmp_hash", |b| b.iter(|| black_box(&key).ecmp_hash(7)));
}

/// The event queue, driven the only way it can be from outside the `sim`
/// crate: a node whose timers are the whole workload.
fn bench_event_queue(c: &mut Criterion) {
    use smapp_sim::{Ctx, IfaceId, Node, Packet, Simulator, TimerHandle};
    use std::any::Any;
    use std::time::Duration;

    /// Hold model: `pending` timers outstanding; each expiry schedules one
    /// more `base + rng % spread` nanoseconds ahead until `left` runs out.
    struct Hold {
        pending: usize,
        left: u64,
        base: u64,
        spread: u64,
    }
    impl Hold {
        fn arm(&mut self, ctx: &mut Ctx<'_>) {
            let after = self.base + ctx.rng().next_u64() % self.spread;
            ctx.set_timer_after(Duration::from_nanos(after), 0);
        }
    }
    impl Node for Hold {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.pending {
                self.arm(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            if self.left > 0 {
                self.left -= 1;
                self.arm(ctx);
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

    /// What an ACK clock does to a retransmission timer: every tick
    /// restarts the pending 200 ms timer, either by cancelling it and
    /// arming a new one or by re-arming it in place.
    struct Rearm {
        rto: Option<TimerHandle>,
        left: u64,
        in_place: bool,
    }
    impl Node for Rearm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Duration::from_micros(100), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token != 1 {
                return;
            }
            let rto = Duration::from_millis(200);
            self.rto = Some(match self.rto.take() {
                Some(old) if self.in_place => ctx.rearm_timer_after(old, rto, 0),
                old => {
                    if let Some(old) = old {
                        ctx.cancel_timer(old);
                    }
                    ctx.set_timer_after(rto, 0)
                }
            });
            if self.left > 0 {
                self.left -= 1;
                ctx.set_timer_after(Duration::from_micros(100), 1);
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

    fn run(node: impl Node + 'static) -> u64 {
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(node));
        sim.run().events
    }

    const EVENTS: u64 = 100_000;
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(20);
    g.throughput(Throughput::Elements(EVENTS));
    // (name, base ns, spread ns): a few buckets ahead, inside the open
    // bucket, and at retransmission-timeout distance.
    for (name, base, spread) in [
        ("hold_1k_near", 100_000, 2_000_000),
        ("hold_1k_same_bucket", 0, 50_000),
        ("hold_1k_rto_scale", 200_000_000, 800_000_000),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                run(Hold {
                    pending: 1_000,
                    left: EVENTS - 1_000,
                    base,
                    spread,
                })
            })
        });
    }
    for (name, in_place) in [("cancel_and_rearm", false), ("rearm_in_place", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                run(Rearm {
                    rto: None,
                    left: EVENTS / 2,
                    in_place,
                })
            })
        });
    }
    // World turnover: what a sweep of short worlds pays per world for the
    // queue's fixed tables.
    g.throughput(Throughput::Elements(240));
    g.bench_function("build_and_drain_240_short_worlds", |b| {
        b.iter(|| {
            (0..240)
                .map(|_| {
                    run(Hold {
                        pending: 16,
                        left: 100,
                        base: 100_000,
                        spread: 2_000_000,
                    })
                })
                .sum::<u64>()
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use smapp_mptcp::apps::{BulkSender, Sink};
    use smapp_mptcp::StackConfig;
    use smapp_pm::topo::{self, SERVER_ADDR};
    use smapp_pm::Host;
    use smapp_sim::{LinkCfg, SimTime};
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(1_000_000));
    g.bench_function("bulk_1mb_end_to_end", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut client = Host::new("client", StackConfig::default());
            client.connect_at(
                SimTime::from_millis(1),
                None,
                SERVER_ADDR,
                80,
                Box::new(
                    BulkSender::new(1_000_000)
                        .close_when_done()
                        .stop_sim_when_acked(),
                ),
            );
            let mut server = Host::new("server", StackConfig::default());
            server.listen(
                80,
                Box::new(|| {
                    Box::new(Sink {
                        close_on_eof: true,
                        ..Default::default()
                    })
                }),
            );
            let net = topo::two_path(
                seed,
                client,
                server,
                LinkCfg::mbps_ms(100, 5),
                LinkCfg::mbps_ms(100, 5),
            );
            let mut sim = net.sim;
            sim.run_until(SimTime::from_secs(30))
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_bytes,
    bench_tcp_codec,
    bench_sim_wire,
    bench_stream_tap,
    bench_crypto,
    bench_send_buffer,
    bench_spares,
    bench_reassembly,
    bench_scheduler,
    bench_netlink,
    bench_ecmp_hash,
    bench_event_queue,
    bench_simulator
);
criterion_main!(micro);
