//! Trace sinks used by the experiment harness — the tcpdump of the
//! simulation. These parse real wire bytes out of packets, exactly as the
//! paper's measurements parsed captures.

use std::collections::VecDeque;

use smapp_mptcp::options::MpOption;
use smapp_sim::{LinkId, SimTime, TraceEvent, TraceKind, TraceSink};
use smapp_tcp::TcpView;

/// One observed data segment for the Fig. 2a sequence plot.
#[derive(Debug, Clone, Copy)]
pub struct SeqPoint {
    /// Observation time.
    pub at: SimTime,
    /// Absolute data sequence number (wire DSN).
    pub dsn: u64,
    /// Payload length.
    pub len: u16,
    /// Which traced link carried it (index into the watch list).
    pub path: usize,
}

/// Records `(time, DSN, path)` for every data segment entering the watched
/// links — the raw material of the paper's Fig. 2a.
#[derive(Debug)]
pub struct SeqTraceSink {
    links: Vec<LinkId>,
    /// Collected points.
    pub points: Vec<SeqPoint>,
}

impl SeqTraceSink {
    /// Watch the given links (client-side enqueue direction).
    pub fn new(links: Vec<LinkId>) -> Self {
        SeqTraceSink {
            links,
            points: Vec::new(),
        }
    }

    /// Relative, plot-ready rows: `(seconds, relative bytes, path)`.
    /// DSNs are rebased to the smallest observed.
    pub fn relative_rows(&self) -> Vec<(f64, u64, usize)> {
        let Some(base) = self.points.iter().map(|p| p.dsn).min() else {
            return Vec::new();
        };
        self.points
            .iter()
            .map(|p| (p.at.as_secs_f64(), p.dsn - base, p.path))
            .collect()
    }
}

impl TraceSink for SeqTraceSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn record(&mut self, ev: &TraceEvent<'_>) {
        let TraceKind::Enqueue { link, .. } = ev.kind else {
            return;
        };
        let Some(path) = self.links.iter().position(|&l| l == link) else {
            return;
        };
        let Ok(seg) = TcpView::parse(&ev.pkt.payload) else {
            return;
        };
        if seg.payload.is_empty() {
            return;
        }
        for opt in seg.mptcp_opts() {
            if let Ok(MpOption::Dss(dss)) = MpOption::decode(opt) {
                if let Some(m) = dss.mapping {
                    if m.len > 0 {
                        self.points.push(SeqPoint {
                            at: ev.at,
                            dsn: m.dsn,
                            len: m.len,
                            path,
                        });
                    }
                }
            }
        }
    }
}

/// Measures the delay between each connection's `MP_CAPABLE` SYN and the
/// following `MP_JOIN` SYN — the paper's Fig. 3 metric, as observed on the
/// wire at the client.
#[derive(Debug)]
pub struct HandshakeTraceSink {
    /// Only record transmissions originated by this node (routers re-send
    /// the same packet when forwarding).
    node: smapp_sim::NodeId,
    /// Pending MP_CAPABLE SYN timestamps (FIFO; the workload runs
    /// connections strictly sequentially).
    pending: VecDeque<SimTime>,
    /// CAPA→JOIN deltas, seconds.
    pub deltas: Vec<f64>,
}

impl HandshakeTraceSink {
    /// A sink watching SYNs originated by `node` (the client).
    pub fn new(node: smapp_sim::NodeId) -> Self {
        HandshakeTraceSink {
            node,
            pending: VecDeque::new(),
            deltas: Vec::new(),
        }
    }
}

impl TraceSink for HandshakeTraceSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn record(&mut self, ev: &TraceEvent<'_>) {
        // Watch the transmission at the originating host only.
        let TraceKind::Send { node, .. } = ev.kind else {
            return;
        };
        if node != self.node {
            return;
        }
        let Ok(seg) = TcpView::parse(&ev.pkt.payload) else {
            return;
        };
        if !seg.hdr.flags.syn || seg.hdr.flags.ack {
            return;
        }
        for opt in seg.mptcp_opts() {
            match MpOption::decode(opt) {
                Ok(MpOption::Capable {
                    receiver_key: None, ..
                }) => {
                    self.pending.push_back(ev.at);
                }
                Ok(MpOption::JoinSyn { .. }) => {
                    if let Some(capa_at) = self.pending.pop_front() {
                        self.deltas.push((ev.at - capa_at).as_secs_f64());
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_mptcp::options::{Dss, DssMapping};
    use smapp_sim::{Addr, Dir, Packet};
    use smapp_tcp::{encode_parts, OptionWriter, TcpFixed, TcpFlags, OPT_KIND_MPTCP};

    /// A packet from port 1 to port 2 carrying one MPTCP option.
    fn pkt(flags: TcpFlags, opt: MpOption, payload_len: usize) -> Packet {
        let hdr = TcpFixed {
            src_port: 1,
            dst_port: 2,
            flags,
            ..Default::default()
        };
        let mut opts = OptionWriter::new();
        opts.push(OPT_KIND_MPTCP, &opt.encode());
        let seg = encode_parts(&hdr, &opts, &vec![0u8; payload_len]).unwrap();
        Packet::tcp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), seg)
    }

    fn data_pkt(dsn: u64, len: u16) -> Packet {
        let dss = MpOption::Dss(Dss {
            data_ack: None,
            mapping: Some(DssMapping { dsn, ssn: 1, len }),
            data_fin: false,
        });
        pkt(TcpFlags::ACK, dss, len as usize)
    }

    fn syn_pkt(opt: MpOption) -> Packet {
        pkt(TcpFlags::SYN, opt, 0)
    }

    #[test]
    fn seq_sink_collects_and_rebases() {
        let mut sink = SeqTraceSink::new(vec![LinkId(0), LinkId(1)]);
        let p1 = data_pkt(1000, 100);
        let p2 = data_pkt(1100, 100);
        sink.record(&TraceEvent {
            at: SimTime::from_millis(1),
            kind: TraceKind::Enqueue {
                link: LinkId(0),
                dir: Dir::AtoB,
            },
            pkt: &p1,
        });
        sink.record(&TraceEvent {
            at: SimTime::from_millis(2),
            kind: TraceKind::Enqueue {
                link: LinkId(1),
                dir: Dir::AtoB,
            },
            pkt: &p2,
        });
        // Unwatched link: ignored.
        sink.record(&TraceEvent {
            at: SimTime::from_millis(3),
            kind: TraceKind::Enqueue {
                link: LinkId(9),
                dir: Dir::AtoB,
            },
            pkt: &p2,
        });
        let rows = sink.relative_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0.001, 0, 0));
        assert_eq!(rows[1], (0.002, 100, 1));
    }

    #[test]
    fn handshake_sink_pairs_capa_join() {
        let mut sink = HandshakeTraceSink::new(smapp_sim::NodeId(0));
        let node = smapp_sim::NodeId(0);
        let iface = smapp_sim::IfaceId(0);
        let capa = syn_pkt(MpOption::Capable {
            version: 0,
            flags: 1,
            sender_key: 7,
            receiver_key: None,
        });
        let join = syn_pkt(MpOption::JoinSyn {
            backup: false,
            addr_id: 1,
            token: 9,
            nonce: 3,
        });
        sink.record(&TraceEvent {
            at: SimTime::from_micros(100),
            kind: TraceKind::Send { node, iface },
            pkt: &capa,
        });
        sink.record(&TraceEvent {
            at: SimTime::from_micros(450),
            kind: TraceKind::Send { node, iface },
            pkt: &join,
        });
        assert_eq!(sink.deltas.len(), 1);
        assert!((sink.deltas[0] - 350e-6).abs() < 1e-12);
    }
}
