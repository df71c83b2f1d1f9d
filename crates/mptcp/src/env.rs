//! The stack's side-effect channel.
//!
//! Stack entry points collect their outputs — packets to transmit, timers
//! to arm, connect requests from applications, a stop request — in a
//! [`StackEnv`] provided by the caller (the host node, or a test harness).
//! This keeps the protocol machinery free of any direct dependency on the
//! simulator's node/context machinery and makes every state transition
//! unit-testable.

use bytes::Bytes;
use smapp_sim::{Addr, SimRng, SimTime};
use smapp_tcp::{encode_parts, OptionWriter, TcpFixed};

use crate::app::App;

/// A packet the stack wants transmitted.
#[derive(Debug)]
pub struct OutPacket {
    /// Source address (selects the outgoing interface on the host).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Encoded TCP segment bytes.
    pub seg: Bytes,
}

/// An application's request to open a new connection.
pub struct ConnectRequest {
    /// Bind to this local address (None = host default).
    pub src: Option<Addr>,
    /// Remote address.
    pub dst: Addr,
    /// Remote port.
    pub dst_port: u16,
    /// Application to attach to the new connection.
    pub app: Box<dyn App>,
}

impl std::fmt::Debug for ConnectRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConnectRequest(-> {}:{})", self.dst, self.dst_port)
    }
}

/// Mutable context threaded through every stack entry point.
pub struct StackEnv<'a> {
    /// Current time.
    pub now: SimTime,
    /// Simulation RNG (keys, nonces, ISS, ephemeral ports).
    pub rng: &'a mut SimRng,
    /// Packets to transmit, in order.
    pub out: Vec<OutPacket>,
    /// Timers to arm: `(delay, stack-domain token)`.
    pub timers: Vec<(std::time::Duration, u64)>,
    /// Connect requests raised by applications during this call.
    pub connects: Vec<ConnectRequest>,
    /// Set when an application asks the whole simulation to stop.
    pub stop: bool,
}

impl<'a> StackEnv<'a> {
    /// A fresh env at `now`.
    pub fn new(now: SimTime, rng: &'a mut SimRng) -> Self {
        StackEnv {
            now,
            rng,
            out: Vec::new(),
            timers: Vec::new(),
            connects: Vec::new(),
            stop: false,
        }
    }

    /// Encode a segment from its parts and queue it for transmission.
    ///
    /// # Panics
    /// Panics if `opts` overflowed the 40-byte options area — the stack
    /// never writes that much, so this is an engine bug.
    pub fn send_segment(
        &mut self,
        src: Addr,
        dst: Addr,
        hdr: &TcpFixed,
        opts: &OptionWriter,
        payload: &[u8],
    ) {
        let seg = encode_parts(hdr, opts, payload).expect("stack built an unencodable segment");
        self.out.push(OutPacket { src, dst, seg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smapp_tcp::TcpView;

    #[test]
    fn send_segment_encodes() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let hdr = TcpFixed {
            src_port: 10,
            dst_port: 20,
            ..Default::default()
        };
        let (src, dst) = (Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2));
        env.send_segment(src, dst, &hdr, &OptionWriter::new(), b"hi");
        assert_eq!(env.out.len(), 1);
        let back = TcpView::parse(&env.out[0].seg).unwrap();
        assert_eq!(back.hdr, hdr);
        assert_eq!(back.payload, b"hi");
        assert_eq!(env.out[0].src, src);
    }
}
