//! Applications over the byte-stream service.
//!
//! An [`App`] rides on one connection: it is told when the connection is
//! established, receives the in-order byte stream, writes into the send
//! buffer, and can arm private timers. The SMAPP premise is that apps see
//! *only* this socket-like interface — everything multipath-aware goes
//! through the subflow controller instead.
//!
//! The stream moves as [`Bytes`] in both directions and is never copied at
//! this boundary. [`App::on_data`] hands the app a slice of the buffer the
//! segment arrived in; [`AppCtx::write`] takes ownership of the app's
//! `Bytes`, returns how long a prefix it accepted, and holds that buffer
//! until it is acknowledged. An app should therefore hand out slices of a
//! long-lived buffer — `Bytes::from_static` over a `static` block, or one
//! `Bytes::from(vec)` sliced per write — and re-offer the unaccepted
//! remainder (`data.slice(n..)`) from [`App::on_send_space`].
//!
//! Ready-made apps used by the experiments live in [`crate::apps`].

use bytes::Bytes;
use smapp_sim::{Addr, SimTime};

use crate::conn::Connection;
use crate::env::{ConnectRequest, StackEnv};

/// Application callbacks. All default to no-ops so simple apps stay simple.
pub trait App {
    /// The connection completed its three-way handshake.
    fn on_established(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let _ = ctx;
    }
    /// In-order data arrived.
    fn on_data(&mut self, ctx: &mut AppCtx<'_, '_>, data: Bytes) {
        let _ = (ctx, data);
    }
    /// Send-buffer space became available after being full.
    fn on_send_space(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let _ = ctx;
    }
    /// A timer armed via [`AppCtx::set_timer`] fired.
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_>, token: u64) {
        let _ = (ctx, token);
    }
    /// The peer finished sending (DATA_FIN consumed — end of stream).
    fn on_eof(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let _ = ctx;
    }
    /// The connection is fully closed (both directions done or aborted).
    fn on_closed(&mut self, now: SimTime) {
        let _ = now;
    }
    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// What an application may do during a callback.
pub struct AppCtx<'a, 'e> {
    pub(crate) conn: &'a mut Connection,
    pub(crate) env: &'a mut StackEnv<'e>,
}

impl AppCtx<'_, '_> {
    /// Current time.
    pub fn now(&self) -> SimTime {
        self.env.now
    }

    /// Hand `data` to the connection send buffer; returns the length of
    /// the prefix it accepted (backpressure applies — watch
    /// [`App::on_send_space`] for room, then offer the rest again).
    ///
    /// The mirror of [`App::on_data`]: the connection takes ownership of
    /// the `Bytes` and keeps *that* buffer, cut to the accepted prefix,
    /// until the peer acknowledges it — nothing is copied.
    pub fn write(&mut self, data: Bytes) -> usize {
        self.conn.app_write(data)
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> u64 {
        self.conn.send_space()
    }

    /// Finish sending: after buffered data drains, a DATA_FIN is sent.
    pub fn close(&mut self) {
        self.conn.app_close();
    }

    /// Bytes of application payload acknowledged by the peer so far.
    pub fn bytes_acked(&self) -> u64 {
        self.conn.meta_una()
    }

    /// Bytes of application payload delivered to us so far.
    pub fn bytes_received(&self) -> u64 {
        self.conn.bytes_delivered()
    }

    /// Arm an application timer. `token` must fit in 32 bits (the stack
    /// multiplexes it into its timer space).
    pub fn set_timer(&mut self, after: std::time::Duration, token: u32) {
        let t =
            crate::stack::timer_token(crate::stack::TimerKind::App, self.conn.idx, 0, token as u64);
        self.env.timers.push((after, t));
    }

    /// Ask the host to open a brand-new connection (used by workload
    /// drivers such as the Fig. 3 repeated-GET client).
    pub fn connect(&mut self, dst: Addr, dst_port: u16, app: Box<dyn App>) {
        self.env.connects.push(ConnectRequest {
            src: None,
            dst,
            dst_port,
            app,
        });
    }

    /// Ask the simulation to stop (workload complete).
    pub fn stop_sim(&mut self) {
        self.env.stop = true;
    }
}

/// An app that does nothing (server-side default while testing).
#[derive(Debug, Default)]
pub struct NullApp;

impl App for NullApp {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
