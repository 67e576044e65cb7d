//! Controller-side TCP transport: the southbound server.
//!
//! [`SouthboundServer`] owns a real `TcpListener` and embeds the sans-IO
//! [`Controller`] behind it. One **event-loop thread** owns everything:
//! the nonblocking listener, every switch socket, and the timer wheel —
//! there are no per-connection threads, which is what lets a single
//! controller hold 10k switch connections (see the `fig_c10k` bench).
//!
//! Mechanics, built on `sav-poll`:
//!
//! * **Readiness**: sockets are registered level-triggered in a
//!   [`Poller`]; readable events feed pooled scratch buffers through the
//!   existing deframer via [`Controller::on_bytes`], with a per-wakeup
//!   read cap so one firehose switch cannot starve 9,999 quiet ones.
//! * **Single-writer rule**: only the loop thread writes sockets. Frames
//!   queue in a per-connection [`Outbox`] drained with vectored `writev`,
//!   once per connection per controller output batch; `WouldBlock` arms write interest and a stall deadline — a switch
//!   that stops reading gets its connection killed, never the whole
//!   control plane wedged.
//! * **Timer wheel**: per-connection ECHO keepalives and liveness
//!   deadlines, the stats poll tick, and accept-error backoff are all
//!   wheel timers; the poll timeout is the wheel's next deadline, so the
//!   loop is fully readiness-driven — no sleep-polling anywhere.
//! * **Accept resilience**: transient accept errors (`EMFILE` under fd
//!   exhaustion, aborted handshakes) emit a journal event and the
//!   `sav_accept_errors_total` counter, then pause the listener for a
//!   capped backoff instead of silently killing accepting forever.
//!
//! Wall-clock time maps onto the sans-IO core's [`SimTime`] as nanoseconds
//! since the server started.

use crate::metrics::ChannelMetrics;
use parking_lot::Mutex;
use sav_controller::{ConnId, Controller, ControllerOutput};
use sav_obs::{EventKind, Obs, Severity};
use sav_poll::{BufferPool, Events, Interest, Outbox, Poller, Slab, TimerWheel, Token};
use sav_sim::SimTime;
use std::collections::HashMap;
use std::io::{IoSliceMut, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for the southbound transport.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interval between controller-initiated ECHO keepalives per switch.
    pub echo_interval: Duration,
    /// A switch silent for this long is declared dead and torn down.
    pub liveness_timeout: Duration,
    /// Outbound queue capacity per connection (messages): the depth past
    /// which a non-draining connection counts as stalled.
    pub outbound_queue: usize,
    /// How long an outbound queue may make no progress before the
    /// connection is declared stuck and killed.
    pub write_stall_timeout: Duration,
    /// Fire [`Controller::poll_tick`] for every ready switch at this
    /// interval (statistics collection). `None` disables polling.
    pub stats_poll_interval: Option<Duration>,
    /// Observability handle: connection churn reaches its journal, TCP
    /// send latency its `southbound_send` trace histogram, and the event
    /// loop exports `sav_poll_wakeups_total`,
    /// `sav_writev_batched_frames_total`, `sav_accept_errors_total`, and
    /// the `sav_southbound_backlog_bytes` gauge.
    pub obs: Option<Obs>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            echo_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(2),
            outbound_queue: 256,
            write_stall_timeout: Duration::from_secs(1),
            stats_poll_interval: None,
            obs: None,
        }
    }
}

/// The listener's poller token; connections start at [`CONN_TOKEN_BASE`].
const TOKEN_LISTENER: Token = Token(0);
const CONN_TOKEN_BASE: usize = 1;
/// Poll events delivered per wakeup.
const EVENTS_CAPACITY: usize = 1024;
/// Read scratch buffer size; reads are vectored across two of these.
const READ_BUF_SIZE: usize = 16 * 1024;
/// Fairness cap: `readv` calls per connection per wakeup. Level
/// triggering re-reports a still-full socket on the next wait.
const MAX_READS_PER_WAKE: usize = 8;
/// Accept-error backoff bounds (doubles per consecutive failure).
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// A running controller endpoint bound to a TCP address.
pub struct SouthboundServer {
    addr: SocketAddr,
    controller: Arc<Mutex<Controller>>,
    conn_metrics: Arc<Mutex<HashMap<ConnId, ChannelMetrics>>>,
    server_metrics: ChannelMetrics,
    stop: Arc<AtomicBool>,
    waker: sav_poll::Waker,
    threads: Vec<thread::JoinHandle<()>>,
}

impl SouthboundServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving switches with
    /// the given controller.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        mut controller: Controller,
    ) -> std::io::Result<SouthboundServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The controller shares the server's observability handle so its
        // own instrumentation (causal trace completion, abandonment
        // counters) lands in the same registry the channel reports into.
        if let Some(obs) = &config.obs {
            controller.set_obs(obs.clone());
        }
        let controller = Arc::new(Mutex::new(controller));
        let conn_metrics: Arc<Mutex<HashMap<ConnId, ChannelMetrics>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let server_metrics = ChannelMetrics::new();
        let stop = Arc::new(AtomicBool::new(false));

        let poller = Poller::new(EVENTS_CAPACITY)?;
        let waker = poller.waker()?;
        poller.register(&listener, TOKEN_LISTENER, Interest::READABLE)?;

        let event_loop = EventLoop {
            config,
            controller: controller.clone(),
            conn_metrics: conn_metrics.clone(),
            server_metrics: server_metrics.clone(),
            stop: stop.clone(),
            poller,
            listener,
            listener_paused: false,
            accept_backoff: ACCEPT_BACKOFF_MIN,
            conns: Slab::new(),
            by_conn: HashMap::new(),
            next_conn: 0,
            wheel: TimerWheel::new(Duration::from_millis(1), 1024),
            pool: BufferPool::new(READ_BUF_SIZE, 64),
            started: Instant::now(),
            backlog_bytes: 0,
            published_backlog: 0,
        };
        let handle = thread::Builder::new()
            .name("sav-southbound".into())
            .spawn(move || event_loop.run())?;

        Ok(SouthboundServer {
            addr,
            controller,
            conn_metrics,
            server_metrics,
            stop,
            waker,
            threads: vec![handle],
        })
    }

    /// [`bind`](SouthboundServer::bind), retrying while the port is still
    /// held by a dying predecessor.
    ///
    /// A restarting controller wants its old address back so switches can
    /// reconnect without reconfiguration, but the previous process's socket
    /// may linger (`TIME_WAIT`, or its event loop not yet joined). Retries
    /// `AddrInUse` until `deadline` elapses, pacing attempts with a timed
    /// poller wait (readiness idiom, not a thread sleep); any other error
    /// is returned immediately.
    pub fn bind_with_retry(
        addr: impl ToSocketAddrs + Clone,
        config: ServerConfig,
        mut controller: impl FnMut() -> Controller,
        deadline: Duration,
    ) -> std::io::Result<SouthboundServer> {
        let started = Instant::now();
        let mut pacer = Poller::new(1)?;
        let mut events = Events::with_capacity(1);
        loop {
            match SouthboundServer::bind(addr.clone(), config.clone(), controller()) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse
                        && started.elapsed() < deadline =>
                {
                    let _ = pacer.wait(&mut events, Some(Duration::from_millis(20)));
                }
                other => return other,
            }
        }
    }

    /// The address switches should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The embedded controller, for state inspection (tests, the harness).
    pub fn controller(&self) -> Arc<Mutex<Controller>> {
        self.controller.clone()
    }

    /// Transport metrics for one connection, if it ever existed.
    pub fn conn_metrics(&self, conn: ConnId) -> Option<ChannelMetrics> {
        self.conn_metrics.lock().get(&conn).cloned()
    }

    /// Server-wide transport metrics (deaths declared, echo RTTs,
    /// handshake latencies).
    pub fn server_metrics(&self) -> ChannelMetrics {
        self.server_metrics.clone()
    }

    /// Stop accepting, tear down all connections, and join the loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SouthboundServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wheel payloads. There is no cancel: payloads carry the connection id,
/// and ids are never reused, so a timer for a dead connection is a no-op.
enum Timer {
    /// Per-connection keepalive cadence: liveness check + ECHO send.
    Echo(ConnId),
    /// A blocked outbox's no-progress deadline.
    Stall(ConnId),
    /// The stats poll tick.
    StatsPoll,
    /// Re-enable the paused listener after an accept error.
    AcceptRetry,
}

struct ConnIo {
    conn: ConnId,
    stream: TcpStream,
    outbox: Outbox,
    /// Write interest currently registered (avoids modify churn).
    want_write: bool,
    /// A [`Timer::Stall`] is pending for this connection.
    stall_armed: bool,
    last_heard: Instant,
    /// Last instant the kernel accepted outbound bytes.
    last_progress: Instant,
    accepted_at: Instant,
    /// Handshake latency already recorded.
    handshake_seen: bool,
    metrics: ChannelMetrics,
}

struct EventLoop {
    config: ServerConfig,
    controller: Arc<Mutex<Controller>>,
    conn_metrics: Arc<Mutex<HashMap<ConnId, ChannelMetrics>>>,
    server_metrics: ChannelMetrics,
    stop: Arc<AtomicBool>,
    poller: Poller,
    listener: TcpListener,
    /// Listener deregistered while backing off an accept error.
    listener_paused: bool,
    accept_backoff: Duration,
    /// Connection state, keyed by poller token minus [`CONN_TOKEN_BASE`]
    /// — O(1) on the hot read path.
    conns: Slab<ConnIo>,
    /// Monotonic connection id → slab key, for controller-output routing.
    by_conn: HashMap<ConnId, usize>,
    next_conn: ConnId,
    wheel: TimerWheel<Timer>,
    pool: BufferPool,
    started: Instant,
    /// Running total of unwritten outbound bytes across connections.
    backlog_bytes: u64,
    /// Last value published to the backlog gauge.
    published_backlog: u64,
}

impl EventLoop {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn now_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        let mut due: Vec<Timer> = Vec::new();
        if let Some(interval) = self.config.stats_poll_interval {
            self.wheel.insert(self.now_ns(), interval, Timer::StatsPoll);
        }
        // Register the backlog gauge at zero so it is on the scrape even
        // before any connection ever pushes back.
        if let Some(obs) = &self.config.obs {
            obs.gauges.set("sav_southbound_backlog_bytes", 0.0);
        }
        loop {
            if self.stop.load(Ordering::Relaxed) {
                self.teardown();
                return;
            }
            // Sleep exactly until the next deadline (or forever when
            // nothing is armed — an accept or a wake ends the wait).
            let timeout = self.wheel.next_deadline(self.now_ns());
            if self.poller.wait(&mut events, timeout).is_err() {
                self.teardown();
                return;
            }
            if let Some(obs) = &self.config.obs {
                obs.counters.incr("sav_poll_wakeups_total");
            }
            if self.stop.load(Ordering::Relaxed) {
                self.teardown();
                return;
            }
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready();
                    continue;
                }
                let key = ev.token.0 - CONN_TOKEN_BASE;
                if ev.readable {
                    self.read_ready(key);
                }
                if ev.writable {
                    self.write_ready(key);
                }
            }
            due.clear();
            self.wheel.expire(self.now_ns(), &mut due);
            for t in due.drain(..) {
                self.on_timer(t);
            }
            self.publish_backlog();
        }
    }

    fn teardown(&mut self) {
        for key in self.conns.keys() {
            let Some(conn) = self.conns.get(key).map(|io| io.conn) else {
                continue;
            };
            self.disconnect(conn);
        }
    }

    fn publish_backlog(&mut self) {
        if self.backlog_bytes != self.published_backlog {
            if let Some(obs) = &self.config.obs {
                obs.gauges
                    .set("sav_southbound_backlog_bytes", self.backlog_bytes as f64);
            }
            self.published_backlog = self.backlog_bytes;
        }
    }

    // ---- accept path ----------------------------------------------------

    fn accept_ready(&mut self) {
        if self.listener_paused {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    self.on_accepted(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // EMFILE, ECONNABORTED, and friends: never abandon the
                    // listener. Count it, journal it, pause accepting for a
                    // capped backoff, then resume.
                    if let Some(obs) = &self.config.obs {
                        obs.counters.incr("sav_accept_errors_total");
                        obs.event(
                            Severity::Error,
                            EventKind::AcceptError {
                                error: e.to_string(),
                            },
                        );
                    }
                    let _ = self.poller.deregister(&self.listener);
                    self.listener_paused = true;
                    self.wheel
                        .insert(self.now_ns(), self.accept_backoff, Timer::AcceptRetry);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
            }
        }
    }

    fn on_accepted(&mut self, stream: TcpStream) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let metrics = ChannelMetrics::new();
        self.conn_metrics.lock().insert(conn, metrics.clone());
        let now = Instant::now();
        let key = self.conns.insert(ConnIo {
            conn,
            stream,
            outbox: Outbox::new(),
            want_write: false,
            stall_armed: false,
            last_heard: now,
            last_progress: now,
            accepted_at: now,
            handshake_seen: false,
            metrics,
        });
        let token = Token(key + CONN_TOKEN_BASE);
        let registered = {
            let io = self.conns.get(key).expect("just inserted");
            self.poller.register(&io.stream, token, Interest::READABLE)
        };
        if registered.is_err() {
            self.conns.remove(key);
            return;
        }
        self.by_conn.insert(conn, key);
        if let Some(obs) = &self.config.obs {
            obs.event(
                Severity::Info,
                EventKind::PeerConnected { conn: conn as u64 },
            );
        }
        // Phase-spread the first echo across the interval by connection id
        // so keepalives for batch-accepted fleets don't fire as one
        // thundering herd every interval (re-arms keep the phase).
        let phase = self
            .config
            .echo_interval
            .mul_f64((conn % 1024) as f64 / 1024.0);
        self.wheel.insert(
            self.now_ns(),
            self.config.echo_interval - phase,
            Timer::Echo(conn),
        );
        let greeting = self.controller.lock().on_connect(conn);
        self.queue_write(conn, greeting);
    }

    // ---- read path ------------------------------------------------------

    fn read_ready(&mut self, key: usize) {
        for _ in 0..MAX_READS_PER_WAKE {
            let Some(io) = self.conns.get_mut(key) else {
                return;
            };
            let conn = io.conn;
            let mut b1 = self.pool.get();
            let mut b2 = self.pool.get();
            let res = {
                let mut iov = [IoSliceMut::new(&mut b1), IoSliceMut::new(&mut b2)];
                io.stream.read_vectored(&mut iov)
            };
            match res {
                Ok(0) => {
                    self.pool.put(b1);
                    self.pool.put(b2);
                    self.disconnect(conn);
                    return;
                }
                Ok(n) => {
                    io.last_heard = Instant::now();
                    io.metrics.add_bytes_in(n as u64);
                    let n1 = n.min(READ_BUF_SIZE);
                    let n2 = n - n1;
                    let ok = self.feed_controller(conn, &b1[..n1], &b2[..n2]);
                    self.pool.put(b1);
                    self.pool.put(b2);
                    if !ok {
                        // Framing/codec failure: the stream cannot be
                        // trusted again.
                        self.disconnect(conn);
                        return;
                    }
                    if n < 2 * READ_BUF_SIZE {
                        return; // socket drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.pool.put(b1);
                    self.pool.put(b2);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.pool.put(b1);
                    self.pool.put(b2);
                    return;
                }
                Err(_) => {
                    self.pool.put(b1);
                    self.pool.put(b2);
                    self.disconnect(conn);
                    return;
                }
            }
        }
        // Fairness cap hit: the still-readable socket re-reports on the
        // next wait under level triggering.
    }

    /// Push `a` then `b` through the controller; `false` means the stream
    /// is poisoned and must be torn down.
    fn feed_controller(&mut self, conn: ConnId, a: &[u8], b: &[u8]) -> bool {
        let now = self.now();
        let (out, parsed, ready) = {
            let mut ctrl = self.controller.lock();
            let before = ctrl.stats.rx_messages;
            let mut merged = ControllerOutput::default();
            let mut ok = true;
            for chunk in [a, b] {
                if chunk.is_empty() {
                    continue;
                }
                match ctrl.on_bytes(now, conn, chunk) {
                    Ok(out) => {
                        merged.to_switch.extend(out.to_switch);
                        merged.echo_replies.extend(out.echo_replies);
                        merged.hangups.extend(out.hangups);
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            let parsed = ctrl.stats.rx_messages - before;
            let ready = ok && ctrl.conn_ready(conn);
            (ok.then_some(merged), parsed, ready)
        };
        let Some(out) = out else {
            return false;
        };
        if let Some(&key) = self.by_conn.get(&conn) {
            if let Some(io) = self.conns.get_mut(key) {
                io.metrics.add_msgs_in(parsed);
                if ready && !io.handshake_seen {
                    io.handshake_seen = true;
                    let secs = io.accepted_at.elapsed().as_secs_f64();
                    io.metrics.record_handshake_latency(secs);
                    self.server_metrics.record_handshake_latency(secs);
                }
            }
        }
        self.dispatch(out);
        true
    }

    // ---- write path -----------------------------------------------------

    /// Route a controller output batch: writes, echo RTT samples, hangups.
    /// Every frame is queued first and each connection the batch touched
    /// is then drained once, so a batch costs one `writev` per switch.
    fn dispatch(&mut self, out: ControllerOutput) {
        let mut touched: Vec<usize> = Vec::new();
        for (conn, bytes) in out.to_switch {
            if let Some(key) = self.enqueue(conn, bytes) {
                if !touched.contains(&key) {
                    touched.push(key);
                }
            }
        }
        for key in touched {
            self.drain_outbox(key);
        }
        for (conn, payload) in out.echo_replies {
            if let Some(sent_us) = decode_echo_payload(&payload) {
                let rtt_us = self.now_micros().saturating_sub(sent_us);
                if let Some(&key) = self.by_conn.get(&conn) {
                    if let Some(io) = self.conns.get(key) {
                        io.metrics.record_echo_rtt(rtt_us as f64 / 1e6);
                    }
                }
                self.server_metrics.record_echo_rtt(rtt_us as f64 / 1e6);
            }
            if let Some(&key) = self.by_conn.get(&conn) {
                if let Some(io) = self.conns.get_mut(key) {
                    io.last_heard = Instant::now();
                }
            }
        }
        for conn in out.hangups {
            self.disconnect(conn);
        }
    }

    /// Queue one frame and write it out now.
    fn queue_write(&mut self, conn: ConnId, bytes: Vec<u8>) {
        if let Some(key) = self.enqueue(conn, bytes) {
            self.drain_outbox(key);
        }
    }

    /// Push one frame onto `conn`'s outbox without writing; returns the
    /// connection's slab key (`None` for a connection already gone).
    fn enqueue(&mut self, conn: ConnId, bytes: Vec<u8>) -> Option<usize> {
        let key = *self.by_conn.get(&conn)?;
        let io = self.conns.get_mut(key)?;
        io.metrics.add_msgs_out(1);
        self.backlog_bytes += bytes.len() as u64;
        io.outbox.push(bytes);
        io.metrics.observe_queue_depth(io.outbox.frame_count());
        Some(key)
    }

    /// Writable readiness for an armed connection.
    fn write_ready(&mut self, key: usize) {
        self.drain_outbox(key);
    }

    fn drain_outbox(&mut self, key: usize) {
        let Some(io) = self.conns.get_mut(key) else {
            return;
        };
        if io.outbox.is_empty() {
            return;
        }
        let conn = io.conn;
        let span = self.config.obs.as_ref().map(|o| o.span("southbound_send"));
        let res = io.outbox.drain(&mut io.stream);
        drop(span);
        match res {
            Ok(d) => {
                if d.bytes > 0 {
                    io.last_progress = Instant::now();
                    io.metrics.add_bytes_out(d.bytes as u64);
                    self.backlog_bytes -= d.bytes as u64;
                }
                if d.frames > 0 {
                    if let Some(obs) = &self.config.obs {
                        obs.counters
                            .add("sav_writev_batched_frames_total", d.frames as u64);
                    }
                }
                if d.blocked {
                    if !io.want_write {
                        io.want_write = true;
                        let token = Token(key + CONN_TOKEN_BASE);
                        let _ = self.poller.modify(&io.stream, token, Interest::BOTH);
                    }
                    if !io.stall_armed {
                        io.stall_armed = true;
                        self.wheel.insert(
                            self.now_ns(),
                            self.config.write_stall_timeout,
                            Timer::Stall(conn),
                        );
                    }
                } else if io.want_write {
                    io.want_write = false;
                    let token = Token(key + CONN_TOKEN_BASE);
                    let _ = self.poller.modify(&io.stream, token, Interest::READABLE);
                }
            }
            Err(_) => self.disconnect(conn),
        }
    }

    // ---- timers ---------------------------------------------------------

    fn on_timer(&mut self, t: Timer) {
        match t {
            Timer::Echo(conn) => self.echo_timer(conn),
            Timer::Stall(conn) => self.stall_timer(conn),
            Timer::StatsPoll => self.stats_poll_timer(),
            Timer::AcceptRetry => {
                let rearmed = self
                    .poller
                    .register(&self.listener, TOKEN_LISTENER, Interest::READABLE)
                    .or_else(|_| {
                        // The earlier deregister may have failed, leaving
                        // the registration in place: modify instead.
                        self.poller
                            .modify(&self.listener, TOKEN_LISTENER, Interest::READABLE)
                    });
                if rearmed.is_err() {
                    // Keep trying: the listener must never die silently.
                    self.wheel
                        .insert(self.now_ns(), self.accept_backoff, Timer::AcceptRetry);
                    return;
                }
                self.listener_paused = false;
                self.accept_ready();
            }
        }
    }

    /// Keepalive cadence: declare a silent switch dead, otherwise send the
    /// next ECHO and re-arm.
    fn echo_timer(&mut self, conn: ConnId) {
        let Some(&key) = self.by_conn.get(&conn) else {
            return; // connection already gone; stale timer
        };
        let Some(io) = self.conns.get_mut(key) else {
            return;
        };
        if io.last_heard.elapsed() > self.config.liveness_timeout {
            self.server_metrics.add_dead_declared();
            io.metrics.add_dead_declared();
            self.disconnect(conn);
            return; // no re-arm: the connection is gone
        }
        let payload = encode_echo_payload(self.now_micros());
        let bytes = self.controller.lock().send_echo(conn, payload);
        if let Some(bytes) = bytes {
            self.queue_write(conn, bytes);
        }
        self.wheel
            .insert(self.now_ns(), self.config.echo_interval, Timer::Echo(conn));
    }

    /// A blocked outbox made no progress for the stall deadline (or grew
    /// past the configured queue depth): the switch is not consuming. Cut
    /// it loose instead of blocking the whole control plane.
    fn stall_timer(&mut self, conn: ConnId) {
        let Some(&key) = self.by_conn.get(&conn) else {
            return;
        };
        let Some(io) = self.conns.get_mut(key) else {
            return;
        };
        io.stall_armed = false;
        if io.outbox.is_empty() {
            return;
        }
        let idle = io.last_progress.elapsed();
        let overflowing = io.outbox.frame_count() > self.config.outbound_queue.max(1);
        if idle >= self.config.write_stall_timeout || overflowing {
            self.disconnect(conn);
            return;
        }
        // Progress happened since arming: push the deadline out.
        io.stall_armed = true;
        let remaining = self.config.write_stall_timeout - idle;
        self.wheel
            .insert(self.now_ns(), remaining, Timer::Stall(conn));
    }

    /// Fire the controller's poll hook; stats-collecting apps answer with
    /// multipart requests that ship through the ordinary dispatch path.
    fn stats_poll_timer(&mut self) {
        let Some(interval) = self.config.stats_poll_interval else {
            return;
        };
        self.wheel.insert(self.now_ns(), interval, Timer::StatsPoll);
        let now = self.now();
        let out = self.controller.lock().poll_tick(now);
        self.dispatch(out);
    }

    // ---- teardown -------------------------------------------------------

    /// Controller-driven teardown: notify apps, then close the socket.
    fn disconnect(&mut self, conn: ConnId) {
        if self.by_conn.contains_key(&conn) {
            let out = self.controller.lock().on_disconnect(self.now(), conn);
            self.close_io(conn);
            self.dispatch(out);
        }
    }

    fn close_io(&mut self, conn: ConnId) {
        if let Some(key) = self.by_conn.remove(&conn) {
            if let Some(io) = self.conns.remove(key) {
                self.backlog_bytes -= io.outbox.backlog_bytes() as u64;
                let _ = self.poller.deregister(&io.stream);
                let _ = io.stream.shutdown(Shutdown::Both);
                if let Some(obs) = &self.config.obs {
                    obs.event(
                        Severity::Warn,
                        EventKind::PeerDisconnected { conn: conn as u64 },
                    );
                }
            }
        }
    }
}

/// ECHO payloads carry the send instant (µs since server start) so the
/// reply alone is enough to compute the RTT.
pub(crate) fn encode_echo_payload(micros: u64) -> Vec<u8> {
    micros.to_le_bytes().to_vec()
}

pub(crate) fn decode_echo_payload(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_payload_roundtrip() {
        assert_eq!(
            decode_echo_payload(&encode_echo_payload(12345)),
            Some(12345)
        );
        assert_eq!(decode_echo_payload(b"short"), None);
    }

    #[test]
    fn bind_and_shutdown_cleanly() {
        let server = SouthboundServer::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Controller::new(vec![]),
        )
        .unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        server.shutdown();
    }

    #[test]
    fn bind_with_retry_reclaims_a_released_port() {
        let first = SouthboundServer::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Controller::new(vec![]),
        )
        .unwrap();
        let addr = first.local_addr();
        first.shutdown();
        let second = SouthboundServer::bind_with_retry(
            addr,
            ServerConfig::default(),
            || Controller::new(vec![]),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(second.local_addr(), addr);
        second.shutdown();
    }
}
