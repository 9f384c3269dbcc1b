//! # mq-front — readiness-polled event-loop frontend
//!
//! The TCP frontend of the mquery service. A single poll thread drives
//! every client connection over nonblocking sockets: no per-connection
//! thread, no blocking reads. Decoded requests flow through
//! `mq_server`'s [`Dispatcher`] (collection resolution, admission, admin
//! opcodes), and admitted queries are executed by the
//! [`BatchScheduler`](mq_server::BatchScheduler) workers of their
//! collection. Because a connection may pipeline many requests, queries
//! from one client can share a batch.
//!
//! ```no_run
//! use mq_core::QueryType;
//! use mq_front::FrontServer;
//! use mq_index::LinearScan;
//! use mq_metric::Vector;
//! use mq_server::{Client, EngineBackend, ServerConfig};
//! use mq_storage::{Dataset, PagedDatabase};
//!
//! let ds = Dataset::new((0..1000).map(|i| Vector::new(vec![i as f32])).collect());
//! let db = PagedDatabase::pack(&ds, Default::default());
//! let scan = LinearScan::new(db.page_count());
//! let backend = EngineBackend::new(db, Box::new(scan), 0.10, true);
//!
//! let server = FrontServer::bind("127.0.0.1:0", Box::new(backend), &ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.query(&Vector::new(vec![42.0]), &QueryType::knn(3))?;
//! assert_eq!(reply.answers.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Architecture
//!
//! ```text
//!             ┌────────────────────────────── poll thread ─┐
//!  clients ──▶│ accept → read → decode → Dispatcher        │
//!             │    ▲                        │ admitted      │
//!             │    │ flush slots            ▼               │
//!             │    └── reply slot ◀── submit_with sink ─────┼──▶ BatchScheduler
//!             └─────────────────────────────────────────────┘     workers
//! ```
//!
//! Each connection keeps a FIFO of *reply slots*. A request that can be
//! answered immediately (stats, admin opcodes, refusals) pushes a filled
//! slot; an admitted query pushes an empty slot and hands the scheduler
//! a sink that fills it from a worker thread and wakes the poller.
//! Replies are flushed strictly from the front of the FIFO, so pipelined
//! requests on one connection are answered in request order even though
//! their batches may complete out of order.
//!
//! ## Drain protocol
//!
//! [`FrontServer::begin_drain`] stops accepting new connections while
//! existing ones keep being served; [`FrontServer::drain`] then waits
//! for in-flight batches to finish. `mq serve` wires SIGTERM/Ctrl-C
//! (via [`signals`]) to exactly this sequence, checkpoints file-backed
//! stores, and exits 0.

mod obs;
mod poll;
pub mod signals;

pub use obs::FrontObs;
pub use poll::{PollEvent, Poller, WAKER_TOKEN};

use mq_obs::Recorder;
use mq_server::protocol::{Message, ProtocolError, VERSION};
use mq_server::{CollectionRegistry, Dispatcher, QueryBackend, ServerConfig, ServiceMetrics};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the listening socket in the poller.
const LISTENER_TOKEN: u64 = 0;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 1;
/// Upper bound on one poll wait; also the cadence of idle-timeout sweeps
/// and shutdown-flag checks.
const TICK: Duration = Duration::from_millis(200);
/// Read chunk size; large enough that a query frame usually arrives in
/// one or two reads.
const READ_CHUNK: usize = 64 * 1024;

/// A reply slot: `None` until the reply bytes are ready. Filled either
/// inline (immediate replies) or from a scheduler worker via the
/// `submit_with` sink.
type Slot = Arc<Mutex<Option<Vec<u8>>>>;

/// Tokens whose connections have newly filled slots, pushed by worker
/// sinks, drained by the poll thread after a wake.
type DirtyList = Arc<Mutex<Vec<u64>>>;

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet decoded into a full frame.
    inbox: Vec<u8>,
    /// Encoded reply bytes not yet written to the socket.
    outbox: Vec<u8>,
    /// In-order reply slots for pipelined requests.
    pending: VecDeque<Slot>,
    /// Whether the poller currently watches this fd for writability.
    want_write: bool,
    /// Stop reading and close once `outbox` and `pending` are empty —
    /// set after a protocol error or version mismatch reply.
    close_after_flush: bool,
    /// Last inbound byte or outbound reply, for idle timeout.
    last_activity: Instant,
}

impl Conn {
    /// True when every queued reply has been flushed to the socket.
    fn fully_flushed(&self) -> bool {
        self.outbox.is_empty() && self.pending.is_empty()
    }
}

/// The event-loop server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the poll thread and closes every
/// connection; the schedulers then drain.
pub struct FrontServer {
    addr: SocketAddr,
    dispatcher: Arc<Dispatcher>,
    recorder: Recorder,
    poller: Arc<Poller>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    poll_thread: Option<std::thread::JoinHandle<()>>,
}

impl FrontServer {
    /// Binds `addr` and serves `backend` as the default collection.
    /// No recorder — see [`bind_with_recorder`](Self::bind_with_recorder).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_with_recorder(addr, backend, config, &Recorder::disabled())
    }

    /// [`bind`](Self::bind) with an observability [`Recorder`] shared
    /// with the scheduler and engine layers.
    pub fn bind_with_recorder(
        addr: impl ToSocketAddrs,
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> std::io::Result<Self> {
        let registry = Arc::new(CollectionRegistry::new(backend, config, recorder));
        Self::bind_registry(addr, registry, config, recorder)
    }

    /// Binds over an existing [`CollectionRegistry`] — the multi-tenant
    /// entry point.
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        registry: Arc<CollectionRegistry>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let dispatcher = Arc::new(Dispatcher::new(registry, config, recorder));
        let poller = Arc::new(Poller::new()?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let obs = FrontObs::new(recorder);

        let mut event_loop = EventLoop {
            listener: Some(listener),
            dispatcher: Arc::clone(&dispatcher),
            poller: Arc::clone(&poller),
            shutdown: Arc::clone(&shutdown),
            draining: Arc::clone(&draining),
            dirty: Arc::new(Mutex::new(Vec::new())),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            read_timeout: config.read_timeout,
            obs,
        };
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let listener_fd = event_loop
                .listener
                .as_ref()
                .expect("listener set")
                .as_raw_fd();
            event_loop
                .poller
                .register(listener_fd, LISTENER_TOKEN, false)?;
        }
        #[cfg(not(unix))]
        {
            // The fallback poller keys registrations by a pseudo-fd.
            event_loop.poller.register(0, LISTENER_TOKEN, false)?;
        }

        let poll_thread = std::thread::Builder::new()
            .name("mq-front-poll".into())
            .spawn(move || event_loop.run())?;

        Ok(Self {
            addr,
            dispatcher,
            recorder: recorder.clone(),
            poller,
            shutdown,
            draining,
            poll_thread: Some(poll_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate service counters of the default collection.
    pub fn metrics(&self) -> ServiceMetrics {
        self.dispatcher.registry().default_metrics()
    }

    /// The registry behind this server.
    pub fn registry(&self) -> &Arc<CollectionRegistry> {
        self.dispatcher.registry()
    }

    /// The recorder the metrics endpoint renders from.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Renders the recorder's text exposition.
    pub fn render_metrics(&self) -> String {
        self.recorder.render()
    }

    /// Queries admitted but not yet answered, across all collections.
    pub fn in_flight(&self) -> u64 {
        self.dispatcher.registry().total_in_flight()
    }

    /// Stops accepting new connections; established connections keep
    /// being served. Connections already completed by the kernel's
    /// listen backlog are swept in and served too, then the listening
    /// socket is closed so later attempts are refused. Idempotent.
    /// First step of the drain sequence.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.poller.wake();
    }

    /// Waits until no query is in flight or `timeout` elapses; returns
    /// whether the backlog hit zero. Call
    /// [`begin_drain`](Self::begin_drain) first so the backlog cannot
    /// grow behind the wait.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.dispatcher.registry().drain(timeout)
    }

    /// Stops the poll thread and closes every connection. Called on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.poller.wake();
        if let Some(handle) = self.poll_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FrontServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct EventLoop {
    listener: Option<TcpListener>,
    dispatcher: Arc<Dispatcher>,
    poller: Arc<Poller>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    dirty: DirtyList,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    read_timeout: Option<Duration>,
    obs: FrontObs,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            if self.poller.wait(&mut events, TICK).is_err() {
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let iter_start = Instant::now();

            let mut accept_ready = false;
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    continue;
                }
                if ev.token == LISTENER_TOKEN {
                    accept_ready = ev.readable;
                    continue;
                }
                // `closed` alone is not terminal: EPOLLRDHUP fires on a
                // half-close while buffered bytes and pending replies may
                // still need handling; the read path sees the real EOF.
                if ev.readable || ev.closed {
                    self.handle_readable(ev.token);
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
            if accept_ready {
                if let Some(listener) = self.listener.take() {
                    self.accept_pending(&listener);
                    self.listener = Some(listener);
                }
            }
            if self.draining.load(Ordering::SeqCst) {
                // A connection whose handshake completed in the kernel
                // backlog before the drain flag was raised already looks
                // connected to its client, so it must be accepted and
                // served; skipping it would leave the client hung and the
                // level-triggered listener spinning the loop. Sweep the
                // backlog once, then close the listener so later attempts
                // are refused outright.
                if let Some(listener) = self.listener.take() {
                    self.accept_pending(&listener);
                    #[cfg(unix)]
                    {
                        use std::os::unix::io::AsRawFd;
                        let _ = self.poller.deregister(listener.as_raw_fd());
                    }
                    #[cfg(not(unix))]
                    let _ = self.poller.deregister(0);
                }
            }

            // Worker sinks filled reply slots since the last pass.
            let dirty: Vec<u64> = std::mem::take(&mut *self.dirty.lock());
            for token in dirty {
                self.flush(token);
            }

            self.sweep_idle();
            self.obs.observe_iteration(iter_start);
        }
        // Poll thread exits: drop all connections (clients see EOF).
        for (_, _conn) in self.conns.drain() {
            self.obs.connection_closed();
        }
    }

    fn accept_pending(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    #[cfg(unix)]
                    let registered = {
                        use std::os::unix::io::AsRawFd;
                        self.poller.register(stream.as_raw_fd(), token, false)
                    };
                    #[cfg(not(unix))]
                    let registered = self.poller.register(token, token, false);
                    if registered.is_err() {
                        continue; // kernel refused; drop the connection
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            inbox: Vec::new(),
                            outbox: Vec::new(),
                            pending: VecDeque::new(),
                            want_write: false,
                            close_after_flush: false,
                            last_activity: Instant::now(),
                        },
                    );
                    self.obs.connection_opened();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush {
            return; // stop reading once the connection is condemned
        }
        let mut buf = [0u8; READ_CHUNK];
        let mut eof = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbox.extend_from_slice(&buf[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        self.decode_inbox(token);
        if eof {
            // Peer finished sending. Keep the connection only while
            // replies are still owed; pipelined requests already decoded
            // above will be answered before the close.
            let still_owed = self
                .conns
                .get(&token)
                .map(|c| !c.fully_flushed())
                .unwrap_or(false);
            if still_owed {
                if let Some(c) = self.conns.get_mut(&token) {
                    c.close_after_flush = true;
                }
            } else {
                self.close(token);
            }
        }
    }

    /// Decodes every complete frame in the inbox, dispatching each.
    fn decode_inbox(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.inbox.is_empty() || conn.close_after_flush {
                return;
            }
            match Message::decode(&conn.inbox) {
                Ok((msg, consumed)) => {
                    conn.inbox.drain(..consumed);
                    self.handle_message(token, msg);
                }
                Err(ProtocolError::Truncated) => return, // wait for more bytes
                Err(ProtocolError::BadVersion(client)) => {
                    // Speak the one future-proof reply — the version
                    // handshake frame — then hang up. The flag must be
                    // set before enqueueing: the flush inside
                    // enqueue_reply is what closes the connection once
                    // the reply is out.
                    conn.close_after_flush = true;
                    conn.inbox.clear();
                    self.enqueue_reply(
                        token,
                        Message::VersionMismatch {
                            server: VERSION,
                            client,
                        },
                    );
                    return;
                }
                Err(err) => {
                    conn.close_after_flush = true;
                    conn.inbox.clear();
                    self.enqueue_reply(token, Message::Error(format!("protocol error: {err}")));
                    return;
                }
            }
        }
    }

    fn handle_message(&mut self, token: u64, msg: Message) {
        match self.dispatcher.dispatch(msg) {
            Ok(reply) => self.enqueue_reply(token, reply),
            Err(admitted) => {
                // Reserve the reply's position now so pipelined replies
                // stay in request order, then let a scheduler worker fill
                // it whenever the batch completes.
                let slot: Slot = Arc::new(Mutex::new(None));
                let Some(conn) = self.conns.get_mut(&token) else {
                    // Connection died between decode and here: run the
                    // query anyway (it was admitted and counted), drop
                    // the answer.
                    admitted.collection.scheduler().submit_with(
                        admitted.object,
                        admitted.qtype,
                        |_| {},
                    );
                    return;
                };
                conn.pending.push_back(Arc::clone(&slot));
                let dirty = Arc::clone(&self.dirty);
                let poller = Arc::clone(&self.poller);
                admitted.collection.scheduler().submit_with(
                    admitted.object,
                    admitted.qtype,
                    move |reply| {
                        *slot.lock() =
                            Some(Message::encode(&Dispatcher::reply_for(reply)).to_vec());
                        dirty.lock().push(token);
                        poller.wake();
                    },
                );
            }
        }
    }

    /// Queues an already-computed reply and flushes what it can.
    fn enqueue_reply(&mut self, token: u64, reply: Message) {
        let bytes = Message::encode(&reply).to_vec();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.push_back(Arc::new(Mutex::new(Some(bytes))));
        }
        self.flush(token);
    }

    /// Moves filled slots (front of the FIFO only) into the outbox and
    /// writes until the socket blocks.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Promote consecutively-filled slots from the front; a still-empty
        // slot blocks everything behind it to preserve reply order.
        while let Some(slot) = conn.pending.front() {
            let Some(bytes) = slot.lock().take() else {
                break;
            };
            conn.outbox.extend_from_slice(&bytes);
            conn.pending.pop_front();
            conn.last_activity = Instant::now();
        }

        let mut close_now = false;
        while !conn.outbox.is_empty() {
            match conn.stream.write(&conn.outbox) {
                Ok(0) => {
                    close_now = true;
                    break;
                }
                Ok(n) => {
                    conn.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_now = true;
                    break;
                }
            }
        }

        if close_now || (conn.close_after_flush && conn.fully_flushed()) {
            self.close(token);
            return;
        }

        // Keep EPOLLOUT interest only while bytes are stuck in the outbox.
        let want_write = !conn.outbox.is_empty();
        if want_write != conn.want_write {
            conn.want_write = want_write;
            #[cfg(unix)]
            {
                use std::os::unix::io::AsRawFd;
                let _ = self
                    .poller
                    .set_write_interest(conn.stream.as_raw_fd(), token, want_write);
            }
        }
    }

    /// Applies [`ServerConfig::read_timeout`]: a connection that has been
    /// silent past the deadline with no reply in flight is closed.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.read_timeout else {
            return;
        };
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.fully_flushed() && now.duration_since(c.last_activity) > timeout)
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            #[cfg(unix)]
            {
                use std::os::unix::io::AsRawFd;
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            #[cfg(not(unix))]
            {
                let _ = self.poller.deregister(token);
            }
            self.obs.connection_closed();
        }
    }
}
