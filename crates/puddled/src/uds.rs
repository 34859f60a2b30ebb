//! UNIX-domain-socket server exposing the daemon to other processes.
//!
//! The paper's clients talk to `puddled` over a UNIX domain socket and
//! receive puddle file descriptors via `sendmsg(SCM_RIGHTS)`; here the
//! responses carry file paths instead (see DESIGN.md). Credentials are taken
//! from the client's `Hello` message; on Linux the kernel-verified
//! `SO_PEERCRED` uid/gid are preferred when available.
//!
//! # Runtime
//!
//! The server is a **sharded epoll runtime plus a two-lane worker pool**:
//!
//! * One **acceptor thread** owns the nonblocking listener. Each accepted
//!   socket is handed to the least-loaded reactor whose slice of the
//!   connection budget has room; at the global connection cap the acceptor
//!   writes a [`puddles_proto::ErrorCode::Busy`] error (enveloped with
//!   `req_id` 0, since it answers no request) and closes the socket, so
//!   clients can back off instead of parsing a bare EOF.
//! * **N reactor threads** (default `min(cores, 4)`, see [`ServerConfig`])
//!   each own a private poller, waker, and connection table: a reactor
//!   reads whatever bytes its sockets have, feeds them to an incremental
//!   frame decoder ([`puddles_proto::frame::FrameDecoder`] — frames split
//!   at arbitrary byte boundaries reassemble transparently), and flushes
//!   response bytes, parking partial writes in a per-connection output
//!   buffer until the socket drains. Reactors never execute a request and
//!   never touch each other's connections, so accept/decode/write work
//!   scales with cores instead of funneling through one event loop.
//! * A **worker pool** executes requests (`Daemon::handle`) off a
//!   **two-lane queue**: heavyweight requests (pool import/export,
//!   creation/deletion, recovery — see `service::lane_of`) ride the bulk
//!   lane, which only a reserved minority of workers prefer; the remaining
//!   workers serve the fast lane exclusively, so a burst of imports can
//!   never starve cheap metadata operations. Workers push the encoded
//!   response to the owning reactor's completion queue and wake it.
//!
//! # Protocol
//!
//! Every frame a client sends is a [`puddles_proto::RequestEnvelope`] and
//! every frame the daemon writes is a [`puddles_proto::ResponseEnvelope`].
//! Up to the connection's negotiated window (at most
//! [`MAX_PIPELINED_REQUESTS`]) of requests may be in flight at once, and
//! responses complete — and are written — **out of order**, paired by
//! `req_id`. A frame that does not decode as an envelope (or whose length
//! prefix exceeds the frame cap) closes that connection only.
//!
//! # Backpressure
//!
//! Three bounds keep a misbehaving peer from ballooning daemon memory: the
//! global connection cap (excess connections are turned away with a `Busy`
//! frame), a per-connection cap on parsed-plus-in-flight requests, and a
//! per-connection output high-water mark — a client that stops reading its
//! responses (or pipelines without reading) has its *read* interest dropped
//! until the output buffer drains, so its socket fills and the client
//! blocks instead of the daemon buffering without bound.
//!
//! # Shutdown
//!
//! [`UdsServer::shutdown`] is graceful and *bounded*: the acceptor stops,
//! every reactor drops idle connections immediately, gives in-flight
//! requests and partially written responses [`SHUTDOWN_GRACE`] to finish,
//! then force-drops stragglers; the worker pool is drained and joined
//! (detached past the deadline, so a pathological request cannot wedge the
//! process).

use crate::service::{grant_limit, lane_of, Daemon, Lane, DEFAULT_MAX_IN_FLIGHT};
use polling::{Event, Interest, Poller, Waker};
use puddles_pmem::clock::Clock;
use puddles_proto::frame::{self, FrameDecoder};
use puddles_proto::{Credentials, Request, RequestEnvelope, Response, ResponseEnvelope};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound on simultaneous client connections. A reactor holds one
/// fd and a small state machine per connection — no thread — so this is a
/// memory/fd bound, not a thread-count bound (the old design capped at 256
/// threads).
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Hard ceiling on reactor threads (more event loops than this buys
/// nothing: the worker pool, not event demultiplexing, is the next
/// bottleneck).
pub const MAX_REACTORS: usize = 4;

/// How long in-flight requests and partially written responses are given to
/// finish once shutdown is requested.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Requests a single connection may have parsed-but-undispatched plus in
/// flight at once; above this the connection's read interest is dropped
/// until completions drain (its socket fills; the kernel pushes back on the
/// client). This is also the useful upper bound on a client's pipeline
/// depth.
pub const MAX_PIPELINED_REQUESTS: usize = 64;

/// Per-connection output high-water mark: once this many bytes are parked
/// waiting for a slow reader, the connection's read interest is dropped
/// until the buffer drains below it.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Largest chunk a reactor reads per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Acceptor poll-token namespace: listener plus waker.
const TOKEN_LISTENER: u64 = 0;
/// Waker token (used by the acceptor's and every reactor's poller).
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection (per-reactor token space).
const FIRST_CONN_TOKEN: u64 = 2;

/// Runtime shape of a [`UdsServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on simultaneous connections across all reactors; beyond it the
    /// acceptor answers with a `Busy` frame and closes.
    pub max_connections: usize,
    /// Number of reactor (event-loop) threads. Clamped to
    /// `1..=`[`MAX_REACTORS`].
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: DEFAULT_MAX_CONNECTIONS,
            reactors: default_reactor_count(),
        }
    }
}

/// The default reactor count: `min(cores, 4)`, at least 1.
pub fn default_reactor_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_REACTORS)
}

/// One request handed to the worker pool.
struct WorkItem {
    /// Index of the reactor owning the connection (completion routing).
    reactor: usize,
    /// Connection token within that reactor.
    conn: u64,
    /// Request id to echo in the response envelope.
    req_id: u64,
    creds: Credentials,
    req: Request,
}

/// What a worker thread is allowed to pull from the two-lane queue.
#[derive(Clone, Copy)]
enum WorkerRole {
    /// Serves the fast lane only (while the queue is open): these workers
    /// are the fast lane's reservation and can never be captured by a
    /// burst of imports.
    FastOnly,
    /// Prefers the bulk lane, falls back to the fast lane when it is
    /// empty: the bulk lane's reservation, which still helps with cheap
    /// requests when no heavyweight work is queued.
    BulkPreferring,
}

/// The blocking two-lane queue feeding the worker pool.
struct WorkQueue {
    state: Mutex<Queues>,
    ready: Condvar,
}

struct Queues {
    fast: VecDeque<WorkItem>,
    bulk: VecDeque<WorkItem>,
    closed: bool,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            state: Mutex::new(Queues {
                fast: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, lane: Lane, item: WorkItem) {
        let mut q = self.state.lock().unwrap();
        match lane {
            Lane::Fast => q.fast.push_back(item),
            Lane::Bulk => q.bulk.push_back(item),
        }
        // Consumers are selective (a FastOnly worker skips bulk items), so
        // waking just one waiter could wake a thread that cannot take the
        // new item while an eligible one keeps sleeping. Wake them all.
        self.ready.notify_all();
    }

    /// Blocks for the next item this role may take; `None` once closed
    /// **and** empty (close drains: queued requests still execute, their
    /// responses are simply discarded for connections that no longer
    /// exist — role restrictions are lifted so the drain cannot strand
    /// bulk items behind exited bulk workers).
    fn pop(&self, role: WorkerRole) -> Option<WorkItem> {
        let mut q = self.state.lock().unwrap();
        loop {
            let item = match role {
                WorkerRole::BulkPreferring => {
                    let bulk = q.bulk.pop_front();
                    bulk.or_else(|| q.fast.pop_front())
                }
                WorkerRole::FastOnly if q.closed => {
                    let fast = q.fast.pop_front();
                    fast.or_else(|| q.bulk.pop_front())
                }
                WorkerRole::FastOnly => q.fast.pop_front(),
            };
            if let Some(item) = item {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn close(&self) {
        let mut q = self.state.lock().unwrap();
        q.closed = true;
        self.ready.notify_all();
    }
}

/// Per-reactor state shared with the acceptor and the workers.
struct ReactorShared {
    /// Wakes this reactor's poller (new incoming connection or completion).
    waker: Waker,
    /// Sockets handed off by the acceptor, not yet registered.
    incoming: Mutex<Vec<(UnixStream, Option<Credentials>)>>,
    /// Completed responses: `(conn token, encoded frame)`. Workers push,
    /// the reactor drains after a waker event.
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Connections owned by this reactor, **including** handed-off sockets
    /// it has not registered yet: the acceptor increments at handoff, the
    /// reactor decrements on close, so the global cap check never races a
    /// not-yet-registered socket past the limit. Behind an `Arc` because
    /// the daemon's `Stats` reports it (per-reactor placement skew).
    active: Arc<AtomicUsize>,
    /// Requests handled on behalf of this reactor's connections. Behind an
    /// `Arc` because `Stats`/`GetMetrics` report it (per-reactor *served
    /// traffic* skew, complementing the placement counter above).
    requests: Arc<AtomicU64>,
}

impl ReactorShared {
    fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            waker: Waker::new()?,
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            active: Arc::new(AtomicUsize::new(0)),
            requests: Arc::new(AtomicU64::new(0)),
        })
    }
}

/// State shared between the acceptor, the reactors, the workers, and the
/// server handle.
struct Shared {
    daemon: Daemon,
    shutdown: AtomicBool,
    /// Wakes the acceptor's poller (shutdown).
    acceptor_waker: Waker,
    queue: WorkQueue,
    reactors: Vec<Arc<ReactorShared>>,
    /// Exit latches per thread group: each runtime thread signals its
    /// latch on the way out, so shutdown waits on a condvar instead of
    /// spin-polling `JoinHandle::is_finished` every 5 ms.
    acceptor_exits: ExitLatch,
    reactor_exits: ExitLatch,
    worker_exits: ExitLatch,
}

/// Counts thread exits; [`UdsServer::shutdown`] blocks on the condvar until
/// a group has fully arrived or its deadline passes. Virtual-clock-aware
/// through [`Clock::wait_timeout`], so a simulated timeline drives shutdown
/// deadlines exactly like every other timeout.
struct ExitLatch {
    exited: Mutex<usize>,
    all_out: Condvar,
}

impl ExitLatch {
    fn new() -> ExitLatch {
        ExitLatch {
            exited: Mutex::new(0),
            all_out: Condvar::new(),
        }
    }

    /// Signals one thread's exit (called from a drop guard, so panics and
    /// early returns still count).
    fn arrive(&self) {
        *self.exited.lock().unwrap() += 1;
        self.all_out.notify_all();
    }

    /// Waits until `n` threads have arrived or `clock` passes `deadline`;
    /// `true` when the whole group is out. The round cap bounds the wait in
    /// real time when a *frozen* virtual clock would otherwise never reach
    /// the deadline (each virtual-clock round is a short real-time poll).
    fn wait_all(&self, n: usize, clock: &Clock, deadline: Duration) -> bool {
        const MAX_ROUNDS: u32 = 20_000;
        let mut exited = self.exited.lock().unwrap();
        let mut rounds = 0u32;
        while *exited < n {
            let now = clock.now();
            if now >= deadline || rounds >= MAX_ROUNDS {
                return false;
            }
            rounds += 1;
            let (guard, _) = clock.wait_timeout(exited, &self.all_out, deadline - now);
            exited = guard;
        }
        true
    }
}

/// Signals `ExitLatch::arrive` when dropped; lives at the top of each
/// runtime thread so every exit path (including panics) is counted.
struct ExitGuard<'a>(&'a ExitLatch);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// A running UNIX-domain-socket server for one daemon instance.
#[derive(Debug)]
pub struct UdsServer {
    path: PathBuf,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("reactors", &self.reactors.len())
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl UdsServer {
    /// Starts serving `daemon` on a socket at `path` (any stale socket file
    /// is replaced) with the default [`ServerConfig`].
    pub fn start(daemon: Daemon, path: impl AsRef<Path>) -> io::Result<UdsServer> {
        Self::start_with_config(daemon, path, ServerConfig::default())
    }

    /// Starts the server with an explicit runtime shape.
    pub fn start_with_config(
        daemon: Daemon,
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> io::Result<UdsServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let max_connections = config.max_connections.max(1);
        let reactor_count = config.reactors.clamp(1, MAX_REACTORS);
        let mut reactor_shared = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            reactor_shared.push(Arc::new(ReactorShared::new()?));
        }
        let shared = Arc::new(Shared {
            daemon,
            shutdown: AtomicBool::new(false),
            acceptor_waker: Waker::new()?,
            queue: WorkQueue::new(),
            reactors: reactor_shared,
            acceptor_exits: ExitLatch::new(),
            reactor_exits: ExitLatch::new(),
            worker_exits: ExitLatch::new(),
        });
        // Publish the per-reactor connection counters for `Stats`
        // (reactor-skew observability); detached again at shutdown.
        shared.daemon.attach_reactor_loads(
            shared
                .reactors
                .iter()
                .map(|r| Arc::clone(&r.active))
                .collect(),
        );
        shared.daemon.attach_reactor_requests(
            shared
                .reactors
                .iter()
                .map(|r| Arc::clone(&r.requests))
                .collect(),
        );

        let worker_count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        // The bulk lane's worker reservation: a minority of the pool (at
        // least one) prefers heavyweight requests; everyone else is pinned
        // to the fast lane.
        let bulk_workers = (worker_count / 4).max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            let role = if i < bulk_workers {
                WorkerRole::BulkPreferring
            } else {
                WorkerRole::FastOnly
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("puddled-worker-{i}"))
                    .spawn(move || {
                        let _exit = ExitGuard(&shared.worker_exits);
                        worker_loop(&shared, role);
                    })?,
            );
        }

        let mut reactors = Vec::with_capacity(reactor_count);
        for index in 0..reactor_count {
            let shared = Arc::clone(&shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("puddled-reactor-{index}"))
                    .spawn(move || {
                        let _exit = ExitGuard(&shared.reactor_exits);
                        let mut r = match Reactor::new(Arc::clone(&shared), index) {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        r.run();
                    })?,
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("puddled-acceptor".into())
            .spawn(move || {
                let _exit = ExitGuard(&acceptor_shared.acceptor_exits);
                let mut a =
                    match Acceptor::new(Arc::clone(&acceptor_shared), listener, max_connections) {
                        Ok(a) => a,
                        Err(_) => return,
                    };
                a.run();
            })?;

        Ok(UdsServer {
            path,
            shared,
            acceptor: Some(acceptor),
            reactors,
            workers,
        })
    }

    /// Returns the socket path clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Number of currently connected clients (summed across reactors).
    pub fn active_connections(&self) -> usize {
        self.shared
            .reactors
            .iter()
            .map(|r| r.active.load(Ordering::Relaxed))
            .sum()
    }

    /// Stops accepting, disconnects idle clients, lets in-flight requests
    /// finish within [`SHUTDOWN_GRACE`], and joins the acceptor, reactor,
    /// and worker threads. The join is *bounded*: any straggler past the
    /// deadline is detached instead of joined, so a wedged peer or request
    /// cannot hang the process.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.acceptor_waker.wake();
        for r in &self.shared.reactors {
            r.waker.wake();
        }
        let clock = self.shared.daemon.clock().clone();
        let deadline = clock.now() + SHUTDOWN_GRACE + Duration::from_secs(2);
        let out = self.shared.acceptor_exits.wait_all(
            usize::from(self.acceptor.is_some()),
            &clock,
            deadline,
        );
        if let Some(handle) = self.acceptor.take() {
            join_or_detach(handle, out);
        }
        let out = self
            .shared
            .reactor_exits
            .wait_all(self.reactors.len(), &clock, deadline);
        for handle in self.reactors.drain(..) {
            join_or_detach(handle, out);
        }
        // The reactors are gone; nothing enqueues work anymore. Drain the
        // workers (queued requests still execute — their mutations matter
        // even if no connection remains to read the response).
        self.shared.queue.close();
        let out = self
            .shared
            .worker_exits
            .wait_all(self.workers.len(), &clock, deadline);
        for handle in self.workers.drain(..) {
            join_or_detach(handle, out);
        }
        self.shared.daemon.attach_reactor_loads(Vec::new());
        self.shared.daemon.attach_reactor_requests(Vec::new());
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Joins `handle` when its exit latch fired (`arrived` — the join then only
/// waits out final thread teardown, microseconds); otherwise joins only an
/// already-finished thread and detaches stragglers (a detached thread holds
/// nothing but fds that process teardown closes).
fn join_or_detach(handle: JoinHandle<()>, arrived: bool) {
    if arrived || handle.is_finished() {
        let _ = handle.join();
    } else {
        drop(handle);
    }
}

impl Drop for UdsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>, role: WorkerRole) {
    while let Some(item) = shared.queue.pop(role) {
        shared.reactors[item.reactor]
            .requests
            .fetch_add(1, Ordering::Relaxed);
        let resp = shared
            .daemon
            .handle_traced(item.creds, item.req, item.req_id);
        let encoded = encode_response(item.req_id, resp);
        let bytes = encoded.unwrap_or_else(|e| {
            // Unencodable response (outsized payload): report the failure
            // in-band so the client is not left waiting on a silent drop.
            let err = Response::Error {
                code: puddles_proto::ErrorCode::Internal,
                message: format!("response encoding failed: {e}"),
            };
            encode_response(item.req_id, err).unwrap_or_default()
        });
        let target = &shared.reactors[item.reactor];
        target.completions.lock().unwrap().push((item.conn, bytes));
        target.waker.wake();
    }
}

/// Encodes a response frame: a [`ResponseEnvelope`] echoing `req_id`.
fn encode_response(req_id: u64, resp: Response) -> io::Result<Vec<u8>> {
    frame::encode_frame(&ResponseEnvelope { req_id, resp })
}

/// Reads SO_PEERCRED credentials from a connected UNIX socket.
fn peer_credentials(stream: &UnixStream) -> Option<Credentials> {
    let mut ucred = libc::ucred {
        pid: 0,
        uid: 0,
        gid: 0,
    };
    let mut len = std::mem::size_of::<libc::ucred>() as libc::socklen_t;
    // SAFETY: `ucred`/`len` are valid for writes of the requested size and
    // the fd is a live socket owned by `stream`.
    let rc = unsafe {
        libc::getsockopt(
            stream.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_PEERCRED,
            &mut ucred as *mut libc::ucred as *mut libc::c_void,
            &mut len,
        )
    };
    if rc == 0 {
        Some(Credentials {
            uid: ucred.uid,
            gid: ucred.gid,
        })
    } else {
        None
    }
}

// -- Acceptor ---------------------------------------------------------------

/// The accept loop: owns the listener, places sockets onto reactors.
struct Acceptor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: UnixListener,
    max_connections: usize,
    /// The listener is registered with the poller (deregistered while a
    /// persistent accept failure backs off, so a full backlog does not
    /// busy-loop on level-triggered accept readiness).
    accepting: bool,
    /// Accepting is paused until this clock reading after a persistent
    /// accept failure (e.g. EMFILE under a low fd rlimit).
    accept_backoff_until: Option<Duration>,
    /// The daemon's time source (virtual under torture).
    clock: Clock,
    /// Pre-encoded `Busy` rejection frame, enveloped with `req_id` 0 (it
    /// answers no request; client ids start at 1).
    busy_frame: Vec<u8>,
}

impl Acceptor {
    fn new(
        shared: Arc<Shared>,
        listener: UnixListener,
        max_connections: usize,
    ) -> io::Result<Acceptor> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.add(shared.acceptor_waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        let busy_frame = encode_response(
            0,
            Response::Error {
                code: puddles_proto::ErrorCode::Busy,
                message: format!("connection limit reached ({max_connections})"),
            },
        )?;
        let clock = shared.daemon.clock().clone();
        Ok(Acceptor {
            shared,
            poller,
            listener,
            max_connections,
            accepting: true,
            accept_backoff_until: None,
            clock,
            busy_frame,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.accept_backoff_until.map(|_| Duration::from_millis(10));
            let _ = self.poller.wait(&mut events, timeout);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(until) = self.accept_backoff_until {
                if self.clock.now() >= until {
                    self.accept_backoff_until = None;
                    self.resume_accepting();
                }
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.shared.acceptor_waker.drain();
                    }
                    _ => {}
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.place(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Persistent accept failure (e.g. EMFILE under a low fd
                // rlimit): the level-triggered listener readiness would
                // fire on every wait while the backlog is non-empty,
                // spinning the loop hot. Deregister and retry after a
                // short backoff.
                Err(_) => {
                    self.pause_accepting();
                    self.accept_backoff_until = Some(self.clock.now() + Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    /// Routes one accepted socket: least-loaded reactor with room in its
    /// slice of the budget, or a `Busy` rejection at the global cap.
    fn place(&mut self, stream: UnixStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let n = self.shared.reactors.len();
        // Per-reactor slice of the budget. Ceiling division: if the total
        // is below the cap, at least one reactor is below its slice, so a
        // non-rejected socket always finds a home.
        let slice = self.max_connections.div_ceil(n);
        let mut total = 0usize;
        let mut best: Option<(usize, usize)> = None;
        for (i, r) in self.shared.reactors.iter().enumerate() {
            let active = r.active.load(Ordering::Relaxed);
            total += active;
            if active < slice && best.is_none_or(|(_, b)| active < b) {
                best = Some((i, active));
            }
        }
        let target = match best {
            Some((i, _)) if total < self.max_connections => i,
            // At (or, transiently, above) the cap: tell the client to back
            // off. Best-effort — the frame is far smaller than a socket
            // buffer, so the nonblocking write only fails if the peer is
            // already gone.
            _ => {
                let mut stream = stream;
                let _ = stream.write(&self.busy_frame);
                self.shared.daemon.note_rejected_connection();
                return;
            }
        };
        let peer = peer_credentials(&stream);
        let reactor = &self.shared.reactors[target];
        // Count the connection *before* the reactor sees it so the cap
        // check above can never race a handed-off socket past the limit.
        reactor.active.fetch_add(1, Ordering::Relaxed);
        reactor.incoming.lock().unwrap().push((stream, peer));
        reactor.waker.wake();
    }

    fn pause_accepting(&mut self) {
        if self.accepting {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.accepting = false;
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accepting
            && self
                .poller
                .add(
                    self.listener.as_raw_fd(),
                    TOKEN_LISTENER,
                    Interest::READABLE,
                )
                .is_ok()
        {
            self.accepting = true;
        }
    }
}

// -- Connections ------------------------------------------------------------

/// Per-connection state machine.
struct Conn {
    stream: UnixStream,
    decoder: FrameDecoder,
    /// Kernel-verified peer credentials captured at accept (when available).
    peer: Option<Credentials>,
    /// Effective credentials, fixed by the first frame (peer credentials
    /// override whatever the client claims in `Hello`).
    creds: Option<Credentials>,
    /// Parsed requests not yet dispatched: `(req_id, request)`.
    pending: VecDeque<(u64, Request)>,
    /// Requests from this connection currently with the worker pool.
    in_flight: usize,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    /// The peer half-closed (EOF on read); serve what is queued, then drop.
    peer_closed: bool,
    /// Protocol or I/O error: drop as soon as control returns to the loop.
    dead: bool,
    /// Interest bits currently registered with the poller.
    reg_readable: bool,
    reg_writable: bool,
    /// Server-side ceiling on the negotiable in-flight window (the daemon's
    /// configured max clamped to [`MAX_PIPELINED_REQUESTS`]).
    cap: u32,
    /// The in-flight window currently granted to this connection: the
    /// default grant until a `Hello` negotiates one.
    window: usize,
}

impl Conn {
    fn new(stream: UnixStream, peer: Option<Credentials>, cap: u32) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            peer,
            creds: None,
            pending: VecDeque::new(),
            in_flight: 0,
            out: Vec::new(),
            out_pos: 0,
            peer_closed: false,
            dead: false,
            reg_readable: true,
            reg_writable: false,
            cap,
            window: grant_limit(0, DEFAULT_MAX_IN_FLIGHT, cap) as usize,
        }
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// `true` when nothing remains to serve: no in-flight request, no
    /// queued request, no unwritten response bytes.
    fn idle(&self) -> bool {
        self.in_flight == 0 && self.pending.is_empty() && self.out_len() == 0
    }

    /// Whether the reactor should keep consuming bytes from this peer.
    fn wants_read(&self) -> bool {
        !self.dead
            && !self.peer_closed
            && self.pending.len() + self.in_flight < self.window
            && self.out_len() < OUT_HIGH_WATER
    }
}

// -- Reactor ----------------------------------------------------------------

/// One event loop: owns a poller and a shard of the connections.
struct Reactor {
    shared: Arc<Shared>,
    /// This reactor's slot in `shared.reactors`.
    index: usize,
    me: Arc<ReactorShared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set once shutdown is observed; records the drain deadline (a clock
    /// reading).
    draining: Option<Duration>,
    /// The daemon's time source (virtual under torture).
    clock: Clock,
    /// Poll rounds spent draining: a real-time bound on the drain when a
    /// frozen virtual clock can never reach the deadline.
    drain_rounds: u32,
}

impl Reactor {
    fn new(shared: Arc<Shared>, index: usize) -> io::Result<Reactor> {
        let me = Arc::clone(&shared.reactors[index]);
        let poller = Poller::new()?;
        poller.add(me.waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        let clock = shared.daemon.clock().clone();
        Ok(Reactor {
            shared,
            index,
            me,
            poller,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: None,
            clock,
            drain_rounds: 0,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // While draining, wake at least every 20 ms to check the
            // deadline; otherwise sleep until an event or waker.
            let timeout = self.draining.map(|_| Duration::from_millis(20));
            let _ = self.poller.wait(&mut events, timeout);
            if self.shared.shutdown.load(Ordering::SeqCst) && self.draining.is_none() {
                self.begin_drain();
            }

            for &event in &events {
                match event.token {
                    TOKEN_WAKER => {
                        self.me.waker.drain();
                    }
                    token => self.conn_ready(token, event),
                }
            }
            // Handoffs and completions may arrive with or without a waker
            // event in this round (coalesced wakes); drain unconditionally.
            self.process_incoming();
            self.process_completions();

            if self.draining.is_some() && self.drain_finished() {
                break;
            }
        }
        // Teardown: connections (and any never-registered handoffs) drop
        // here, closing their sockets.
        self.conns.clear();
        self.me.incoming.lock().unwrap().clear();
        self.me.active.store(0, Ordering::Relaxed);
    }

    // -- Accept handoff -----------------------------------------------------

    /// Registers sockets the acceptor handed to this reactor. Their
    /// `active` count was already taken at handoff; undone here on failure.
    fn process_incoming(&mut self) {
        let incoming: Vec<(UnixStream, Option<Credentials>)> =
            std::mem::take(&mut *self.me.incoming.lock().unwrap());
        for (stream, peer) in incoming {
            if self.draining.is_some() {
                self.me.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                self.me.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            // Bytes that raced in before registration are reported by the
            // next level-triggered wait; no eager read needed.
            let cap = self.shared.daemon.in_flight_cap();
            self.conns.insert(token, Conn::new(stream, peer, cap));
        }
    }

    // -- Connection I/O -----------------------------------------------------

    fn conn_ready(&mut self, token: u64, event: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Torture only: a fault plan may reset this connection mid-stream —
        // the peer sees an abrupt close, exactly like a crashed daemon
        // thread or a dropped socket.
        if let Some(plan) = self.shared.daemon.pm_dir().fault_plan() {
            if plan.on_conn_event() {
                conn.dead = true;
                self.after_io(token);
                return;
            }
        }
        if event.error {
            // EPOLLERR / EPOLLHUP: the peer is gone in both directions, so
            // no queued response is deliverable. (A graceful half-close
            // surfaces as readable + EOF instead and drains normally.)
            // Dropping now also keeps the unmaskable level-triggered HUP
            // from spinning the loop while a dead peer's request finishes.
            conn.dead = true;
        } else {
            if event.writable {
                flush_out(conn);
            }
            if event.readable {
                read_ready(conn);
            }
        }
        self.after_io(token);
    }

    /// Post-I/O bookkeeping for one connection: dispatch newly parsed
    /// requests, update poller interest, reap finished/broken connections.
    fn after_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Dispatch queued requests unless we are draining (drain finishes
        // in-flight work only).
        if self.draining.is_none() {
            dispatch_ready(&self.shared, self.index, token, conn);
        }
        let drop_now = conn.dead || (conn.peer_closed && conn.idle());
        if drop_now {
            self.remove_conn(token);
            return;
        }
        // Re-register interest if it changed.
        let want_read = conn.wants_read() && self.draining.is_none();
        let want_write = conn.out_len() > 0;
        if want_read != conn.reg_readable || want_write != conn.reg_writable {
            let interest = Interest {
                readable: want_read,
                writable: want_write,
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                self.remove_conn(token);
                return;
            }
            let conn = self.conns.get_mut(&token).expect("just checked");
            conn.reg_readable = want_read;
            conn.reg_writable = want_write;
        }
    }

    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.me.active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // -- Worker completions -------------------------------------------------

    fn process_completions(&mut self) {
        let completed: Vec<(u64, Vec<u8>)> =
            std::mem::take(&mut *self.me.completions.lock().unwrap());
        for (token, bytes) in completed {
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection died while its request executed; the
                // response has no reader. The mutation itself is fine —
                // exactly as if the client crashed after the daemon applied
                // its request.
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            if bytes.is_empty() {
                conn.dead = true;
            } else {
                // Compact the drained prefix before growing the buffer.
                if conn.out_pos > 0 {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                conn.out.extend_from_slice(&bytes);
                flush_out(conn);
            }
            self.after_io(token);
        }
    }

    // -- Shutdown -----------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = Some(self.clock.now() + SHUTDOWN_GRACE);
        // Idle connections go immediately; busy ones get the grace period
        // to finish their in-flight requests and flush.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() || c.dead)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.remove_conn(token);
        }
    }

    fn drain_finished(&mut self) -> bool {
        // ~SHUTDOWN_GRACE of 20 ms poll rounds: the real-time fallback for
        // a frozen virtual clock (whose deadline would never arrive).
        const MAX_DRAIN_ROUNDS: u32 = 500;
        let deadline = self.draining.expect("only called while draining");
        self.drain_rounds += 1;
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead || (c.in_flight == 0 && c.out_len() == 0))
            .map(|(t, _)| *t)
            .collect();
        for token in done {
            self.remove_conn(token);
        }
        self.conns.is_empty()
            || self.clock.now() >= deadline
            || self.drain_rounds >= MAX_DRAIN_ROUNDS
    }
}

/// Consumes every byte the socket currently has, parsing complete frames
/// into the pending queue. Stops early when backpressure bounds trip.
fn read_ready(conn: &mut Conn) {
    let mut buf = [0u8; READ_CHUNK];
    while conn.wants_read() {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.decoder.feed(&buf[..n]);
                if !parse_frames(conn) {
                    return;
                }
                if n < buf.len() {
                    // Short read: the socket is drained (saves the final
                    // WouldBlock round trip).
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    parse_frames(conn);
}

/// Pulls complete request envelopes out of the decoder. Returns `false`
/// when the connection turned dead (framing error).
fn parse_frames(conn: &mut Conn) -> bool {
    loop {
        let RequestEnvelope { req_id, req } = match conn.decoder.next_frame() {
            Ok(Some(env)) => env,
            Ok(None) => return true,
            Err(_) => {
                conn.dead = true;
                return false;
            }
        };
        if conn.creds.is_none() {
            // First frame fixes the connection's credentials:
            // kernel-verified peer credentials win; otherwise an explicit
            // Hello is trusted (tests); otherwise fall back to this
            // process's identity.
            conn.creds = Some(match (conn.peer, &req) {
                (Some(peer), _) => peer,
                (None, Request::Hello { creds, .. }) => *creds,
                (None, _) => Credentials::current_process(),
            });
        }
        if let Request::Hello { max_in_flight, .. } = &req {
            // Apply the negotiated window immediately: the same clamp the
            // service reports in `Welcome`, so enforcement matches the
            // grant the client is about to read.
            conn.window = grant_limit(*max_in_flight, DEFAULT_MAX_IN_FLIGHT, conn.cap) as usize;
        }
        conn.pending.push_back((req_id, req));
    }
}

/// Feeds queued requests to the worker pool, up to the connection's
/// in-flight window.
fn dispatch_ready(shared: &Arc<Shared>, reactor: usize, token: u64, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while conn.in_flight < conn.window {
        let Some((req_id, req)) = conn.pending.pop_front() else {
            return;
        };
        let creds = conn.creds.unwrap_or_else(Credentials::current_process);
        conn.in_flight += 1;
        let lane = lane_of(&req);
        shared.queue.push(
            lane,
            WorkItem {
                reactor,
                conn: token,
                req_id,
                creds,
                req,
            },
        );
    }
}

/// Writes as much of the output buffer as the socket accepts; the rest
/// stays parked until the next writable event.
fn flush_out(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}
