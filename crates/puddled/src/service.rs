//! The daemon proper: configuration, startup, and the request handler.
//!
//! The request path is fully concurrent: [`Daemon::handle`] takes `&self`
//! and the registry is internally sharded (see [`crate::registry`]), so
//! requests from different connections execute in parallel and contend only
//! on the tables they touch — a `Translation`/`GetPuddle` lookup runs under
//! a read lock and never waits for traffic on other pools.

use crate::background::Background;
use crate::gspace::GlobalSpace;
use crate::importexport;
use crate::recovery;
use crate::registry::{LogSpaceRecord, PoolRecord, PuddleRecord, Registry, RegistryOpError};
use crate::wal::{Wal, WalHandle};
use crate::{acl, layout};
use puddles_pmem::clock::Clock;
use puddles_pmem::faultio::FaultPlan;
use puddles_pmem::obs::{Metrics, ShardedHistogram, TraceEventKind};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, DEFAULT_SPACE_BASE, PAGE_SIZE};
use puddles_proto::{
    CounterSnapshot, Credentials, Endpoint, ErrorCode, MetricsReport, PuddleId, PuddleInfo,
    PuddlePurpose, Request, Response, SeriesSnapshot,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How often the background timer wheel re-checks WAL checkpoint age.
const CHECKPOINT_AGE_CHECK_INTERVAL: std::time::Duration = std::time::Duration::from_secs(2);

/// Records older than this get checkpointed even below the byte threshold
/// (bounds the WAL replay a restart of a *quiet* daemon must do).
const MAX_CHECKPOINT_AGE_MS: u64 = 30_000;

/// Arms the recurring age-based checkpoint check on the timer wheel. The
/// task holds only a `Weak` registry handle and re-arms itself until the
/// scheduler shuts down (the re-arm guard keeps the shutdown drain from
/// looping) or the registry is dropped.
fn arm_age_checkpoint(bg: Background, registry: std::sync::Weak<Registry>) {
    let bg_next = bg.clone();
    bg.submit_after(
        CHECKPOINT_AGE_CHECK_INTERVAL,
        Box::new(move || {
            if bg_next.is_shutdown() {
                return;
            }
            let Some(reg) = registry.upgrade() else {
                return;
            };
            let _ = reg.checkpoint_if_stale(MAX_CHECKPOINT_AGE_MS);
            drop(reg);
            arm_age_checkpoint(bg_next, registry);
        }),
    );
}

/// Default per-connection in-flight window granted to clients
/// that do not request one (matches `uds::MAX_PIPELINED_REQUESTS`).
pub const DEFAULT_MAX_IN_FLIGHT: u32 = 64;

/// Default client connection-pool depth granted when the client does not
/// request one.
pub const DEFAULT_POOL_DEPTH: u32 = 2;

/// The deterministic clamp behind Hello/Welcome negotiation: `0` means
/// "server default", anything else is clamped into `[1, configured_max]`.
/// Both the UDS connection (enforcing the window) and the service (reporting
/// the grant in `Welcome`) apply this same function, so they cannot drift.
pub fn grant_limit(requested: u32, default: u32, configured_max: u32) -> u32 {
    if requested == 0 {
        default.min(configured_max).max(1)
    } else {
        requested.clamp(1, configured_max.max(1))
    }
}

/// Configuration for a daemon instance (one per "machine").
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory acting as the persistent-memory device.
    pub pm_dir: PathBuf,
    /// Preferred base address of the global puddle space.
    pub space_base: Option<usize>,
    /// Size of the global puddle space in bytes.
    pub space_size: usize,
    /// Run crash recovery automatically at startup (the paper's behaviour).
    pub auto_recover: bool,
    /// Hard ceiling for the per-connection in-flight window a client may
    /// negotiate in `Hello` (the server clamps requests above it).
    pub max_in_flight: u32,
    /// Hard ceiling for the client connection-pool depth a client may
    /// negotiate in `Hello`.
    pub max_pool_depth: u32,
    /// Seeded fault-injection plan for torture testing; `None` (production)
    /// injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Time source for the background wheel, WAL checkpoint age, and the
    /// UDS server's deadlines. A *virtual* clock additionally switches the
    /// daemon into deterministic mode: checkpoints run inline on the
    /// request thread (instead of riding the background scheduler) and the
    /// age-based checkpoint timer is not armed, so WAL traffic is a pure
    /// function of the request sequence — the property the torture
    /// harness's replay guarantee rests on.
    pub clock: Clock,
    /// Observability hub to record into; `None` creates a fresh one. The
    /// torture harness passes one in so histograms and the trace ring
    /// survive the kill/restart cycles within a trial.
    pub metrics: Option<Arc<Metrics>>,
}

impl DaemonConfig {
    /// Configuration with the paper's defaults: 1 TiB space at the fixed
    /// base, automatic recovery at startup.
    pub fn new(pm_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            pm_dir: pm_dir.into(),
            space_base: Some(DEFAULT_SPACE_BASE),
            space_size: puddles_pmem::DEFAULT_SPACE_SIZE,
            auto_recover: true,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_pool_depth: 8,
            fault_plan: None,
            clock: Clock::real(),
            metrics: None,
        }
    }

    /// Configuration for tests and benchmarks: a smaller space at a unique
    /// base, so many daemon instances ("machines") can coexist in one test
    /// process without their reservations colliding.
    pub fn for_testing(pm_dir: impl Into<PathBuf>) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let slot = NEXT.fetch_add(1, Ordering::Relaxed);
        let space_size = 8usize << 30;
        let base = 0x5100_0000_0000 + slot * (space_size + (1 << 30));
        DaemonConfig {
            pm_dir: pm_dir.into(),
            space_base: Some(base),
            space_size,
            auto_recover: true,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_pool_depth: 8,
            fault_plan: None,
            clock: Clock::real(),
            metrics: None,
        }
    }

    /// Disables automatic recovery at startup (used by crash tests that want
    /// to inspect the pre-recovery state).
    pub fn no_auto_recover(mut self) -> Self {
        self.auto_recover = false;
        self
    }

    /// Attaches a seeded fault-injection plan (torture testing only).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Reads time from `clock`. A virtual clock also enables deterministic
    /// mode (see the `clock` field docs).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Records into an existing observability hub instead of a fresh one
    /// (see the `metrics` field docs).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Every request kind as `(kind, series)` — the short name used in trace
/// events and the histogram series its service latency lands in. Indexed
/// by [`request_kind_index`]; the daemon pre-resolves one series handle per
/// entry at startup so the hot path never takes the series-registry lock.
pub(crate) const REQUEST_KINDS: [(&str, &str); 18] = [
    ("Hello", "service.Hello"),
    ("Ping", "service.Ping"),
    ("CreatePuddle", "service.CreatePuddle"),
    ("GetPuddle", "service.GetPuddle"),
    ("FreePuddle", "service.FreePuddle"),
    ("CreatePool", "service.CreatePool"),
    ("OpenPool", "service.OpenPool"),
    ("DropPool", "service.DropPool"),
    ("RegLogSpace", "service.RegLogSpace"),
    ("RegisterPtrMap", "service.RegisterPtrMap"),
    ("GetPtrMaps", "service.GetPtrMaps"),
    ("ExportPool", "service.ExportPool"),
    ("ImportPool", "service.ImportPool"),
    ("GetRelocation", "service.GetRelocation"),
    ("MarkRewritten", "service.MarkRewritten"),
    ("Recover", "service.Recover"),
    ("Stats", "service.Stats"),
    ("GetMetrics", "service.GetMetrics"),
];

/// Maps a request to its [`REQUEST_KINDS`] row.
pub(crate) fn request_kind_index(req: &Request) -> usize {
    match req {
        Request::Hello { .. } => 0,
        Request::Ping => 1,
        Request::CreatePuddle { .. } => 2,
        Request::GetPuddle { .. } => 3,
        Request::FreePuddle { .. } => 4,
        Request::CreatePool { .. } => 5,
        Request::OpenPool { .. } => 6,
        Request::DropPool { .. } => 7,
        Request::RegLogSpace { .. } => 8,
        Request::RegisterPtrMap { .. } => 9,
        Request::GetPtrMaps => 10,
        Request::ExportPool { .. } => 11,
        Request::ImportPool { .. } => 12,
        Request::GetRelocation { .. } => 13,
        Request::MarkRewritten { .. } => 14,
        Request::Recover => 15,
        Request::Stats => 16,
        Request::GetMetrics => 17,
    }
}

/// Shared daemon state.
#[derive(Debug)]
pub struct DaemonInner {
    pub(crate) config: DaemonConfig,
    pub(crate) pmdir: PmDir,
    pub(crate) gspace: Arc<GlobalSpace>,
    /// The sharded metadata registry; locked per table internally, so there
    /// is no daemon-wide lock on the request path. The metadata WAL it
    /// persists through is reachable via [`Registry::wal`] (`Stats` reads
    /// WAL length and checkpoint age from it). Shared (`Arc`) because the
    /// background scheduler's checkpoint tasks hold a weak handle to it.
    pub(crate) registry: Arc<Registry>,
    /// Background task scheduler: WAL checkpoints (and any future deferred
    /// maintenance) run here instead of on the request path. Drained on
    /// daemon drop.
    pub(crate) background: Background,
    /// Orphan puddle files deleted by the startup directory sweep.
    pub(crate) orphans_swept: AtomicU64,
    /// Log puddles referenced by no log space, reclaimed at startup (the
    /// crash window between allocating a chain segment and registering it).
    pub(crate) log_puddles_swept: AtomicU64,
    /// LogSpace puddles with no log-space registration, reclaimed at
    /// startup (the crash window inside `ensure_logspace`, between the
    /// puddle allocation and `RegLogSpace`).
    pub(crate) logspace_puddles_swept: AtomicU64,
    /// Connections the UDS acceptor rejected at the connection cap with a
    /// `Busy` frame.
    pub(crate) connections_rejected: AtomicU64,
    /// `Hello` messages flagged `reconnect: true` (clients re-dialing after
    /// a dropped or reset connection).
    pub(crate) client_reconnects: AtomicU64,
    /// Per-reactor live-connection counters, registered by the UDS server
    /// at start and cleared at its shutdown; surfaced in `Stats` so
    /// accept-time placement skew is observable. Empty when no socket
    /// server is attached (in-process endpoints only).
    pub(crate) reactor_loads: std::sync::Mutex<Vec<Arc<AtomicUsize>>>,
    /// Per-reactor handled-request counters, registered alongside
    /// [`DaemonInner::reactor_loads`]; surfaced in `Stats` and `GetMetrics`
    /// so *served traffic* skew is observable, not just placement.
    pub(crate) reactor_requests: std::sync::Mutex<Vec<Arc<AtomicU64>>>,
    /// The observability hub: latency series, counters, and the trace ring.
    pub(crate) metrics: Arc<Metrics>,
    /// Per-request-kind service-latency series, indexed by
    /// [`request_kind_index`] — resolved once so [`Daemon::handle`] records
    /// without touching the series-registry lock.
    pub(crate) service_series: Vec<Arc<ShardedHistogram>>,
}

impl Drop for DaemonInner {
    fn drop(&mut self) {
        // Drain-on-shutdown: a checkpoint enqueued moments before the last
        // daemon handle dropped still lands on disk.
        self.background.shutdown();
    }
}

/// The Puddles daemon: a privileged service managing every puddle on the
/// machine (§3.2).
///
/// Cloning a `Daemon` clones a handle to the same instance.
#[derive(Debug, Clone)]
pub struct Daemon {
    pub(crate) inner: Arc<DaemonInner>,
}

/// Internal error carrying a protocol error code.
pub(crate) struct DaemonError {
    pub code: ErrorCode,
    pub message: String,
}

impl DaemonError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        DaemonError {
            code,
            message: message.into(),
        }
    }
}

impl From<PmError> for DaemonError {
    fn from(e: PmError) -> Self {
        // Device exhaustion is a typed, client-actionable condition (free
        // something and retry), not an internal fault.
        let code = match &e {
            PmError::NoSpace(_) => ErrorCode::OutOfSpace,
            _ => ErrorCode::Internal,
        };
        DaemonError::new(code, e.to_string())
    }
}

impl From<RegistryOpError> for DaemonError {
    fn from(e: RegistryOpError) -> Self {
        match e {
            RegistryOpError::NoSuchPool(name) => {
                DaemonError::new(ErrorCode::NotFound, format!("pool `{name}` does not exist"))
            }
        }
    }
}

pub(crate) type DaemonResult<T> = std::result::Result<T, DaemonError>;

/// Dispatch lane for a request: which half of the two-lane worker queue it
/// rides (see `crate::uds`). Heavyweight requests go to the bulk lane so a
/// burst of imports can occupy at most the bulk lane's worker reservation
/// and never starves cheap metadata operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Cheap metadata operations: lookups, registrations, pings.
    Fast,
    /// Heavyweight operations that copy puddle contents or replay logs:
    /// pool import/export/creation/deletion and recovery.
    Bulk,
}

/// Classifies a request into its dispatch lane.
pub(crate) fn lane_of(req: &Request) -> Lane {
    match req {
        Request::ImportPool { .. }
        | Request::ExportPool { .. }
        | Request::CreatePool { .. }
        | Request::DropPool { .. }
        | Request::Recover => Lane::Bulk,
        _ => Lane::Fast,
    }
}

impl Daemon {
    /// Starts the daemon: opens the PM directory, reserves the global
    /// space, opens the metadata WAL and loads the registry through it
    /// (checkpoint, WAL replay, reconcile), relocates puddles if the space
    /// base moved, sweeps orphan puddle files, and (by default) runs crash
    /// recovery before any client can connect.
    pub fn start(config: DaemonConfig) -> Result<Self> {
        let mut pmdir = PmDir::open(&config.pm_dir)?;
        if let Some(plan) = &config.fault_plan {
            pmdir = pmdir.with_fault_plan(Arc::clone(plan));
        }
        let gspace = Arc::new(GlobalSpace::reserve(config.space_base, config.space_size)?);
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(|| Metrics::new(config.clock.clone()));
        let service_series = REQUEST_KINDS
            .iter()
            .map(|(_, series)| metrics.series(series))
            .collect();
        if let Some(plan) = &config.fault_plan {
            // Injections land in the trace ring interleaved with the
            // requests and WAL commits they perturbed.
            plan.attach_obs(Arc::clone(&metrics));
        }
        let wal: WalHandle = Arc::new(Wal::open_with_obs(
            &pmdir,
            config.clock.clone(),
            Arc::clone(&metrics),
        )?);
        let registry = Arc::new(Registry::load_or_create_with_wal(
            &pmdir,
            wal,
            gspace.base() as u64,
            gspace.size() as u64,
        )?);
        let background = Background::start_with_clock("puddled-bg", config.clock.clone());
        if !config.clock.is_virtual() {
            registry.enable_background_checkpoints(background.clone());
            arm_age_checkpoint(background.clone(), Arc::downgrade(&registry));
        }
        // Deterministic mode (virtual clock): no background handle on the
        // registry, so threshold checkpoints and lazy coalesce passes run
        // inline on the request thread in request order, and no age timer —
        // the WAL's write sequence replays exactly per seed.
        let daemon = Daemon {
            inner: Arc::new(DaemonInner {
                config,
                pmdir,
                gspace,
                registry,
                background,
                orphans_swept: AtomicU64::new(0),
                log_puddles_swept: AtomicU64::new(0),
                logspace_puddles_swept: AtomicU64::new(0),
                connections_rejected: AtomicU64::new(0),
                client_reconnects: AtomicU64::new(0),
                reactor_loads: std::sync::Mutex::new(Vec::new()),
                reactor_requests: std::sync::Mutex::new(Vec::new()),
                metrics,
                service_series,
            }),
        };
        daemon
            .inner
            .registry
            .apply_base_relocation(daemon.inner.gspace.base() as u64)?;
        // The registry (healed by replay + reconcile) is now the source of
        // truth; delete puddle files it does not know about — a crash
        // mid-`DropPool` can leave freed members' files behind.
        let swept = recovery::sweep_orphan_files(&daemon.inner)?;
        daemon.inner.orphans_swept.store(swept, Ordering::Relaxed);
        if daemon.inner.config.auto_recover {
            let _ = recovery::run_recovery(&daemon.inner)?;
        }
        // Reclaim log puddles no log space references (the crash window
        // between allocating a chain segment and registering it). Startup
        // only: once clients connect, a live chain extension is briefly in
        // exactly this state.
        let logs_swept = recovery::sweep_unreferenced_log_puddles(&daemon.inner)?;
        daemon
            .inner
            .log_puddles_swept
            .store(logs_swept, Ordering::Relaxed);
        // Likewise for LogSpace puddles that never made it into the
        // registry's log-space table (a crash inside `ensure_logspace`
        // between the allocation and `RegLogSpace`): unreachable forever,
        // safe to reclaim before any client connects.
        let ls_swept = recovery::sweep_unregistered_logspace_puddles(&daemon.inner)?;
        daemon
            .inner
            .logspace_puddles_swept
            .store(ls_swept, Ordering::Relaxed);
        Ok(daemon)
    }

    /// The daemon's background task scheduler (tests use its pause/resume
    /// knobs to pin down checkpoint scheduling deterministically).
    pub fn background(&self) -> &Background {
        &self.inner.background
    }

    /// The metadata WAL handle (tests and tools tune thresholds through it).
    pub fn wal(&self) -> &WalHandle {
        self.inner.registry.wal()
    }

    /// The daemon's time source (shared with the UDS server's deadlines).
    pub fn clock(&self) -> &Clock {
        &self.inner.config.clock
    }

    /// Registers the UDS server's per-reactor live-connection counters for
    /// `Stats` reporting; an empty vector detaches (server shutdown).
    pub(crate) fn attach_reactor_loads(&self, loads: Vec<Arc<AtomicUsize>>) {
        *self.inner.reactor_loads.lock().unwrap() = loads;
    }

    /// Registers the UDS server's per-reactor handled-request counters
    /// (same lifecycle as [`Daemon::attach_reactor_loads`]).
    pub(crate) fn attach_reactor_requests(&self, counts: Vec<Arc<AtomicU64>>) {
        *self.inner.reactor_requests.lock().unwrap() = counts;
    }

    /// The daemon's observability hub (histogram series, counters, and the
    /// trace ring). The torture harness reads trace dumps through this.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Forces a registry checkpoint now (normally triggered by WAL growth).
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.registry.checkpoint()
    }

    /// Returns the global puddle space shared with in-process clients.
    pub fn global_space(&self) -> Arc<GlobalSpace> {
        Arc::clone(&self.inner.gspace)
    }

    /// Returns the PM directory backing this daemon.
    pub fn pm_dir(&self) -> &PmDir {
        &self.inner.pmdir
    }

    /// Returns the metadata registry (consistency checks, tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Creates an in-process endpoint acting with the given credentials.
    pub fn endpoint(&self, creds: Credentials) -> LocalEndpoint {
        LocalEndpoint {
            daemon: self.clone(),
            creds,
        }
    }

    /// Creates an in-process endpoint using this process's credentials.
    pub fn endpoint_for_current_process(&self) -> LocalEndpoint {
        self.endpoint(Credentials::current_process())
    }

    /// Handles one request on behalf of a client with credentials `creds`.
    /// Safe to call from any number of threads concurrently.
    pub fn handle(&self, creds: Credentials, req: Request) -> Response {
        self.handle_traced(creds, req, 0)
    }

    /// [`Daemon::handle`] with the wire-protocol request id (0 for
    /// in-process calls), so trace `req.start`/`req.end` pairs
    /// can be matched to pipelined responses. Times the request into its
    /// per-kind `service.*` latency series.
    pub(crate) fn handle_traced(&self, creds: Credentials, req: Request, req_id: u64) -> Response {
        let kind_index = request_kind_index(&req);
        let kind = REQUEST_KINDS[kind_index].0;
        let clock = &self.inner.config.clock;
        self.inner
            .metrics
            .trace(TraceEventKind::ReqStart, kind, req_id, 0);
        let start = clock.now();
        let resp = match self.dispatch(creds, req) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: e.code,
                message: e.message,
            },
        };
        self.inner.service_series[kind_index].record_duration(clock.now() - start);
        self.inner
            .metrics
            .trace(TraceEventKind::ReqEnd, kind, req_id, 0);
        resp
    }

    fn dispatch(&self, creds: Credentials, req: Request) -> DaemonResult<Response> {
        match req {
            Request::Hello {
                max_in_flight,
                pool_depth,
                reconnect,
                ..
            } => {
                if reconnect {
                    self.inner.client_reconnects.fetch_add(1, Ordering::Relaxed);
                    self.inner
                        .metrics
                        .trace(TraceEventKind::Reconnect, "", 0, 0);
                }
                Ok(self.welcome(max_in_flight, pool_depth))
            }
            Request::Ping => Ok(self.welcome(0, 0)),
            Request::CreatePuddle {
                size,
                pool,
                purpose,
                mode,
            } => {
                let info = self.create_puddle(creds, size, pool, purpose, mode)?;
                Ok(Response::Puddle(info))
            }
            Request::GetPuddle { id, writable } => {
                let info = self.get_puddle(creds, id, writable)?;
                Ok(Response::Puddle(info))
            }
            Request::FreePuddle { id } => {
                self.free_puddle(creds, id)?;
                Ok(Response::Ok)
            }
            Request::CreatePool {
                name,
                root_size,
                mode,
            } => {
                let info = self.create_pool(creds, &name, root_size, mode)?;
                Ok(Response::Pool(info))
            }
            Request::OpenPool { name } => {
                let info = self.open_pool(creds, &name)?;
                Ok(Response::Pool(info))
            }
            Request::DropPool { name } => {
                self.drop_pool(creds, &name)?;
                Ok(Response::Ok)
            }
            Request::RegLogSpace { puddle } => {
                self.register_log_space(creds, puddle)?;
                Ok(Response::Ok)
            }
            Request::RegisterPtrMap { decl } => {
                self.inner.registry.register_ptr_map(decl);
                self.inner.registry.commit()?;
                Ok(Response::Ok)
            }
            Request::GetPtrMaps => Ok(Response::PtrMaps(self.inner.registry.ptr_maps())),
            Request::ExportPool { name, dest } => {
                importexport::export_pool(&self.inner, creds, &name, &dest)?;
                Ok(Response::Ok)
            }
            Request::ImportPool { src, new_name } => {
                let (pool, translations) =
                    importexport::import_pool(&self.inner, creds, &src, &new_name)?;
                Ok(Response::Imported { pool, translations })
            }
            Request::GetRelocation { id } => {
                // Read-mostly path: a shared lock on the puddle table only.
                let p = self
                    .inner
                    .registry
                    .puddle(id)
                    .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
                Ok(Response::Relocation {
                    needs_rewrite: p.needs_rewrite,
                    translations: p.translations,
                })
            }
            Request::MarkRewritten { id } => {
                self.inner
                    .registry
                    .update_puddle(id, |p| {
                        p.needs_rewrite = false;
                        p.translations.clear();
                    })
                    .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
                self.inner.registry.commit()?;
                Ok(Response::Ok)
            }
            Request::Recover => {
                let report = recovery::run_recovery(&self.inner)?;
                Ok(Response::Recovered(report))
            }
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::GetMetrics => Ok(Response::Metrics(self.metrics_report())),
        }
    }

    /// Builds the `GetMetrics` response: per-series quantiles plus every
    /// counter, name-sorted so successive snapshots diff cleanly.
    fn metrics_report(&self) -> MetricsReport {
        let snap = self.inner.metrics.snapshot();
        let series = snap
            .series
            .into_iter()
            .map(|(name, h)| SeriesSnapshot {
                name,
                count: h.count,
                sum_nanos: h.sum,
                p50_nanos: h.percentile(50.0),
                p90_nanos: h.percentile(90.0),
                p99_nanos: h.percentile(99.0),
                max_nanos: h.max,
            })
            .collect();
        let mut counters: Vec<CounterSnapshot> = snap
            .counters
            .into_iter()
            .map(|(name, value)| CounterSnapshot { name, value })
            .collect();
        counters.push(CounterSnapshot {
            name: "client_reconnects".into(),
            value: self.inner.client_reconnects.load(Ordering::Relaxed),
        });
        counters.push(CounterSnapshot {
            name: "connections_rejected".into(),
            value: self.inner.connections_rejected.load(Ordering::Relaxed),
        });
        for (i, count) in self
            .inner
            .reactor_requests
            .lock()
            .unwrap()
            .iter()
            .enumerate()
        {
            counters.push(CounterSnapshot {
                name: format!("reactor.{i}.requests"),
                value: count.load(Ordering::Relaxed),
            });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            series,
            counters,
            trace_buffered: self.inner.metrics.trace_events().len() as u64,
            trace_dropped: self.inner.metrics.trace_dropped(),
        }
    }

    /// The per-connection in-flight window granted for a requested value.
    /// The single source of truth: `Welcome` reports this number and the
    /// UDS reactor enforces it, so the two can never disagree.
    pub(crate) fn granted_in_flight(&self, requested: u32) -> u32 {
        grant_limit(requested, DEFAULT_MAX_IN_FLIGHT, self.in_flight_cap())
    }

    /// The ceiling a connection's window can be negotiated up to.
    pub(crate) fn in_flight_cap(&self) -> u32 {
        self.inner
            .config
            .max_in_flight
            .min(crate::uds::MAX_PIPELINED_REQUESTS as u32)
    }

    /// The client connection-pool depth granted for a requested value.
    pub(crate) fn granted_pool_depth(&self, requested: u32) -> u32 {
        grant_limit(
            requested,
            DEFAULT_POOL_DEPTH,
            self.inner.config.max_pool_depth,
        )
    }

    fn welcome(&self, requested_in_flight: u32, requested_pool_depth: u32) -> Response {
        Response::Welcome {
            space_base: self.inner.gspace.base() as u64,
            space_size: self.inner.gspace.size() as u64,
            max_in_flight: self.granted_in_flight(requested_in_flight),
            pool_depth: self.granted_pool_depth(requested_pool_depth),
        }
    }

    fn stats(&self) -> puddles_proto::DaemonStats {
        let reg = &self.inner.registry;
        let (puddles, space_used) = reg.puddle_usage();
        let wal = reg.wal().stats();
        let (checkpoints_background, checkpoints_forced_inline) = reg.checkpoint_counters();
        let alloc = reg.alloc_stats();
        let io = self.inner.pmdir.io_stats();
        puddles_proto::DaemonStats {
            puddles,
            pools: reg.pool_count(),
            ptr_maps: reg.ptr_map_count(),
            log_spaces: reg.log_space_count(),
            space_used,
            space_total: self.inner.gspace.size() as u64,
            wal_bytes: wal.bytes,
            wal_records: wal.records,
            checkpoints: wal.checkpoints,
            checkpoints_background,
            checkpoints_forced_inline,
            background_tasks_executed: self.inner.background.executed(),
            checkpoint_age_ms: wal.checkpoint_age_ms,
            orphan_files_swept: self.inner.orphans_swept.load(Ordering::Relaxed),
            log_puddles_swept: self.inner.log_puddles_swept.load(Ordering::Relaxed),
            logspace_puddles_swept: self.inner.logspace_puddles_swept.load(Ordering::Relaxed),
            connections_rejected: self.inner.connections_rejected.load(Ordering::Relaxed),
            space_free_bytes: alloc.free_bytes,
            free_extents: alloc.free_extents,
            fragmentation_bp: alloc.fragmentation_bp,
            lazy_coalesce_runs: alloc.lazy_coalesce_runs,
            forced_inline_coalesces: alloc.forced_inline_coalesces,
            io_retries: io.io_retries(),
            transient_io_errors: io.transient_io_errors(),
            client_reconnects: self.inner.client_reconnects.load(Ordering::Relaxed),
            enospc_rejections: io.enospc_rejections(),
            reactor_connections: {
                let loads = self.inner.reactor_loads.lock().unwrap();
                loads
                    .iter()
                    .map(|l| l.load(Ordering::Relaxed) as u64)
                    .collect()
            },
            reactor_requests: {
                let counts = self.inner.reactor_requests.lock().unwrap();
                counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
            },
            reactors: self.inner.reactor_loads.lock().unwrap().len() as u64,
        }
    }

    /// Records one connection turned away at the connection cap (the UDS
    /// acceptor calls this after writing the `Busy` frame).
    pub(crate) fn note_rejected_connection(&self) {
        self.inner
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn puddle_info(&self, record: &PuddleRecord, writable: bool) -> PuddleInfo {
        PuddleInfo {
            id: record.id,
            size: record.size,
            assigned_addr: self.inner.gspace.base() as u64 + record.offset,
            path: self
                .inner
                .pmdir
                .puddle_path(&record.file)
                .to_string_lossy()
                .into_owned(),
            purpose: record.purpose,
            owner_uid: record.owner_uid,
            owner_gid: record.owner_gid,
            mode: record.mode,
            needs_rewrite: record.needs_rewrite,
            writable,
        }
    }

    pub(crate) fn create_puddle(
        &self,
        creds: Credentials,
        size: u64,
        pool: Option<String>,
        purpose: PuddlePurpose,
        mode: u32,
    ) -> DaemonResult<PuddleInfo> {
        let reg = &self.inner.registry;
        let size = align_up(size.max((2 * PAGE_SIZE) as u64) as usize, PAGE_SIZE) as u64;
        let id = reg.fresh_id();
        let offset = reg.alloc_space(size).map_err(|_| {
            DaemonError::new(ErrorCode::OutOfSpace, "global puddle space exhausted")
        })?;
        let file = id.to_hex();
        if let Err(e) = self.inner.pmdir.create_puddle_file(&file, size as usize) {
            reg.free_space(offset, size);
            return Err(DaemonError::from(e));
        }
        let record = PuddleRecord {
            id,
            size,
            offset,
            file: file.clone(),
            purpose,
            owner_uid: creds.uid,
            owner_gid: creds.gid,
            mode,
            pool,
            needs_rewrite: false,
            translations: Vec::new(),
        };
        let info = self.puddle_info(&record, true);
        // Membership check + insert + pool append are one atomic registry op,
        // so a concurrent DropPool cannot orphan the new puddle.
        if let Err(e) = reg.register_puddle(record) {
            reg.free_space(offset, size);
            let _ = self.inner.pmdir.delete_puddle_file(&file);
            return Err(DaemonError::from(e));
        }
        reg.commit()?;
        Ok(info)
    }

    fn get_puddle(
        &self,
        creds: Credentials,
        id: PuddleId,
        writable: bool,
    ) -> DaemonResult<PuddleInfo> {
        let record = self
            .inner
            .registry
            .puddle(id)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
        let access = if writable {
            acl::Access::Write
        } else {
            acl::Access::Read
        };
        if !acl::check(
            creds,
            record.owner_uid,
            record.owner_gid,
            record.mode,
            access,
        ) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                format!("access to puddle {id} denied"),
            ));
        }
        Ok(self.puddle_info(&record, writable))
    }

    fn free_puddle(&self, creds: Credentials, id: PuddleId) -> DaemonResult<()> {
        let reg = &self.inner.registry;
        let record = reg
            .puddle(id)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
        if !acl::check(
            creds,
            record.owner_uid,
            record.owner_gid,
            record.mode,
            acl::Access::Write,
        ) {
            return Err(DaemonError::new(ErrorCode::PermissionDenied, "not owner"));
        }
        // Re-fetch under the write locks: the ACL check above used a
        // snapshot, but removal is atomic (puddle + pool membership).
        let record = reg
            .unregister_puddle(id)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
        reg.free_space(record.offset, record.size);
        reg.commit()?;
        self.inner
            .pmdir
            .delete_puddle_file(&record.file)
            .map_err(DaemonError::from)?;
        Ok(())
    }

    fn create_pool(
        &self,
        creds: Credentials,
        name: &str,
        root_size: u64,
        mode: u32,
    ) -> DaemonResult<puddles_proto::PoolInfo> {
        // Claim the name first so the root puddle can reference the pool;
        // the atomic try-insert makes concurrent same-name creates race
        // safely (exactly one wins).
        let claimed = self.inner.registry.try_insert_pool(PoolRecord {
            name: name.to_string(),
            root: PuddleId(0),
            puddles: Vec::new(),
        });
        if !claimed {
            return Err(DaemonError::new(
                ErrorCode::AlreadyExists,
                format!("pool `{name}` already exists"),
            ));
        }
        let root = match self.create_puddle(
            creds,
            root_size,
            Some(name.to_string()),
            PuddlePurpose::Data,
            mode,
        ) {
            Ok(root) => root,
            Err(e) => {
                // Roll the claim back so the name is not leaked. A
                // concurrent CreatePuddle may have already joined the
                // half-created pool; detach such members so no record is
                // left pointing at a name that no longer exists (a dangling
                // name would be grafted onto an unrelated future pool by the
                // load-time reconcile).
                if let Some(pool) = self.inner.registry.remove_pool(name) {
                    for id in pool.puddles {
                        self.inner.registry.update_puddle(id, |p| p.pool = None);
                    }
                }
                let _ = self.inner.registry.commit();
                return Err(e);
            }
        };
        let info = self
            .inner
            .registry
            .update_pool(name, |pool| {
                pool.root = root.id;
                pool.to_info()
            })
            .ok_or_else(|| DaemonError::new(ErrorCode::Internal, "pool vanished"))?;
        self.inner.registry.commit()?;
        Ok(info)
    }

    fn open_pool(&self, creds: Credentials, name: &str) -> DaemonResult<puddles_proto::PoolInfo> {
        let pool = self.inner.registry.pool(name).ok_or_else(|| {
            DaemonError::new(ErrorCode::NotFound, format!("pool `{name}` not found"))
        })?;
        let root = self
            .inner
            .registry
            .puddle(pool.root)
            .ok_or_else(|| DaemonError::new(ErrorCode::Internal, "pool root missing"))?;
        if !acl::check(
            creds,
            root.owner_uid,
            root.owner_gid,
            root.mode,
            acl::Access::Read,
        ) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                "pool access denied",
            ));
        }
        Ok(pool.to_info())
    }

    fn drop_pool(&self, creds: Credentials, name: &str) -> DaemonResult<()> {
        let reg = &self.inner.registry;
        // Check the caller may delete every member before tearing anything
        // down (the drop below is not atomic across puddles).
        let pool = reg
            .pool(name)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "pool not found"))?;
        for id in &pool.puddles {
            if let Some(record) = reg.puddle(*id) {
                if !acl::check(
                    creds,
                    record.owner_uid,
                    record.owner_gid,
                    record.mode,
                    acl::Access::Write,
                ) {
                    return Err(DaemonError::new(
                        ErrorCode::PermissionDenied,
                        format!("cannot drop pool `{name}`: puddle {id} is not writable"),
                    ));
                }
            }
        }
        // Remove the pool record first: from this point on, concurrent
        // CreatePuddle requests naming this pool fail with NotFound instead
        // of racing the teardown. The returned record carries the member
        // list as of the removal.
        let pool = reg
            .remove_pool(name)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "pool not found"))?;
        // Free every member even if one fails, so a mid-loop error cannot
        // orphan the rest; a member already freed concurrently (NotFound) is
        // not an error. A member that cannot be freed (e.g. another user's
        // puddle raced into the pool after the ACL pre-check) is detached so
        // it never dangles on the removed pool name. Any stragglers a crash
        // leaves behind are healed by the registry's load-time reconcile.
        let mut first_error = None;
        for id in pool.puddles {
            match self.free_puddle(creds, id) {
                Ok(()) => {}
                Err(e) if e.code == ErrorCode::NotFound => {}
                Err(e) => {
                    reg.update_puddle(id, |p| p.pool = None);
                    first_error = first_error.or(Some(e));
                }
            }
        }
        reg.commit()?;
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn register_log_space(&self, creds: Credentials, puddle: PuddleId) -> DaemonResult<()> {
        let reg = &self.inner.registry;
        let record = reg
            .puddle(puddle)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "no such puddle"))?;
        if !acl::check(
            creds,
            record.owner_uid,
            record.owner_gid,
            record.mode,
            acl::Access::Write,
        ) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                "cannot register a log space you cannot write",
            ));
        }
        if record.purpose != PuddlePurpose::LogSpace {
            return Err(DaemonError::new(
                ErrorCode::InvalidRequest,
                "puddle was not created as a log space",
            ));
        }
        reg.register_log_space(LogSpaceRecord {
            puddle,
            owner_uid: creds.uid,
            owner_gid: creds.gid,
            invalid: false,
        });
        reg.commit()?;
        Ok(())
    }

    /// Test/benchmark helper: returns the fixed puddle header size so other
    /// crates do not need to import the layout module directly.
    pub fn puddle_header_size() -> usize {
        layout::PUDDLE_HEADER_SIZE
    }
}

/// In-process endpoint: calls the daemon directly with fixed credentials.
#[derive(Debug, Clone)]
pub struct LocalEndpoint {
    daemon: Daemon,
    creds: Credentials,
}

impl LocalEndpoint {
    /// Returns the daemon behind this endpoint (in-process clients use it to
    /// share the global space).
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Returns the credentials this endpoint presents.
    pub fn credentials(&self) -> Credentials {
        self.creds
    }
}

impl Endpoint for LocalEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        Ok(self.daemon.handle(self.creds, req.clone()))
    }
}
