//! The client side of the Puddles system (`libpuddles`' connection state).
//!
//! A [`PuddleClient`] talks to one daemon (in-process or over a UNIX-domain
//! socket), shares that daemon's global puddle space, registers the
//! client's log space and pointer maps, and hands out per-thread log
//! puddles for transactions (§4.1 "to keep transaction costs low, every
//! thread caches the log puddle used on the first transaction").

use crate::error::{Error, Result};
use crate::pool::{Pool, PoolOptions};
use crate::tx::{self, Transaction};
use crate::types::{PmType, TypeRegistry};
use parking_lot::{Mutex, RwLock};
use puddled::{Daemon, GlobalSpace, LOG_REGION_OFFSET};
use puddles_logfmt::{LogRef, LogSpaceRef};
use puddles_pmem::clock::{entropy_seed, Clock};
use puddles_pmem::faultio::{self, CrashPoint, FaultPlan};
use puddles_proto::{
    Credentials, Endpoint, PoolInfo, PuddleId, PuddleInfo, PuddlePurpose, RecoveryReport, Request,
    Response,
};
use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// Size of the puddle holding a client's log space.
pub const LOGSPACE_PUDDLE_SIZE: u64 = 64 * 1024;
/// Size of each per-thread log puddle.
pub const LOG_PUDDLE_SIZE: u64 = 4 * 1024 * 1024;
/// Floor on the spare-log cache capacity: even a client that has never
/// chained parks a couple of puddles (a new thread log, a first chain
/// extension).
pub const SPARE_LOG_CACHE_MIN: usize = 2;
/// Ceiling on the spare-log cache capacity, bounding what an idle client
/// pins no matter how deep its transactions chain.
pub const SPARE_LOG_CACHE_MAX: usize = 16;

/// Spare log puddles a client parks for reuse instead of freeing.
///
/// Chained transactions release one tail per extension, so the useful
/// capacity tracks the deepest chain this client has built: a fixed small
/// cache makes chain-heavy transactions round-trip to the daemon for most
/// of their tails, while a fixed large one pins puddles a chain-free client
/// never uses. `depth_hwm` is the high-water mark of observed chain indexes
/// (0 until the first chain extension).
fn spare_capacity_for(depth_hwm: usize) -> usize {
    depth_hwm.clamp(SPARE_LOG_CACHE_MIN, SPARE_LOG_CACHE_MAX)
}

/// A connection to the Puddles daemon plus per-client state.
///
/// Cloning the client clones a handle to the same connection.
#[derive(Clone)]
pub struct PuddleClient {
    pub(crate) inner: Arc<ClientInner>,
}

pub(crate) struct ClientInner {
    endpoint: Box<dyn Endpoint>,
    pub(crate) gspace: Arc<GlobalSpace>,
    pub(crate) types: Mutex<TypeRegistry>,
    registered_types: Mutex<HashSet<u64>>,
    logging: Mutex<LoggingState>,
    /// Per-thread cached logs; read-locked on the transaction fast path so
    /// concurrent transactions on different threads never serialize here.
    thread_logs: RwLock<HashMap<ThreadId, ThreadLog>>,
    /// Size of log puddles this client requests ([`LOG_PUDDLE_SIZE`] unless
    /// overridden); applies to thread logs and chained segments alike.
    log_puddle_size: std::sync::atomic::AtomicU64,
    /// Spare log puddles parked for reuse (still mapped, unregistered from
    /// the log space): a chained commit/abort parks its tail here instead of
    /// `FreePuddle`-ing it, and the next segment acquisition — a chain
    /// extension or a new thread log — skips the daemon round trip *and*
    /// the mmap. Freed for real when the client drops.
    spare_logs: Mutex<Vec<PuddleInfo>>,
    /// Deepest chain index this client has registered (0 until the first
    /// chain extension); sizes the spare-log cache adaptively — see
    /// [`spare_capacity_for`].
    chain_depth_hwm: std::sync::atomic::AtomicUsize,
    /// Client-local observability counters (retries, reconnects, pipeline
    /// depth), shared with the endpoint; all-zero for in-process endpoints.
    client_metrics: Arc<ClientMetrics>,
    /// Crash points of the in-process daemon's fault plan, which its
    /// clients inherit (one daemon plus its clients model one machine);
    /// `None` for socket clients and plan-less daemons.
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

#[derive(Default)]
struct LoggingState {
    logspace: Option<MappedLogSpace>,
    next_log_id: u64,
}

struct MappedLogSpace {
    #[allow(dead_code)]
    info: PuddleInfo,
    ls: LogSpaceRef,
}

/// One thread's cached log, stored as the raw parts of its `LogRef` (plain
/// integers, so the map is `Sync` without any unsafe impl). The `LogRef` is
/// reconstructed on fetch; the owning thread is the only one that looks its
/// entry up, and the mapping lives for the client's lifetime.
struct ThreadLog {
    #[allow(dead_code)]
    info: PuddleInfo,
    log_base: usize,
    log_capacity: usize,
    /// The log-space `log_id` this thread's log was registered under; chain
    /// segments added mid-transaction register under the same id with
    /// ascending `chain_index`.
    log_id: u64,
}

/// A thread's cached log plus the identity a transaction needs to chain
/// further segments onto it.
pub(crate) struct ThreadLogHandle {
    pub(crate) log: LogRef,
    pub(crate) log_id: u64,
}

impl PuddleClient {
    /// Connects to an in-process daemon with this process's credentials.
    pub fn connect_local(daemon: &Daemon) -> Result<Self> {
        Self::connect_local_as(daemon, Credentials::current_process())
    }

    /// Connects to an in-process daemon presenting explicit credentials
    /// (used by tests to model multiple users). The client inherits the
    /// daemon's fault plan, so crash points armed on it fire in this
    /// client's transactions too.
    pub fn connect_local_as(daemon: &Daemon, creds: Credentials) -> Result<Self> {
        let endpoint = Box::new(daemon.endpoint(creds));
        let gspace = daemon.global_space();
        Self::finish_connect(
            endpoint,
            Some(gspace),
            creds,
            Arc::new(ClientMetrics::default()),
            daemon.pm_dir().fault_plan().cloned(),
        )
    }

    /// Connects to a daemon over its UNIX-domain socket. Requests carry
    /// ids, dozens may be in flight per connection, and responses pair by
    /// id.
    ///
    /// The client reserves the global puddle space at the base address the
    /// daemon reports; if that address range is unavailable in this process
    /// the connection fails (native pointers require the same base in every
    /// process of the "machine").
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self> {
        let creds = Credentials::current_process();
        let metrics = Arc::new(ClientMetrics::default());
        let endpoint = Box::new(
            PipelinedEndpoint::new(path.as_ref(), RetryPolicy::default())
                .with_client_metrics(Arc::clone(&metrics)),
        );
        Self::finish_connect(endpoint, None, creds, metrics, None)
    }

    /// Connects over the UNIX-domain socket while sharing an existing
    /// global-space reservation.
    ///
    /// Needed when the daemon runs in the *same process* as the client (the
    /// daemon already reserved the global space, so the client cannot
    /// reserve it again); out-of-process clients use
    /// [`PuddleClient::connect_uds`].
    pub fn connect_uds_shared(path: impl AsRef<Path>, space: Arc<GlobalSpace>) -> Result<Self> {
        Self::connect_uds_shared_tuned(path, space, RetryPolicy::default(), 0)
    }

    /// Full-control shared-space connection: an explicit retry policy plus
    /// a requested connection-pool depth (0 = server default). The daemon
    /// clamps the request to its configured maximum and the grant comes
    /// back in `Welcome`; use depth 1 to hold a single connection slot
    /// against a capped server.
    pub fn connect_uds_shared_tuned(
        path: impl AsRef<Path>,
        space: Arc<GlobalSpace>,
        retry: RetryPolicy,
        pool_depth: u32,
    ) -> Result<Self> {
        let creds = Credentials::current_process();
        let metrics = Arc::new(ClientMetrics::default());
        let endpoint = Box::new(
            PipelinedEndpoint::new(path.as_ref(), retry)
                .with_requested_depth(pool_depth)
                .with_client_metrics(Arc::clone(&metrics)),
        );
        Self::finish_connect(endpoint, Some(space), creds, metrics, None)
    }

    fn finish_connect(
        endpoint: Box<dyn Endpoint>,
        shared_space: Option<Arc<GlobalSpace>>,
        creds: Credentials,
        client_metrics: Arc<ClientMetrics>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self> {
        let resp = endpoint.call(&Request::hello(creds))?.into_result()?;
        let (space_base, space_size) = match resp {
            Response::Welcome {
                space_base,
                space_size,
                ..
            } => (space_base, space_size),
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        let gspace = match shared_space {
            Some(space) => space,
            None => {
                let space = GlobalSpace::reserve(Some(space_base as usize), space_size as usize)
                    .map_err(Error::from)?;
                if space.base() as u64 != space_base {
                    return Err(Error::UnexpectedResponse(format!(
                        "cannot reserve global puddle space at {space_base:#x} (got {:#x})",
                        space.base()
                    )));
                }
                Arc::new(space)
            }
        };
        Ok(PuddleClient {
            inner: Arc::new(ClientInner {
                endpoint,
                gspace,
                types: Mutex::new(TypeRegistry::new()),
                registered_types: Mutex::new(HashSet::new()),
                logging: Mutex::new(LoggingState::default()),
                thread_logs: RwLock::new(HashMap::new()),
                log_puddle_size: std::sync::atomic::AtomicU64::new(LOG_PUDDLE_SIZE),
                spare_logs: Mutex::new(Vec::new()),
                chain_depth_hwm: std::sync::atomic::AtomicUsize::new(0),
                client_metrics,
                faults,
            }),
        })
    }

    /// Overrides the size of log puddles this client creates (thread logs
    /// and chain segments). Mainly a test/bench knob: small segments make
    /// the chaining path cheap to exercise. Takes effect for puddles
    /// created after the call; clamped to a workable minimum.
    pub fn set_log_puddle_size(&self, bytes: u64) {
        self.inner
            .log_puddle_size
            .store(bytes.max(16 * 1024), std::sync::atomic::Ordering::Relaxed);
    }

    /// Creates a pool with the given options.
    pub fn create_pool(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        let resp = self.inner.call(&Request::CreatePool {
            name: name.to_string(),
            root_size: options.puddle_size,
            mode: options.mode,
        })?;
        let info = expect_pool(resp)?;
        Pool::from_info(self.inner.clone(), info, options)
    }

    /// Opens an existing pool.
    pub fn open_pool(&self, name: &str) -> Result<Pool> {
        self.open_pool_with(name, PoolOptions::default())
    }

    /// Opens an existing pool with explicit options.
    pub fn open_pool_with(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        let resp = self.inner.call(&Request::OpenPool {
            name: name.to_string(),
        })?;
        let info = expect_pool(resp)?;
        Pool::from_info(self.inner.clone(), info, options)
    }

    /// Opens the pool if it exists, creating it otherwise.
    pub fn open_or_create_pool(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        match self.open_pool_with(name, options.clone()) {
            Ok(pool) => Ok(pool),
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::NotFound => {
                self.create_pool(name, options)
            }
            Err(e) => Err(e),
        }
    }

    /// Deletes a pool and all of its puddles.
    pub fn drop_pool(&self, name: &str) -> Result<()> {
        self.inner.call(&Request::DropPool {
            name: name.to_string(),
        })?;
        Ok(())
    }

    /// Exports a pool (raw in-memory representation plus manifest) to a
    /// directory, so it can be shipped to another machine or re-imported as
    /// a copy.
    pub fn export_pool(&self, name: &str, dest: impl AsRef<Path>) -> Result<()> {
        self.inner.call(&Request::ExportPool {
            name: name.to_string(),
            dest: dest.as_ref().to_string_lossy().into_owned(),
        })?;
        Ok(())
    }

    /// Imports a previously exported pool under a new name and opens it.
    ///
    /// Conflicting addresses are resolved by the daemon; pointers are
    /// rewritten incrementally as the imported puddles are mapped.
    pub fn import_pool(&self, src: impl AsRef<Path>, new_name: &str) -> Result<Pool> {
        let resp = self.inner.call(&Request::ImportPool {
            src: src.as_ref().to_string_lossy().into_owned(),
            new_name: new_name.to_string(),
        })?;
        let info = match resp {
            Response::Imported { pool, .. } => pool,
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        Pool::from_info(self.inner.clone(), info, PoolOptions::default())
    }

    /// Runs a failure-atomic transaction (the Rust spelling of
    /// `TX_BEGIN(pool) { ... } TX_END`).
    ///
    /// Unlike PMDK, the transaction may modify data in *any* pool opened by
    /// this client (cross-pool transactions, §3.6).
    pub fn tx<R>(&self, body: impl FnOnce(&mut Transaction<'_>) -> Result<R>) -> Result<R> {
        tx::run_tx(&self.inner, body)
    }

    /// Registers a persistent type's pointer map with the daemon (done
    /// automatically on first allocation of the type).
    pub fn register_type<T: PmType>(&self) -> Result<()> {
        self.inner.register_type::<T>()
    }

    /// Asks the daemon to run a recovery pass now.
    pub fn recover(&self) -> Result<RecoveryReport> {
        match self.inner.call(&Request::Recover)? {
            Response::Recovered(report) => Ok(report),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches daemon statistics.
    pub fn stats(&self) -> Result<puddles_proto::DaemonStats> {
        match self.inner.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's metrics report: latency-series quantiles
    /// (service, WAL flush, checkpoint, coalesce) plus counters.
    pub fn metrics(&self) -> Result<puddles_proto::MetricsReport> {
        match self.inner.call(&Request::GetMetrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// This client's local observability counters (retry attempts,
    /// reconnects, pipelined in-flight high-water), in the same report
    /// shape as [`PuddleClient::metrics`]. Purely local — no round trip.
    pub fn client_metrics(&self) -> puddles_proto::MetricsReport {
        self.inner.client_metrics.report()
    }

    /// A no-op round trip to the daemon (used to measure daemon latency).
    pub fn ping(&self) -> Result<()> {
        self.inner.call(&Request::Ping)?;
        Ok(())
    }

    /// Base address of the global puddle space.
    pub fn space_base(&self) -> u64 {
        self.inner.gspace.base() as u64
    }
}

fn expect_pool(resp: Response) -> Result<PoolInfo> {
    match resp {
        Response::Pool(info) => Ok(info),
        other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
    }
}

impl ClientInner {
    /// Sends one request, converting daemon errors.
    pub(crate) fn call(&self, req: &Request) -> Result<Response> {
        Ok(self.endpoint.call(req)?.into_result()?)
    }

    /// Fetches puddle metadata, asking for write access when possible and
    /// falling back to read-only access.
    pub(crate) fn get_puddle(&self, id: PuddleId) -> Result<PuddleInfo> {
        match self.call(&Request::GetPuddle { id, writable: true }) {
            Ok(Response::Puddle(info)) => Ok(info),
            Ok(other) => Err(Error::UnexpectedResponse(format!("{other:?}"))),
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::PermissionDenied => {
                match self.call(&Request::GetPuddle {
                    id,
                    writable: false,
                })? {
                    Response::Puddle(info) => Ok(info),
                    other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Maps a puddle into the global space, returning its base address.
    pub(crate) fn map_puddle_raw(&self, info: &PuddleInfo) -> Result<usize> {
        let file = OpenOptions::new()
            .read(true)
            .write(info.writable)
            .open(&info.path)
            .map_err(Error::Io)?;
        let offset = (info.assigned_addr - self.gspace.base() as u64) as usize;
        Ok(self
            .gspace
            .map_puddle(&file, offset, info.size as usize, info.writable)?)
    }

    /// Releases one mapping reference for a puddle.
    pub(crate) fn unmap_puddle(&self, info: &PuddleInfo) {
        let offset = (info.assigned_addr - self.gspace.base() as u64) as usize;
        // SAFETY: callers only unmap when they hold the last user of their
        // mapping and no references into it remain (MappedPuddle::drop).
        unsafe {
            let _ = self.gspace.unmap_puddle(offset);
        }
    }

    /// Registers a persistent type once per client.
    pub(crate) fn register_type<T: PmType>(&self) -> Result<()> {
        self.register_decl(T::decl())
    }

    pub(crate) fn register_decl(&self, decl: puddles_proto::PtrMapDecl) -> Result<()> {
        {
            let mut types = self.types.lock();
            types.insert(decl.clone());
        }
        let mut registered = self.registered_types.lock();
        if registered.insert(decl.type_id) {
            self.call(&Request::RegisterPtrMap { decl })?;
        }
        Ok(())
    }

    /// Returns a merged view of locally declared and daemon-registered
    /// pointer maps (needed to rewrite imported data of foreign types).
    pub(crate) fn merged_types(&self) -> Result<TypeRegistry> {
        let mut merged = self.types.lock().clone();
        if let Response::PtrMaps(maps) = self.call(&Request::GetPtrMaps)? {
            merged.merge(maps);
        }
        Ok(merged)
    }

    /// Current log-puddle size (thread logs and chain segments).
    pub(crate) fn log_puddle_size(&self) -> u64 {
        self.log_puddle_size
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns this thread's cached log, creating the log space and the log
    /// puddle on first use.
    pub(crate) fn thread_log(&self) -> Result<ThreadLogHandle> {
        let tid = std::thread::current().id();
        {
            // Fast path: a shared read lock, so transactions on different
            // threads acquire their cached logs in parallel.
            let logs = self.thread_logs.read();
            if let Some(tl) = logs.get(&tid) {
                // SAFETY: the parts were taken from a `LogRef` over a puddle
                // mapped writable for the client's lifetime (thread logs are
                // never unmapped), and only the owning thread reaches this
                // entry (the map is keyed by the calling thread's id).
                let log = unsafe { LogRef::from_raw(tl.log_base as *mut u8, tl.log_capacity) };
                return Ok(ThreadLogHandle {
                    log,
                    log_id: tl.log_id,
                });
            }
        }
        // Slow path: make sure the log space exists, then create a log
        // puddle for this thread. A recycled spare already carries an
        // initialized log whose generation must keep counting up (init
        // would rewind it to 0, re-exposing stale same-generation entries);
        // reset bumps it instead.
        let log_id = self.ensure_logspace()?;
        let (info, log) = self.acquire_log_segment()?;
        if log.is_initialized() {
            log.reset();
        } else {
            log.init();
        }
        self.register_log_segment(&info, log_id, 0)?;
        let log_base = log.base_addr();
        let mut logs = self.thread_logs.write();
        logs.insert(
            tid,
            ThreadLog {
                info,
                log_base,
                log_capacity: log.capacity(),
                log_id,
            },
        );
        Ok(ThreadLogHandle { log, log_id })
    }

    /// Provides one mapped log puddle — a parked spare when one fits, a
    /// fresh daemon allocation otherwise — returning its metadata and a log
    /// view over its heap. The caller initializes/resets the log and
    /// registers the puddle in the log space (thread logs at `chain_index`
    /// 0, mid-transaction chain segments at the next index).
    pub(crate) fn acquire_log_segment(&self) -> Result<(PuddleInfo, LogRef)> {
        // Reuse a spare of the current size: no daemon round trip, no mmap
        // (the spare kept its mapping reference). A spare of the wrong size
        // (the log-puddle-size knob moved) is freed for real instead.
        while let Some(info) = self.spare_logs.lock().pop() {
            if info.size == self.log_puddle_size() {
                // SAFETY: the spare's mapping reference was retained when it
                // was parked (`release_log_segment`), so `assigned_addr` is
                // still a live writable mapping of `info.size` bytes.
                let log = unsafe {
                    LogRef::from_raw(
                        (info.assigned_addr as usize + LOG_REGION_OFFSET) as *mut u8,
                        info.size as usize - LOG_REGION_OFFSET,
                    )
                };
                return Ok((info, log));
            }
            self.free_log_segment(&info);
        }
        let info = match self.call(&Request::CreatePuddle {
            size: self.log_puddle_size(),
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        })? {
            Response::Puddle(info) => info,
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        let addr = self.map_puddle_raw(&info)?;
        // SAFETY: the puddle was just mapped writable for `info.size` bytes;
        // it stays mapped until `free_log_segment` (chain tails, spares) or
        // for the client's lifetime (thread logs).
        let log = unsafe {
            LogRef::from_raw(
                (addr + LOG_REGION_OFFSET) as *mut u8,
                info.size as usize - LOG_REGION_OFFSET,
            )
        };
        Ok((info, log))
    }

    /// Durably records a chained log segment in the client's log space under
    /// `log_id` at `chain_index` (the slot write is persisted and fenced
    /// before this returns, so recovery can find the tail before any entry
    /// lands in it).
    pub(crate) fn register_log_segment(
        &self,
        info: &PuddleInfo,
        log_id: u64,
        chain_index: u32,
    ) -> Result<()> {
        if chain_index > 0 {
            // Observed chain depth feeds the spare-cache capacity: a client
            // that chains to depth d wants ~d parked tails.
            self.chain_depth_hwm
                .fetch_max(chain_index as usize, std::sync::atomic::Ordering::Relaxed);
        }
        let logging = self.logging.lock();
        match &logging.logspace {
            Some(ls) => ls
                .ls
                .register(info.id.0, log_id, chain_index)
                .map_err(Error::from),
            None => Err(Error::Corruption(
                "chain extension without a registered log space".into(),
            )),
        }
    }

    /// Releases a chain segment after the transaction resolved: removes its
    /// log-space slot (durably, so recovery never chases a freed puddle),
    /// then **parks** the puddle in the spare cache — still mapped — for the
    /// next chain extension or thread log, rather than `FreePuddle`-ing it.
    /// Chain-heavy transactions would otherwise pay a daemon round trip +
    /// file create + mmap *per extension, per transaction* (the ~2x
    /// chained-vs-single gap in `tx_1MiB_undo_MBps`). With the cache full
    /// (or the segment size stale) the puddle is freed for real.
    ///
    /// A parked spare is unreachable by recovery (no log-space slot) and
    /// already reset by `LogWriter::reset`, so it holds nothing replayable;
    /// if the client dies while holding spares, the daemon's startup sweep
    /// of unreferenced log puddles reclaims them.
    pub(crate) fn release_log_segment(&self, info: &PuddleInfo) {
        {
            let logging = self.logging.lock();
            if let Some(ls) = &logging.logspace {
                ls.ls.unregister(info.id.0);
            }
        }
        if info.size == self.log_puddle_size() {
            let capacity = spare_capacity_for(
                self.chain_depth_hwm
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
            let mut spares = self.spare_logs.lock();
            if spares.len() < capacity {
                spares.push(info.clone());
                return;
            }
        }
        self.free_log_segment(info);
    }

    /// Actually returns a log puddle to the daemon: drops the mapping
    /// reference and frees the puddle. Best-effort — a failure leaves a
    /// benign orphan that the daemon's startup reclamation sweeps.
    fn free_log_segment(&self, info: &PuddleInfo) {
        self.unmap_puddle(info);
        let _ = self.call(&Request::FreePuddle { id: info.id });
    }

    fn ensure_logspace(&self) -> Result<u64> {
        let mut logging = self.logging.lock();
        if logging.logspace.is_none() {
            let info = match self.call(&Request::CreatePuddle {
                size: LOGSPACE_PUDDLE_SIZE,
                pool: None,
                purpose: PuddlePurpose::LogSpace,
                mode: 0o600,
            })? {
                Response::Puddle(info) => info,
                other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
            };
            // Crash window: the LogSpace puddle exists daemon-side but
            // carries no LogSpaceRecord yet — only the daemon's startup
            // sweep of unregistered LogSpace puddles can reclaim it.
            faultio::crash(self.faults.as_deref(), CrashPoint::LogSpaceAlloc)?;
            let addr = self.map_puddle_raw(&info)?;
            // SAFETY: mapped writable just above; stays mapped for the
            // client's lifetime.
            let ls = unsafe {
                LogSpaceRef::from_raw(
                    (addr + LOG_REGION_OFFSET) as *mut u8,
                    info.size as usize - LOG_REGION_OFFSET,
                )
            };
            ls.init();
            self.call(&Request::RegLogSpace { puddle: info.id })?;
            logging.logspace = Some(MappedLogSpace { info, ls });
        }
        logging.next_log_id += 1;
        Ok(logging.next_log_id)
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // The spare-log cache lives exactly as long as the client: on
        // disconnect the parked puddles go back to the daemon (best-effort
        // — if the daemon is already gone, its next startup sweep reclaims
        // them as unreferenced log puddles).
        let spares = std::mem::take(&mut *self.spare_logs.lock());
        for info in &spares {
            self.free_log_segment(info);
        }
    }
}

/// `true` for I/O failures that a fresh connection may fix: the daemon
/// closed (or was restarted under) a pooled socket, so a write lands on a
/// dead peer or a read hits EOF. Logic errors (e.g. a malformed frame) are
/// not transient — retrying would repeat them.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::WriteZero
    )
}

/// `true` for requests that are safe to resend when a pooled connection
/// dies *after* the request was written but before the response arrived:
/// reads, and writes whose re-application lands on the same state
/// (registrations are keyed puts, `MarkRewritten` clears an already-clear
/// flag, an export overwrites its own output). Creates, frees, drops, and
/// imports are **not** retried — the daemon may have applied them and lost
/// only the acknowledgement, so a resend would double-apply (e.g. a second
/// puddle allocated, or a successful `DropPool` reported as `NotFound`).
fn is_idempotent(req: &Request) -> bool {
    matches!(
        req,
        Request::Hello { .. }
            | Request::Ping
            | Request::GetPuddle { .. }
            | Request::OpenPool { .. }
            | Request::GetPtrMaps
            | Request::RegisterPtrMap { .. }
            | Request::RegLogSpace { .. }
            | Request::GetRelocation { .. }
            | Request::MarkRewritten { .. }
            | Request::ExportPool { .. }
            | Request::Recover
            | Request::Stats
            | Request::GetMetrics
    )
}

/// Client-local observability counters, shared by the endpoint, its retry
/// policy, and every pipelined connection. Surfaced through
/// [`PuddleClient::client_metrics`] in the same report shape the daemon's
/// `GetMetrics` uses, so one consumer renders both sides.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Retry attempts actually performed past each operation's first try
    /// (dials and idempotent re-sends alike).
    pub retry_attempts: std::sync::atomic::AtomicU64,
    /// Re-dials after the first successful handshake (each also flags
    /// `reconnect` in its `Hello`, so the daemon's count should match).
    pub reconnects: std::sync::atomic::AtomicU64,
    /// High-water mark of requests in flight on one pipelined connection
    /// (how deep the id→waiter completion map has grown).
    pub pipeline_depth_hwm: std::sync::atomic::AtomicU64,
}

impl ClientMetrics {
    /// The counters as a wire-shaped report (no histogram series).
    pub fn report(&self) -> puddles_proto::MetricsReport {
        use std::sync::atomic::Ordering::Relaxed;
        let counter = |name: &str, value: u64| puddles_proto::CounterSnapshot {
            name: name.to_string(),
            value,
        };
        puddles_proto::MetricsReport {
            series: Vec::new(),
            counters: vec![
                counter(
                    "client.pipeline_depth_hwm",
                    self.pipeline_depth_hwm.load(Relaxed),
                ),
                counter("client.reconnects", self.reconnects.load(Relaxed)),
                counter("client.retry_attempts", self.retry_attempts.load(Relaxed)),
            ],
            trace_buffered: 0,
            trace_dropped: 0,
        }
    }
}

/// Reusable bounded retry policy: exponential backoff with jitter, capped
/// attempts and an overall deadline.
///
/// One policy instance covers every retryable edge of a client endpoint —
/// dialing the daemon (refused while it restarts, `Busy` at the connection
/// cap) and re-sending idempotent requests after a mid-pipeline connection
/// loss. Only errors [`is_transient`] classifies as connection-level are
/// retried; the caller is responsible for never handing a non-idempotent
/// request to [`RetryPolicy::run`].
#[derive(Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry up to `max_delay`.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_delay: Duration,
    /// Overall budget: once elapsed, no further retry is attempted even if
    /// attempts remain.
    pub deadline: Duration,
    /// Seed of the jitter stream. Drawn from OS entropy by default (so a
    /// herd of clients decorrelates) and overridden with a derived torture
    /// seed under test, making backoff sequences replayable.
    jitter_seed: u64,
    /// Position in the jitter stream (monotone per policy instance).
    jitter_seq: std::sync::atomic::AtomicU64,
    /// Time source for deadlines and backoff sleeps.
    clock: Clock,
    /// Counts retries actually performed into a client-local reporter.
    metrics: Option<Arc<ClientMetrics>>,
}

impl Clone for RetryPolicy {
    fn clone(&self) -> Self {
        RetryPolicy {
            max_attempts: self.max_attempts,
            base_delay: self.base_delay,
            max_delay: self.max_delay,
            deadline: self.deadline,
            jitter_seed: self.jitter_seed,
            jitter_seq: std::sync::atomic::AtomicU64::new(0),
            clock: self.clock.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl Default for RetryPolicy {
    /// Defaults tuned for a local daemon: a handful of quick retries well
    /// under human-visible latency, giving a restarting daemon ~2 s to
    /// come back.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            deadline: Duration::from_secs(2),
            jitter_seed: entropy_seed(),
            jitter_seq: std::sync::atomic::AtomicU64::new(0),
            clock: Clock::real(),
            metrics: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with explicit attempt and deadline budgets (delays keep the
    /// defaults).
    pub fn new(max_attempts: u32, deadline: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            deadline,
            ..RetryPolicy::default()
        }
    }

    /// Overrides the backoff schedule: first retry after `base`, doubling
    /// per retry up to `max`.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max.max(base);
        self
    }

    /// A policy that never retries (tests that want raw first-failure
    /// semantics).
    pub fn no_retries() -> Self {
        RetryPolicy::new(1, Duration::ZERO)
    }

    /// Pins the jitter stream to an explicit seed, making the backoff
    /// sequence replayable (torture runs derive this from `TORTURE_SEED`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Replaces the time source; under a virtual clock, backoff sleeps
    /// consume logical time instead of wall time.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The policy's time source (endpoints share it for pool timestamps).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Counts retries this policy performs into `metrics` (attached by the
    /// client's connect path; the counters are client-local).
    fn with_metrics(mut self, metrics: Arc<ClientMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the attempt /
    /// deadline budget is spent. `op` receives the 0-based attempt number;
    /// attempts past the first follow a backoff sleep.
    fn run<T>(&self, mut op: impl FnMut(u32) -> std::io::Result<T>) -> std::io::Result<T> {
        let start = self.clock.now();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient(&e) => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts {
                        return Err(e);
                    }
                    let delay = self.backoff_delay(attempt - 1);
                    if self.clock.now().saturating_sub(start) + delay > self.deadline {
                        return Err(e);
                    }
                    if let Some(metrics) = &self.metrics {
                        metrics
                            .retry_attempts
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    self.clock.sleep(delay);
                }
            }
        }
    }

    /// Backoff for the given retry: `base · 2^retry` capped at `max_delay`,
    /// then jittered into `[d/2, d]` so a herd of clients kicked off one
    /// daemon restart does not re-dial in lockstep.
    fn backoff_delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_delay);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let n = self
            .jitter_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SplitMix64 over (seed ⊕ sequence): decorrelates concurrent
        // clients (seeds differ per instance) yet replays exactly when the
        // seed is pinned.
        let mut z = self.jitter_seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Duration::from_nanos(nanos / 2 + z % (nanos / 2 + 1))
    }
}

/// Connections a [`PipelinedEndpoint`] multiplexes calls over until the
/// daemon grants a pool depth in `Welcome` (the grant then takes over).
/// Each carries up to the connection's negotiated window of in-flight
/// requests, so a couple of sockets serve many concurrent callers.
const PIPELINE_CONNECTIONS: usize = 2;

/// One caller parked on a pipelined response.
struct Waiter {
    slot: std::sync::Mutex<Option<std::io::Result<Response>>>,
    ready: std::sync::Condvar,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            slot: std::sync::Mutex::new(None),
            ready: std::sync::Condvar::new(),
        }
    }

    fn fill(&self, result: std::io::Result<Response>) {
        *self.slot.lock().unwrap() = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> std::io::Result<Response> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.wait(slot).unwrap();
        }
    }
}

/// One daemon connection: a shared writer, a reader thread, and the id→waiter
/// completion map that pairs out-of-order responses with their callers.
struct PipeConn {
    /// Write half (a `try_clone` of the socket; the reader owns the other).
    /// The lock covers one whole frame write, so concurrent callers never
    /// interleave frame bytes.
    writer: Mutex<UnixStream>,
    /// Callers waiting for their response, keyed by request id.
    pending: Mutex<HashMap<u64, Arc<Waiter>>>,
    next_id: std::sync::atomic::AtomicU64,
    /// The reader exited (EOF, I/O error, protocol violation): no future
    /// call on this connection can complete. The endpoint replaces it.
    dead: std::sync::atomic::AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Client-local reporter; tracks the in-flight high-water mark.
    metrics: Arc<ClientMetrics>,
}

impl PipeConn {
    /// Wraps an already-connected stream, spawning the reader thread (tests
    /// drive a connection without an endpoint).
    #[cfg(test)]
    fn over_stream(stream: UnixStream) -> std::io::Result<Arc<PipeConn>> {
        PipeConn::over_stream_with(stream, Arc::new(ClientMetrics::default()))
    }

    /// [`PipeConn::over_stream`] reporting into an existing client-local
    /// reporter.
    fn over_stream_with(
        stream: UnixStream,
        metrics: Arc<ClientMetrics>,
    ) -> std::io::Result<Arc<PipeConn>> {
        let reader_stream = stream.try_clone()?;
        let conn = Arc::new(PipeConn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
            dead: std::sync::atomic::AtomicBool::new(false),
            reader: Mutex::new(None),
            metrics,
        });
        let for_reader = Arc::clone(&conn);
        let handle = std::thread::Builder::new()
            .name("puddles-pipe-reader".into())
            .spawn(move || reader_loop(for_reader, reader_stream))?;
        *conn.reader.lock() = Some(handle);
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Sends one enveloped request and blocks until the reader fills this
    /// call's waiter. Any number of calls may be in flight concurrently.
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        let req_id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let waiter = Arc::new(Waiter::new());
        let in_flight = {
            let mut pending = self.pending.lock();
            // Checked under the lock `fail_all` drains under: a waiter
            // inserted after that drain would never be filled.
            if self.is_dead() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "pipelined connection is closed",
                ));
            }
            pending.insert(req_id, Arc::clone(&waiter));
            pending.len() as u64
        };
        self.metrics
            .pipeline_depth_hwm
            .fetch_max(in_flight, std::sync::atomic::Ordering::Relaxed);
        let env = puddles_proto::RequestEnvelope {
            req_id,
            req: req.clone(),
        };
        let written = {
            let mut writer = self.writer.lock();
            puddles_proto::write_frame(&mut *writer, &env)
        };
        if let Err(e) = written {
            self.pending.lock().remove(&req_id);
            self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
            return Err(e);
        }
        waiter.wait()
    }

    /// Marks the connection dead and fails every parked caller (the reader
    /// is gone; their responses can never arrive).
    fn fail_all(&self, error: &std::io::Error) {
        self.dead.store(true, std::sync::atomic::Ordering::Relaxed);
        let pending: Vec<Arc<Waiter>> = self.pending.lock().drain().map(|(_, w)| w).collect();
        for waiter in pending {
            waiter.fill(Err(std::io::Error::new(error.kind(), error.to_string())));
        }
    }

    /// Unblocks the reader (both socket halves are clones of one fd, so
    /// shutting down the writer EOFs the reader too).
    fn close(&self) {
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// The reader half of one pipelined connection: decodes response envelopes
/// and routes each to its waiter by id. Exits — failing all parked callers
/// — on EOF, an I/O error, an undecodable frame, or a frame whose id has no
/// waiter (see [`unmatched_frame_error`]).
fn reader_loop(conn: Arc<PipeConn>, mut stream: UnixStream) {
    use std::io::Read;
    let mut decoder = puddles_proto::frame::FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let failure: std::io::Error = 'read: loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                break 'read std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )
            }
            Ok(n) => {
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame::<puddles_proto::ResponseEnvelope>() {
                        Ok(Some(env)) => {
                            let waiter = conn.pending.lock().remove(&env.req_id);
                            match waiter {
                                Some(waiter) => waiter.fill(Ok(env.resp)),
                                None => break 'read unmatched_frame_error(env),
                            }
                        }
                        Ok(None) => break,
                        Err(e) => break 'read e,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break 'read e,
        }
    };
    conn.fail_all(&failure);
}

/// Maps a response envelope no caller is waiting on to the error every
/// parked caller gets. The daemon sends one legitimately: the acceptor's
/// `Busy` rejection at the connection cap (`req_id` 0, which no request
/// uses), mapped to `ConnectionRefused` so callers treat it as transient
/// and back off. Anything else is a protocol violation.
fn unmatched_frame_error(env: puddles_proto::ResponseEnvelope) -> std::io::Error {
    match env.resp {
        Response::Error {
            code: puddles_proto::ErrorCode::Busy,
            message,
        } => std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("daemon busy: {message}"),
        ),
        other => std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("response for unknown req_id {}: {other:?}", env.req_id),
        ),
    }
}

/// Client-side endpoint speaking the pipelined socket protocol.
///
/// Keeps a small pool of connections ([`PIPELINE_CONNECTIONS`]) and spreads
/// calls round-robin across them; each connection multiplexes any number of
/// concurrent callers through its id→waiter map, so client threads never
/// wait for each other's round trips. Dead connections are replaced on the
/// next call; a call that fails transiently on an idempotent request is
/// retried once.
struct PipelinedEndpoint {
    path: std::path::PathBuf,
    pool: Mutex<Vec<Arc<PipeConn>>>,
    rr: std::sync::atomic::AtomicUsize,
    retry: RetryPolicy,
    /// Pool depth granted by the daemon's `Welcome`; starts at
    /// [`PIPELINE_CONNECTIONS`] and is replaced by the negotiated grant
    /// after the first handshake.
    depth: std::sync::atomic::AtomicUsize,
    /// Set after the first successful handshake; later dials flag
    /// themselves `reconnect` in `Hello`.
    connected_once: std::sync::atomic::AtomicBool,
    /// Pool depth to *request* in `Hello` (0 = take the server default).
    requested_depth: u32,
    /// Client-local reporter, shared with the retry policy and every
    /// connection in the pool.
    metrics: Arc<ClientMetrics>,
}

impl PipelinedEndpoint {
    fn new(path: &Path, retry: RetryPolicy) -> Self {
        PipelinedEndpoint {
            path: path.to_path_buf(),
            pool: Mutex::new(Vec::new()),
            rr: std::sync::atomic::AtomicUsize::new(0),
            retry,
            depth: std::sync::atomic::AtomicUsize::new(PIPELINE_CONNECTIONS),
            connected_once: std::sync::atomic::AtomicBool::new(false),
            requested_depth: 0,
            metrics: Arc::new(ClientMetrics::default()),
        }
    }

    /// Shares a client-local reporter (also wired into the retry policy so
    /// its retry counts land in the same place).
    fn with_client_metrics(mut self, metrics: Arc<ClientMetrics>) -> Self {
        self.retry = self.retry.clone().with_metrics(Arc::clone(&metrics));
        self.metrics = metrics;
        self
    }

    /// Requests a specific connection-pool depth in the handshake; the
    /// server clamps to its configured maximum and the grant replaces
    /// [`PIPELINE_CONNECTIONS`] as the pool target.
    fn with_requested_depth(mut self, depth: u32) -> Self {
        self.requested_depth = depth;
        if depth > 0 {
            // Until the grant arrives, don't dial beyond the request.
            self.depth
                .store(depth as usize, std::sync::atomic::Ordering::Relaxed);
        }
        self
    }

    /// Returns a live connection, pruning dead ones and dialing
    /// replacements up to the granted pool depth.
    fn conn(&self) -> std::io::Result<Arc<PipeConn>> {
        let mut pool = self.pool.lock();
        pool.retain(|c| !c.is_dead());
        if pool.len() < self.depth.load(std::sync::atomic::Ordering::Relaxed).max(1) {
            pool.push(self.connect_conn()?);
        }
        let i = self.rr.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % pool.len();
        Ok(Arc::clone(&pool[i]))
    }

    /// Dials and handshakes a new connection, retrying transient
    /// failures (daemon restarting, or its connection cap — the `Busy`
    /// rejection surfaces as `ConnectionRefused`) with bounded exponential
    /// backoff, so a client at the cap eventually gets through once load
    /// drains instead of failing after one fixed sleep.
    fn connect_conn(&self) -> std::io::Result<Arc<PipeConn>> {
        self.retry.run(|_| self.try_connect_conn())
    }

    fn try_connect_conn(&self) -> std::io::Result<Arc<PipeConn>> {
        let stream = UnixStream::connect(&self.path)?;
        let conn = PipeConn::over_stream_with(stream, Arc::clone(&self.metrics))?;
        let creds = Credentials::current_process();
        let reconnect = self
            .connected_once
            .load(std::sync::atomic::Ordering::Relaxed);
        if reconnect {
            self.metrics
                .reconnects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let hello = Request::Hello {
            creds,
            max_in_flight: 0,
            pool_depth: self.requested_depth,
            reconnect,
        };
        // Handshake round trip: proves the daemon accepted the connection
        // (a cap rejection fails here, not on a later caller), fixes the
        // connection's credentials daemon-side, and carries back the
        // granted pool depth.
        if let Response::Welcome { pool_depth, .. } = conn.call(&hello)? {
            if pool_depth > 0 {
                self.depth
                    .store(pool_depth as usize, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.connected_once
            .store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(conn)
    }
}

impl Endpoint for PipelinedEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        let conn = self.conn()?;
        match conn.call(req) {
            Err(e) if is_transient(&e) && is_idempotent(req) => {
                // The connection died under us (daemon restart, stale
                // socket, injected reset). The daemon may have applied the
                // request and lost only the response, so only idempotent
                // requests are re-sent — each retry on a connection that
                // just handshook, under the backoff policy.
                self.retry.run(|_| {
                    let conn = self.conn()?;
                    conn.call(req)
                })
            }
            other => other,
        }
    }
}

impl Drop for PipelinedEndpoint {
    fn drop(&mut self) {
        // Shut every socket down first (EOFs all readers at once), then
        // join the reader threads.
        let pool = std::mem::take(&mut *self.pool.lock());
        for conn in &pool {
            conn.close();
        }
        for conn in &pool {
            if let Some(handle) = conn.reader.lock().take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_idempotent_requests_are_retried() {
        assert!(is_idempotent(&Request::Ping));
        assert!(is_idempotent(&Request::Stats));
        assert!(is_idempotent(&Request::OpenPool { name: "p".into() }));
        assert!(!is_idempotent(&Request::CreatePool {
            name: "p".into(),
            root_size: 4096,
            mode: 0o600,
        }));
        assert!(!is_idempotent(&Request::DropPool { name: "p".into() }));
        assert!(!is_idempotent(&Request::FreePuddle { id: PuddleId(7) }));
    }

    #[test]
    fn transient_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient(&Error::new(ErrorKind::BrokenPipe, "x")));
        assert!(is_transient(&Error::new(ErrorKind::UnexpectedEof, "x")));
        assert!(is_transient(&Error::new(ErrorKind::ConnectionRefused, "x")));
        assert!(!is_transient(&Error::new(ErrorKind::InvalidData, "x")));
        assert!(!is_transient(&Error::new(ErrorKind::PermissionDenied, "x")));
    }

    #[test]
    fn spare_capacity_tracks_chain_depth() {
        // Below the floor (chain-free clients, shallow chains).
        assert_eq!(spare_capacity_for(0), SPARE_LOG_CACHE_MIN);
        assert_eq!(spare_capacity_for(1), SPARE_LOG_CACHE_MIN);
        // Tracking observed depth in the adaptive band.
        assert_eq!(spare_capacity_for(3), 3);
        assert_eq!(spare_capacity_for(9), 9);
        // Capped at the ceiling.
        assert_eq!(
            spare_capacity_for(SPARE_LOG_CACHE_MAX + 50),
            SPARE_LOG_CACHE_MAX
        );
    }

    #[test]
    fn retry_policy_backoff_stays_within_bounds() {
        let policy = RetryPolicy::default();
        let mut last_cap = Duration::ZERO;
        for retry in 0..10 {
            let cap = policy
                .base_delay
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.max_delay);
            let delay = policy.backoff_delay(retry);
            // Jittered into [cap/2, cap]: never zero, never past the cap.
            assert!(delay >= cap / 2, "retry {retry}: {delay:?} < {:?}", cap / 2);
            assert!(delay <= cap, "retry {retry}: {delay:?} > {cap:?}");
            assert!(cap >= last_cap, "backoff schedule must not shrink");
            last_cap = cap;
        }
    }

    #[test]
    fn retry_policy_retries_transient_until_success() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy {
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let result = policy.run(|_| {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::BrokenPipe, "flaky"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
    }

    #[test]
    fn retry_policy_fails_fast_on_non_transient_errors() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::PermissionDenied, "no"))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
    }

    #[test]
    fn retry_policy_exhausts_its_attempt_budget() {
        use std::io::{Error, ErrorKind};
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::ConnectionReset, "down"))
            })
            .unwrap_err();
        assert_eq!(calls, 4);
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn retry_policy_respects_its_deadline() {
        use std::io::{Error, ErrorKind};
        // Huge attempt budget but a deadline shorter than one backoff: the
        // policy must stop sleeping and return the last error. Run it on a
        // virtual clock — the whole schedule evaluates in logical time, so
        // the test cannot hang even if the deadline check regresses.
        let clock = Clock::simulated(7);
        let policy = RetryPolicy {
            max_attempts: 1_000,
            base_delay: Duration::from_secs(10),
            max_delay: Duration::from_secs(10),
            deadline: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
        .with_clock(clock.clone());
        let mut calls = 0u32;
        let err = policy
            .run(|_| -> std::io::Result<()> {
                calls += 1;
                Err(Error::new(ErrorKind::BrokenPipe, "down"))
            })
            .unwrap_err();
        assert!(calls < 3, "deadline should cut the schedule short");
        // The first backoff (≥ 5 s jittered) overshoots the 5 ms deadline,
        // so no sleep was ever taken: virtual time did not move.
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn retry_policy_jitter_replays_from_a_pinned_seed() {
        // Same seed ⇒ identical backoff sequences across instances; a
        // different seed diverges somewhere in the first few draws.
        let a = RetryPolicy::default().with_seed(42);
        let b = RetryPolicy::default().with_seed(42);
        let c = RetryPolicy::default().with_seed(43);
        let seq = |p: &RetryPolicy| (0..8).map(|r| p.backoff_delay(r)).collect::<Vec<_>>();
        let (sa, sb, sc) = (seq(&a), seq(&b), seq(&c));
        assert_eq!(sa, sb, "pinned seed must replay the jitter stream");
        assert_ne!(sa, sc, "distinct seeds should decorrelate");
        // Cloning resets the stream position but keeps the seed.
        assert_eq!(seq(&a.clone()), sa);
    }

    #[test]
    fn busy_frames_map_to_transient_connection_refused() {
        let err = unmatched_frame_error(puddles_proto::ResponseEnvelope {
            req_id: 0,
            resp: Response::Error {
                code: puddles_proto::ErrorCode::Busy,
                message: "cap".into(),
            },
        });
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        assert!(is_transient(&err));
        // Any other unmatched frame is a protocol violation, not retryable.
        let err = unmatched_frame_error(puddles_proto::ResponseEnvelope {
            req_id: 7,
            resp: Response::Ok,
        });
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!is_transient(&err));
    }

    mod pipelined {
        use super::*;
        use proptest::prelude::*;
        use puddles_proto::frame::FrameDecoder;
        use puddles_proto::{frame, RequestEnvelope, ResponseEnvelope};
        use std::io::{Read, Write};

        /// Concurrent pipelined callers on one connection.
        const CALLERS: usize = 8;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Whatever order the server completes requests in, and however
            /// the response bytes are split on the wire, every caller gets
            /// exactly the response carrying its own `req_id` (verified by
            /// echoing each request's pool name in its response).
            #[test]
            fn out_of_order_responses_resolve_to_their_waiters(
                plan in proptest::collection::vec((0u64..1_000_000, 1usize..48), CALLERS..CALLERS + 1)
            ) {
                // Per caller: a completion-order seed and a wire-split size.
                let cuts: Vec<usize> = plan.iter().map(|&(_, cut)| cut).collect();
                // Completion order: argsort of the random seeds.
                let mut order: Vec<usize> = (0..CALLERS).collect();
                order.sort_by_key(|&i| (plan[i].0, i));

                let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
                let conn = PipeConn::over_stream(client_sock).unwrap();

                // Fake daemon: gather every request, then answer them in
                // the permuted order, splitting the byte stream at the
                // arbitrary `cuts` boundaries.
                let server = std::thread::spawn(move || {
                    let mut dec = FrameDecoder::new();
                    let mut buf = [0u8; 4096];
                    let mut reqs: Vec<RequestEnvelope> = Vec::new();
                    while reqs.len() < CALLERS {
                        let n = server_sock.read(&mut buf).unwrap();
                        assert!(n > 0, "client hung up early");
                        dec.feed(&buf[..n]);
                        while let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                            reqs.push(env);
                        }
                    }
                    let mut bytes = Vec::new();
                    for &i in &order {
                        let env = &reqs[i];
                        let name = match &env.req {
                            Request::OpenPool { name } => name.clone(),
                            other => panic!("unexpected request {other:?}"),
                        };
                        let resp = ResponseEnvelope {
                            req_id: env.req_id,
                            resp: Response::Pool(PoolInfo {
                                name,
                                root_puddle: PuddleId(0),
                                puddles: Vec::new(),
                            }),
                        };
                        bytes.extend_from_slice(&frame::encode_frame(&resp).unwrap());
                    }
                    let mut pos = 0usize;
                    for &cut in &cuts {
                        if pos >= bytes.len() {
                            break;
                        }
                        let end = (pos + cut).min(bytes.len());
                        server_sock.write_all(&bytes[pos..end]).unwrap();
                        pos = end;
                    }
                    server_sock.write_all(&bytes[pos..]).unwrap();
                });

                let mut callers = Vec::new();
                for i in 0..CALLERS {
                    let conn = Arc::clone(&conn);
                    callers.push(std::thread::spawn(move || {
                        let resp = conn
                            .call(&Request::OpenPool {
                                name: format!("pool-{i}"),
                            })
                            .unwrap();
                        match resp {
                            Response::Pool(info) => {
                                assert_eq!(info.name, format!("pool-{i}"))
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }));
                }
                for caller in callers {
                    caller.join().unwrap();
                }
                server.join().unwrap();
                conn.close();
                let handle = conn.reader.lock().take();
                if let Some(handle) = handle {
                    let _ = handle.join();
                }
            }
        }

        /// A scripted daemon on a real socket: handshakes each connection,
        /// then follows per-request directives — answer, or drop the
        /// connection mid-pipeline (after reading the request, before
        /// responding — the window where the client cannot know whether
        /// the daemon applied it). Returns after `conns` connections.
        fn scripted_server(
            socket: std::path::PathBuf,
            conns: usize,
            create_pools_seen: Arc<std::sync::atomic::AtomicUsize>,
            drop_pings: usize,
        ) -> std::thread::JoinHandle<()> {
            use std::sync::atomic::Ordering;
            let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
            std::thread::spawn(move || {
                let mut pings_to_drop = drop_pings;
                for _ in 0..conns {
                    let (mut stream, _) = listener.accept().unwrap();
                    let mut dec = FrameDecoder::new();
                    let mut buf = [0u8; 4096];
                    'conn: loop {
                        let n = match stream.read(&mut buf) {
                            Ok(0) | Err(_) => break 'conn,
                            Ok(n) => n,
                        };
                        dec.feed(&buf[..n]);
                        while let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                            let resp = match &env.req {
                                Request::Hello { .. } => Response::Welcome {
                                    space_base: 0x5000_0000_0000,
                                    space_size: 1 << 30,
                                    max_in_flight: 64,
                                    pool_depth: 1,
                                },
                                Request::Ping if pings_to_drop > 0 => {
                                    pings_to_drop -= 1;
                                    break 'conn;
                                }
                                Request::Ping => Response::Ok,
                                Request::CreatePool { .. } => {
                                    create_pools_seen.fetch_add(1, Ordering::SeqCst);
                                    break 'conn;
                                }
                                other => panic!("unexpected request {other:?}"),
                            };
                            let env = ResponseEnvelope {
                                req_id: env.req_id,
                                resp,
                            };
                            stream
                                .write_all(&frame::encode_frame(&env).unwrap())
                                .unwrap();
                        }
                    }
                }
            })
        }

        fn fast_retry() -> RetryPolicy {
            RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_millis(2),
                deadline: Duration::from_secs(2),
                ..RetryPolicy::default()
            }
        }

        /// A non-idempotent request whose connection dies mid-pipeline is
        /// NEVER blindly re-sent: the daemon may already have applied it,
        /// and a re-send could create the pool twice (or re-free a
        /// puddle). The error surfaces to the caller instead — and the
        /// endpoint still reconnects fine for the *next* call.
        #[test]
        fn non_idempotent_requests_are_not_resent_after_a_mid_pipeline_drop() {
            use std::sync::atomic::Ordering;
            let tmp = tempfile::tempdir().unwrap();
            let socket = tmp.path().join("scripted.sock");
            let creates = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 0);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            let err = ep
                .call(&Request::CreatePool {
                    name: "once".into(),
                    root_size: 4096,
                    mode: 0o600,
                })
                .unwrap_err();
            assert!(is_transient(&err), "drop should surface as transport loss");
            // The endpoint recovers on a fresh connection for idempotent
            // work...
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            // ...but the create was sent exactly once, ever.
            assert_eq!(creates.load(Ordering::SeqCst), 1);
            drop(ep);
            server.join().unwrap();
        }

        /// Idempotent requests lost mid-pipeline ARE re-sent on a fresh
        /// connection under the backoff policy, invisibly to the caller.
        #[test]
        fn idempotent_requests_are_resent_after_a_mid_pipeline_drop() {
            let tmp = tempfile::tempdir().unwrap();
            let socket = tmp.path().join("scripted.sock");
            let creates = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let server = scripted_server(socket.clone(), 2, Arc::clone(&creates), 1);

            let ep = PipelinedEndpoint::new(&socket, fast_retry());
            // First Ping's connection is dropped mid-pipeline; the retry
            // plane re-dials and re-sends without the caller noticing.
            assert!(matches!(ep.call(&Request::Ping), Ok(Response::Ok)));
            drop(ep);
            server.join().unwrap();
        }

        /// A response whose id matches no waiter is a protocol violation:
        /// the connection dies and parked callers fail instead of hanging.
        #[test]
        fn unknown_req_id_kills_the_connection() {
            let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
            let conn = PipeConn::over_stream(client_sock).unwrap();
            let server = std::thread::spawn(move || {
                let mut dec = FrameDecoder::new();
                let mut buf = [0u8; 4096];
                let env = loop {
                    let n = server_sock.read(&mut buf).unwrap();
                    dec.feed(&buf[..n]);
                    if let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                        break env;
                    }
                };
                let resp = ResponseEnvelope {
                    req_id: env.req_id.wrapping_add(1000),
                    resp: Response::Ok,
                };
                server_sock
                    .write_all(&frame::encode_frame(&resp).unwrap())
                    .unwrap();
                server_sock
            });
            let err = conn.call(&Request::Ping).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(conn.is_dead());
            drop(server.join().unwrap());
            let handle = conn.reader.lock().take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }

        /// Callers racing the reader's death never park. The reader dies on
        /// a protocol violation while the peer keeps its socket open, so a
        /// caller's write still succeeds: a waiter inserted after
        /// `fail_all`'s drain would never be filled. Every call on the dying
        /// connection must return an error, within a watchdog bound.
        #[test]
        fn callers_racing_a_dying_reader_never_hang() {
            const ROUNDS: usize = 200;
            const CALLS_PER_CALLER: usize = 50;
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let (client_sock, mut server_sock) = UnixStream::pair().unwrap();
                    let conn = PipeConn::over_stream(client_sock).unwrap();
                    // Fake daemon: answers the first request under an id
                    // nobody sent, then keeps reading (and the socket
                    // open) until the client closes.
                    let server = std::thread::spawn(move || {
                        let mut dec = FrameDecoder::new();
                        let mut buf = [0u8; 4096];
                        let mut answered = false;
                        while let Ok(n @ 1..) = server_sock.read(&mut buf) {
                            if answered {
                                continue;
                            }
                            dec.feed(&buf[..n]);
                            if let Some(env) = dec.next_frame::<RequestEnvelope>().unwrap() {
                                let resp = ResponseEnvelope {
                                    req_id: env.req_id.wrapping_add(1000),
                                    resp: Response::Ok,
                                };
                                server_sock
                                    .write_all(&frame::encode_frame(&resp).unwrap())
                                    .unwrap();
                                answered = true;
                            }
                        }
                    });
                    let callers: Vec<_> = (0..CALLERS)
                        .map(|_| {
                            let conn = Arc::clone(&conn);
                            std::thread::spawn(move || {
                                for _ in 0..CALLS_PER_CALLER {
                                    assert!(conn.call(&Request::Ping).is_err());
                                }
                            })
                        })
                        .collect();
                    for caller in callers {
                        caller.join().unwrap();
                    }
                    conn.close();
                    let handle = conn.reader.lock().take();
                    if let Some(handle) = handle {
                        let _ = handle.join();
                    }
                    server.join().unwrap();
                }
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a caller hung (or failed) on a connection whose reader died");
        }
    }
}
