//! Probes: small, fixed calls into one layer each, interleaved with a
//! traced run's workload ops so every layer is timed on every workload.
//!
//! Light probes (one primitive each) run about once per 100 ops, and at
//! least once per millisecond on workloads whose ops are slow. Heavy
//! probes (a whole pool open, create or import) run on caller thread 0 a
//! few times a second.

use crate::trace::Tracer;
use pm_datastructures::sensor::SensorState;
use puddles::{impl_pm_type, PmPtr, Pool, PoolOptions, PuddleClient};
use puddles_logfmt::{EntryKind, LogRef, LogWriter, ReplayOrder, SEQ_UNDO};
use puddles_proto::frame::{decode_frame, encode_frame};
use puddles_proto::{
    PoolInfo, PuddleId, PuddleInfo, PuddlePurpose, Request, RequestEnvelope, Response,
    ResponseEnvelope, ServerFrame, Translation,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Calls timed together in one batched probe sample (persist, append),
/// so the clock's own cost does not swamp a sub-100 ns primitive.
pub const BATCH: u64 = 16;
/// Ops between light probes.
pub const LIGHT_EVERY_OPS: u64 = 100;
/// Longest gap between light probes.
pub const LIGHT_EVERY: Duration = Duration::from_millis(1);
/// Gap between heavy probes on thread 0.
pub const HEAVY_EVERY: Duration = Duration::from_millis(100);
/// Most caller threads a kit serves (one probe line each).
pub const MAX_THREADS: usize = 8;
/// Request kinds whose codec cost and daemon service time are reported.
pub const KINDS: [&str; 6] = [
    "Ping",
    "OpenPool",
    "GetPuddle",
    "CreatePool",
    "DropPool",
    "ImportPool",
];
/// Variables in every shipped sensor state (workload and probe alike).
pub const SHIP_VARS: u64 = 2000;
/// Puddle size of every shipped sensor state.
pub const SHIP_PUDDLE: u64 = 1 << 20;

/// Creates a sensor state for shipping: its pool is created first with
/// [`SHIP_PUDDLE`]-byte puddles, and `SensorState::create` then fills it.
pub fn shipped_state(client: &PuddleClient, name: &str, vars: u64) -> puddles::Result<SensorState> {
    drop(client.create_pool(name, PoolOptions::default().puddle_size(SHIP_PUDDLE))?);
    SensorState::create(client, name, vars)
}

const LIGHT: [&str; 5] = [
    "core.tx.nop",
    "core.tx.add64",
    "logfmt.append64",
    "pmem.persist64",
    "core.client.ping",
];
/// Light probe slots in one rotation: the five above plus one per codec.
pub const LIGHT_KINDS: usize = LIGHT.len() + KINDS.len();
const CODEC_SPANS: [&str; 6] = [
    "proto.codec.Ping",
    "proto.codec.OpenPool",
    "proto.codec.GetPuddle",
    "proto.codec.CreatePool",
    "proto.codec.DropPool",
    "proto.codec.ImportPool",
];

/// The 64-byte object a caller thread's `Transaction::add` probe logs.
#[repr(C)]
pub struct ProbeLine([u64; 8]);
impl_pm_type!(ProbeLine, "perfbench::ProbeLine", []);

const TX_POOL: &str = "probe.tx";
const OPEN_POOL: &str = "probe.open";
const EXPORTED: &str = "probe.exported";

/// Sizes the per-layer import ratios are computed from.
pub struct KitFacts {
    /// Bytes in one export directory: what an import copies.
    pub export_bytes: u64,
    /// Bytes of live state in it: the sensor variables.
    pub live_bytes: u64,
}

/// Shared probe targets, set up once per traced run.
pub struct ProbeKit {
    client: PuddleClient,
    export_bytes: u64,
    pool: Pool,
    /// One object per caller thread, so no two threads write one object.
    lines: Vec<PmPtr<ProbeLine>>,
    home: SensorState,
    export_dir: PathBuf,
    codecs: Vec<(Request, Response)>,
}

impl ProbeKit {
    pub fn setup(client: &PuddleClient, dir: &Path) -> puddles::Result<ProbeKit> {
        let small = PoolOptions::default().puddle_size(1 << 20);
        let pool = client.create_pool(TX_POOL, small.clone())?;
        let lines = pool.tx(|tx| {
            (0..MAX_THREADS)
                .map(|_| pool.alloc_value(tx, ProbeLine([0; 8])))
                .collect::<puddles::Result<Vec<_>>>()
        })?;
        drop(client.create_pool(OPEN_POOL, small)?);
        // The shipped state is exported from this daemon and re-imported
        // into it, so the probe needs no second daemon.
        let shipped = shipped_state(client, EXPORTED, SHIP_VARS)?;
        shipped.observe(1)?;
        let export_dir = dir.join("probe-export");
        shipped.export(&export_dir)?;
        drop(shipped);
        client.drop_pool(EXPORTED)?;
        let home = SensorState::create(client, "probe.home", SHIP_VARS)?;
        let export_bytes = dir_bytes(&export_dir)?;
        Ok(ProbeKit {
            client: client.clone(),
            export_bytes,
            pool,
            lines,
            home,
            export_dir,
            codecs: codec_samples(dir),
        })
    }

    pub fn facts(&self) -> KitFacts {
        KitFacts {
            export_bytes: self.export_bytes,
            live_bytes: SHIP_VARS
                * std::mem::size_of::<pm_datastructures::sensor::StateVar>() as u64,
        }
    }

    /// Runs light probe `k` (of [`LIGHT_KINDS`]) as its own root span.
    pub fn light(&self, st: &mut ProbeState, t: &mut Tracer, k: usize) -> puddles::Result<()> {
        if k >= LIGHT.len() {
            let (req, resp) = &self.codecs[k - LIGHT.len()];
            return t.probe(CODEC_SPANS[k - LIGHT.len()], st.next_op(), |_| {
                codec(req, resp)
            });
        }
        let op = st.next_op();
        match k {
            0 => t.probe(LIGHT[0], op, |_| self.client.tx(|_| Ok(()))),
            1 => {
                let line = self.pool.deref_mut(self.lines[st.thread])?;
                t.probe(LIGHT[1], op, |_| {
                    self.client.tx(|tx| {
                        tx.add(&*line)?;
                        line.0[0] = line.0[0].wrapping_add(1);
                        Ok(())
                    })
                })
            }
            2 => {
                t.probe(LIGHT[2], op, |_| st.append_batch());
                Ok(())
            }
            3 => {
                t.probe(LIGHT[3], op, |_| st.persist_batch());
                Ok(())
            }
            _ => t.probe(LIGHT[4], op, |_| self.client.ping()),
        }
    }

    /// Runs heavy probe `k` (of 3) as its own root span with one child per
    /// client call.
    pub fn heavy(&self, st: &mut ProbeState, t: &mut Tracer, k: usize) -> puddles::Result<()> {
        let op = st.next_op();
        let c = &self.client;
        match k % 3 {
            0 => t.probe("probe.open_drop", op, |t| {
                let pool = t.span("core.client.open_pool", |_| c.open_pool(OPEN_POOL))?;
                t.span("core.pool.drop", |_| drop(pool));
                Ok(())
            }),
            1 => t.probe("probe.create_drop", op, |t| {
                let name = format!("probe.cd.{op}");
                let opts = PoolOptions::default().puddle_size(1 << 20);
                let pool = t.span("core.client.create_pool", |_| c.create_pool(&name, opts))?;
                t.span("core.pool.drop", |_| drop(pool));
                t.span("core.client.drop_pool", |_| c.drop_pool(&name))
            }),
            _ => t.probe("probe.ship", op, |t| {
                let name = format!("probe.ship.{op}");
                let pool = t.span("core.client.import_pool", |_| {
                    c.import_pool(&self.export_dir, &name)
                })?;
                let state = SensorState::open(c, pool);
                t.span("sensor.merge", |_| self.home.aggregate_from(&state))?;
                t.span("core.pool.drop", |_| drop(state));
                t.span("core.client.drop_pool", |_| c.drop_pool(&name))
            }),
        }
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Encodes and decodes one request and its response the way the wire
/// does: the daemon decodes a request envelope, the client a server frame.
fn codec(req: &Request, resp: &Response) -> puddles::Result<()> {
    let env = RequestEnvelope {
        req_id: 7,
        req: req.clone(),
    };
    let bytes = encode_frame(&env)?;
    let back: RequestEnvelope = decode_frame(&bytes[4..])?;
    let env = ResponseEnvelope {
        req_id: back.req_id,
        resp: resp.clone(),
    };
    let bytes = encode_frame(&env)?;
    let back: ServerFrame = decode_frame(&bytes[4..])?;
    std::hint::black_box(back);
    Ok(())
}

/// Requests and responses shaped like the ones the workloads send, one per
/// entry of [`KINDS`].
fn codec_samples(dir: &Path) -> Vec<(Request, Response)> {
    let id = PuddleId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
    let pool = PoolInfo {
        name: "pool-00042".into(),
        root_puddle: id,
        puddles: vec![id],
    };
    let puddle = PuddleInfo {
        id,
        size: 1 << 20,
        assigned_addr: 0x5100_0040_0000,
        path: dir
            .join("pm/puddles")
            .join(id.to_hex())
            .to_string_lossy()
            .into_owned(),
        purpose: PuddlePurpose::Data,
        owner_uid: 1000,
        owner_gid: 1000,
        mode: 0o600,
        needs_rewrite: false,
        writable: true,
    };
    let welcome = Response::Welcome {
        space_base: 0x5100_0000_0000,
        space_size: 8 << 30,
        max_in_flight: 64,
        pool_depth: 2,
    };
    vec![
        (Request::Ping, welcome),
        (
            Request::OpenPool {
                name: pool.name.clone(),
            },
            Response::Pool(pool.clone()),
        ),
        (
            Request::GetPuddle { id, writable: true },
            Response::Puddle(puddle),
        ),
        (
            Request::CreatePool {
                name: pool.name.clone(),
                root_size: 1 << 20,
                mode: 0o600,
            },
            Response::Pool(pool.clone()),
        ),
        (
            Request::DropPool {
                name: pool.name.clone(),
            },
            Response::Ok,
        ),
        (
            Request::ImportPool {
                src: dir.join("exports/node-3").to_string_lossy().into_owned(),
                new_name: "ship-000042".into(),
            },
            Response::Imported {
                pool,
                translations: vec![Translation {
                    old_addr: 0x5100_0040_0000,
                    new_addr: 0x5340_0040_0000,
                    len: 8 << 20,
                }],
            },
        ),
    ]
}

/// Per-thread probe state: a private log for the append probe and a
/// private line for the persist probe.
pub struct ProbeState {
    pub thread: usize,
    op: u64,
    /// Backing memory of `writer`; never resized while the writer lives.
    _log_mem: Vec<u64>,
    writer: LogWriter,
    line: Box<Line>,
    pub light_next: usize,
    pub heavy_next: usize,
    pub last_light: Instant,
    pub ops_since_light: u64,
    pub next_heavy: Instant,
}

const LOG_BYTES: usize = 1 << 20;

/// Exactly one cache line.
#[repr(C, align(64))]
struct Line([u64; 8]);

impl ProbeState {
    pub fn new(thread: usize) -> ProbeState {
        assert!(
            thread < MAX_THREADS,
            "probe kit serves {MAX_THREADS} threads"
        );
        let mut mem = vec![0u64; LOG_BYTES / 8];
        // SAFETY: `mem` is a heap allocation of LOG_BYTES bytes that this
        // struct owns for the writer's whole life and never touches
        // otherwise; moving the Vec does not move its buffer.
        let log = unsafe { LogRef::from_raw(mem.as_mut_ptr() as *mut u8, LOG_BYTES) };
        log.init();
        let writer = LogWriter::begin(log).expect("freshly initialized log");
        let now = Instant::now();
        ProbeState {
            thread,
            op: (thread as u64) << 48,
            _log_mem: mem,
            writer,
            line: Box::new(Line([0; 8])),
            light_next: 0,
            heavy_next: 0,
            last_light: now,
            ops_since_light: 0,
            next_heavy: now,
        }
    }

    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// [`BATCH`] 64-byte undo entries appended back to back.
    fn append_batch(&mut self) {
        let data = [0xA5u8; 64];
        for i in 0..BATCH {
            let addr = 0x1000 + i * 64;
            if self
                .writer
                .append(addr, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &data)
                .is_err()
            {
                // Full: start the log over, as a committed transaction does.
                self.writer.reset();
                self.writer
                    .append(addr, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &data)
                    .expect("append into an emptied 1 MiB log");
            }
        }
    }

    /// [`BATCH`] rounds of store + one-line flush + fence.
    fn persist_batch(&mut self) {
        for i in 0..BATCH {
            self.line.0[0] = i;
            puddles_pmem::persist::persist(self.line.0.as_ptr() as *const u8, 64);
        }
    }
}
