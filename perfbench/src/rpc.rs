//! `pool_rpc`: pool RPCs from one caller thread over a UDS client.
//!
//! 80% open a random preloaded pool, read its root and drop the handle
//! (OpenPool + GetPuddle + mmap/munmap); 20% create a fresh pool and drop
//! it (WAL group commit + space allocator), interleaved. Nearly all
//! transport, reactor/worker handoff and WAL; no transactions. One caller,
//! because a second one on a 2-vCPU host queues behind the first and the
//! daemon's threads, so its latencies measured the host's scheduler.

use crate::harness::{self, Cfg, Class, Home, Outcome, Ran, Timing, Worker};
use crate::trace::Tracer;
use puddles::{impl_pm_type, PoolOptions, PuddleClient};
use rand::{Rng, SeedableRng};

/// The root object of every preloaded pool.
#[repr(C)]
pub struct RootTag {
    index: u64,
    tag: u64,
}
impl_pm_type!(RootTag, "perfbench::RootTag", []);

const OPEN_SHARE: f64 = 0.8;

struct Size {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    pools: usize,
    ops: usize,
    warmup: u64,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            setup_reps: 2,
            pools: 4,
            ops: 200,
            warmup: 10,
        }
    } else {
        Size {
            setup_reps: 21,
            pools: 64,
            ops: 100_000,
            warmup: 2_000,
        }
    }
}

fn options() -> PoolOptions {
    PoolOptions::default().puddle_size(1 << 20)
}

enum RpcOp {
    Open(usize),
    CreateDrop(String),
}

struct Preloaded {
    names: Vec<String>,
    tags: Vec<u64>,
    home: Home,
}

struct RpcWorker<'a> {
    client: PuddleClient,
    pre: &'a Preloaded,
    ops: Vec<RpcOp>,
    next: usize,
    op: u64,
}

impl Worker for RpcWorker<'_> {
    fn op(&mut self, t: &mut Tracer) -> Outcome {
        let i = self.next;
        self.next = (self.next + 1) % self.ops.len();
        self.op += 1;
        let c = &self.client;
        match &self.ops[i] {
            RpcOp::Open(p) => t.root("rpc.open", self.op, |t| {
                let name = &self.pre.names[*p];
                let pool = match t.span("core.client.open_pool", |_| c.open_pool(name)) {
                    Ok(pool) => pool,
                    Err(e) => return Outcome::Failed(format!("open {name}: {e}")),
                };
                let got = pool
                    .root::<RootTag>()
                    .and_then(|r| pool.deref(r).ok().map(|r| (r.index, r.tag)));
                t.span("core.pool.drop", |_| drop(pool));
                if got == Some((*p as u64, self.pre.tags[*p])) {
                    Outcome::Ok(Timing::Whole(Class::A))
                } else {
                    Outcome::Wrong(format!("open {name}: root {got:?}"))
                }
            }),
            RpcOp::CreateDrop(name) => t.root("rpc.create_drop", self.op, |t| {
                let pool = match t.span("core.client.create_pool", |_| {
                    c.create_pool(name, options())
                }) {
                    Ok(pool) => pool,
                    Err(e) => return Outcome::Failed(format!("create {name}: {e}")),
                };
                t.span("core.pool.drop", |_| drop(pool));
                match t.span("core.client.drop_pool", |_| c.drop_pool(name)) {
                    Ok(()) => Outcome::Ok(Timing::Whole(Class::B)),
                    Err(e) => Outcome::Failed(format!("drop {name}: {e}")),
                }
            }),
        }
    }
}

pub fn run(cfg: &Cfg) -> Result<Ran, String> {
    let sz = size(cfg.tiny);
    let (pre, setup_s) = harness::repeat_setup(sz.setup_reps, |rep| {
        let home = Home::start(&cfg.dir.join(format!("setup-{rep}")))?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut names = Vec::with_capacity(sz.pools);
        let mut tags = Vec::with_capacity(sz.pools);
        for i in 0..sz.pools {
            let name = format!("pool-{i:05}");
            let tag: u64 = rng.gen();
            let pool = home
                .client()
                .create_pool(&name, options())
                .map_err(|e| format!("create {name}: {e}"))?;
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    RootTag {
                        index: i as u64,
                        tag,
                    },
                )
            })
            .map_err(|e| format!("root {name}: {e}"))?;
            names.push(name);
            tags.push(tag);
        }
        Ok(Preloaded { names, tags, home })
    })?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(!cfg.seed);
    let mut workers = [RpcWorker {
        client: pre.home.client().clone(),
        pre: &pre,
        ops: (0..sz.ops)
            .map(|j| {
                if rng.gen::<f64>() < OPEN_SHARE {
                    RpcOp::Open(rng.gen_range(0..sz.pools))
                } else {
                    RpcOp::CreateDrop(format!("fresh-{j}"))
                }
            })
            .collect(),
        next: 0,
        op: 0,
    }];
    let kit = cfg.kit(&pre.home)?;
    let driven = harness::drive(&mut workers, &cfg.phases(sz.warmup), kit.as_ref(), || {
        pre.home.snap()
    });
    // Every create was dropped again: pool and puddle counts are back where
    // the first timed window started.
    let mut post_errors = Vec::new();
    let windows: Vec<_> = driven
        .phases
        .iter()
        .filter(|p| p.before.is_some())
        .collect();
    if let (Some(first), Some(last)) = (windows.first(), windows.last()) {
        let (b, a) = (
            &first.before.as_ref().expect("timed").stats,
            &last.after.as_ref().expect("timed").stats,
        );
        if (a.pools, a.puddles) != (b.pools, b.puddles) {
            post_errors.push(format!(
                "leak: pools {} -> {}, puddles {} -> {}",
                b.pools, a.pools, b.puddles, a.puddles
            ));
        }
    }
    Ok(Ran {
        setup_s,
        driven,
        post_errors,
        kit_facts: kit.map(|k| k.facts()),
    })
}
