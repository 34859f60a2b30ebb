//! `sensor_ship`: the paper's relocation showcase (Fig. 14).
//!
//! Set-up has sensor daemons build and export a `SensorState` each. One op
//! imports one export into the home daemon (puddle copy, WAL commit,
//! client-side pointer rewrite), merges it into the home state and drops
//! the imported pool. One caller thread drives the home daemon through a
//! UDS client: with two, their imports queued behind each other's merges
//! on a 2-vCPU host, and the import tail measured the scheduler.

use crate::harness::{self, Cfg, DirGuard, Home, Outcome, Ran, Timing, Worker};
use crate::probes::{shipped_state, SHIP_VARS};
use crate::trace::Tracer;
use pm_datastructures::sensor::SensorState;
use puddled::{Daemon, DaemonConfig};
use puddles::PuddleClient;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

struct Size {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    nodes: usize,
    vars: u64,
    ops: usize,
    warmup: u64,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            setup_reps: 2,
            nodes: 2,
            vars: 50,
            ops: 64,
            warmup: 2,
        }
    } else {
        Size {
            setup_reps: 9,
            nodes: 8,
            vars: SHIP_VARS,
            ops: 4096,
            warmup: 100,
        }
    }
}

struct Shipped {
    exports: Vec<PathBuf>,
    _export_dir: DirGuard,
    /// Per node, each variable's value by id.
    values: Vec<Vec<u64>>,
    /// The home state every op merges into.
    state: SensorState,
    home: Home,
}

/// Builds node `n`'s state on a daemon of its own, exports it into `dir`
/// and returns its values by id.
fn build_node(dir: &std::path::Path, n: usize, vars: u64) -> Result<Vec<u64>, String> {
    let err = |e: puddles::Error| format!("sensor {n}: {e}");
    let pm = dir.join(format!("sensor-{n}"));
    let daemon = Daemon::start(DaemonConfig::for_testing(&pm)).map_err(|e| format!("{e:?}"))?;
    let client = PuddleClient::connect_local(&daemon).map_err(err)?;
    let state = shipped_state(&client, "state", vars).map_err(err)?;
    state.observe(n as u64 + 1).map_err(err)?;
    state.export(dir.join(format!("node-{n}"))).map_err(err)?;
    let mut values = vec![0; vars as usize];
    for (id, v) in state.snapshot() {
        values[id as usize] = v;
    }
    drop((state, client, daemon));
    let _ = std::fs::remove_dir_all(&pm);
    Ok(values)
}

struct ShipWorker<'a> {
    s: &'a Shipped,
    client: PuddleClient,
    nodes: Vec<usize>,
    names: Vec<String>,
    /// Merges that committed, per node.
    merged: Vec<u64>,
    next: usize,
    op: u64,
}

impl Worker for ShipWorker<'_> {
    fn op(&mut self, t: &mut Tracer) -> Outcome {
        let i = self.next;
        self.next = (self.next + 1) % self.nodes.len();
        self.op += 1;
        let (node, name) = (self.nodes[i], &self.names[i]);
        let c = &self.client;
        t.root("ship.op", self.op, |t| {
            let t0 = Instant::now();
            let import = t.span("core.client.import_pool", |_| {
                c.import_pool(&self.s.exports[node], name)
            });
            let import_ns = t0.elapsed().as_nanos() as u64;
            let pool = match import {
                Ok(pool) => pool,
                Err(e) => return Outcome::Failed(format!("import {name}: {e}")),
            };
            let imported = SensorState::open(c, pool);
            let t1 = Instant::now();
            let merged = t
                .span("sensor.merge", |_| self.s.state.aggregate_from(&imported))
                .map(|()| t1.elapsed().as_nanos() as u64);
            t.span("core.pool.drop", |_| drop(imported));
            let merge_ns = match merged {
                Ok(ns) => ns,
                Err(e) => {
                    let _ = c.drop_pool(name);
                    return Outcome::Failed(format!("merge {name}: {e}"));
                }
            };
            self.merged[node] += 1;
            match t.span("core.client.drop_pool", |_| c.drop_pool(name)) {
                Ok(()) => Outcome::Ok(Timing::Parts([import_ns, merge_ns])),
                Err(e) => Outcome::Failed(format!("drop {name}: {e}")),
            }
        })
    }
}

pub fn run(cfg: &Cfg) -> Result<Ran, String> {
    let sz = size(cfg.tiny);
    let (shipped, setup_s) = harness::repeat_setup(sz.setup_reps, |rep| {
        let dir = cfg.dir.join(format!("setup-{rep}"));
        let export_dir = DirGuard(dir.join("exports"));
        let values = (0..sz.nodes)
            .map(|n| build_node(&export_dir.0, n, sz.vars))
            .collect::<Result<Vec<_>, _>>()?;
        let home = Home::start(&dir.join("home"))?;
        let state = SensorState::create(home.client(), "home", sz.vars)
            .map_err(|e| format!("home state: {e}"))?;
        let exports = (0..sz.nodes)
            .map(|n| export_dir.0.join(format!("node-{n}")))
            .collect();
        Ok(Shipped {
            exports,
            _export_dir: export_dir,
            values,
            state,
            home,
        })
    })?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut workers = [ShipWorker {
        s: &shipped,
        client: shipped.home.client().clone(),
        nodes: (0..sz.ops).map(|_| rng.gen_range(0..sz.nodes)).collect(),
        names: (0..sz.ops).map(|j| format!("ship-{j}")).collect(),
        merged: vec![0; sz.nodes],
        next: 0,
        op: 0,
    }];
    let kit = cfg.kit(&shipped.home)?;
    let driven = harness::drive(&mut workers, &cfg.phases(sz.warmup), kit.as_ref(), || {
        shipped.home.snap()
    });
    // The home totals are the sum of every merged node's observations.
    let merged: Vec<u64> = (0..sz.nodes)
        .map(|n| workers.iter().map(|w| w.merged[n]).sum())
        .collect();
    let mut post_errors = Vec::new();
    let snapshot = shipped.state.snapshot();
    if snapshot.len() as u64 != sz.vars {
        post_errors.push(format!("home has {} vars, not {}", snapshot.len(), sz.vars));
    }
    for (id, got) in snapshot {
        let want: u64 = (0..sz.nodes)
            .map(|n| merged[n] * shipped.values[n][id as usize])
            .sum();
        if got != want && post_errors.len() < 5 {
            post_errors.push(format!("home var {id}: {got} != {want}"));
        }
    }
    Ok(Ran {
        setup_s,
        driven,
        post_errors,
        kit_facts: kit.map(|k| k.facts()),
    })
}
