//! `kv_ycsb_a`: `PuddlesKv` under YCSB-A from one caller thread.
//!
//! Every update is a transaction commit (undo-log append, flush, fence)
//! and every read walks native pointers, with almost no daemon round
//! trips. One caller, because `PuddlesKv::put` takes no bucket lock.

use crate::harness::{self, Cfg, Class, Home, Outcome, Ran, Timing, Worker};
use crate::trace::Tracer;
use pm_datastructures::kv::{value_for, PuddlesKv, Value};
use ycsb::{Operation, Request, Workload};

struct Size {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    records: u64,
    requests: usize,
    warmup: u64,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            setup_reps: 2,
            records: 2_000,
            requests: 5_000,
            warmup: 100,
        }
    } else {
        // 1M records of ~80 B: ~80 MB of entries, 20x a 4 MiB L2, and
        // bucket chains ~15 deep over the store's 65,536 buckets.
        Size {
            setup_reps: 3,
            records: 1_000_000,
            requests: 1_000_000,
            warmup: 50_000,
        }
    }
}

struct Loaded {
    kv: PuddlesKv,
    home: Home,
}

struct KvWorker<'a> {
    kv: &'a PuddlesKv,
    reqs: &'a [Request],
    /// The tag last written for each key (`value_for(key, tag)`).
    shadow: Vec<u8>,
    next: usize,
    op: u64,
}

fn check(key: u64, got: Option<Value>, tag: u8) -> Result<(), String> {
    match got {
        Some(v) if v == value_for(key, tag) => Ok(()),
        Some(v) => Err(format!(
            "key {key}: read tag {} (key bytes {:?}), expected tag {tag}",
            v[8],
            &v[..8]
        )),
        None => Err(format!("key {key}: missing")),
    }
}

impl Worker for KvWorker<'_> {
    fn op(&mut self, t: &mut Tracer) -> Outcome {
        let req = self.reqs[self.next];
        self.next = (self.next + 1) % self.reqs.len();
        self.op += 1;
        let key = req.key;
        t.root("kv.execute", self.op, |t| match req.op {
            Operation::Read => {
                let got = t.span("datastructures.kv.get", |_| self.kv.get(key));
                match check(key, got, self.shadow[key as usize]) {
                    Ok(()) => Outcome::Ok(Timing::Whole(Class::A)),
                    Err(e) => Outcome::Wrong(e),
                }
            }
            _ => {
                let tag = self.shadow[key as usize].wrapping_add(1);
                let value = value_for(key, tag);
                match t.span("datastructures.kv.put", |_| self.kv.put(key, &value)) {
                    Ok(()) => {
                        self.shadow[key as usize] = tag;
                        Outcome::Ok(Timing::Whole(Class::B))
                    }
                    Err(e) => Outcome::Failed(format!("put {key}: {e}")),
                }
            }
        })
    }
}

pub fn run(cfg: &Cfg) -> Result<Ran, String> {
    let sz = size(cfg.tiny);
    let (loaded, setup_s) = harness::repeat_setup(sz.setup_reps, |rep| {
        let home = Home::start(&cfg.dir.join(format!("setup-{rep}")))?;
        let kv = PuddlesKv::new(home.client(), "kv").map_err(|e| format!("kv: {e}"))?;
        for k in 0..sz.records {
            kv.put(k, &value_for(k, 0))
                .map_err(|e| format!("load {k}: {e}"))?;
        }
        Ok(Loaded { kv, home })
    })?;
    let reqs = Workload::A.generate(sz.records, sz.requests, cfg.seed);
    let kit = cfg.kit(&loaded.home)?;
    let mut workers = [KvWorker {
        kv: &loaded.kv,
        reqs: &reqs,
        shadow: vec![0; sz.records as usize],
        next: 0,
        op: 0,
    }];
    let driven = harness::drive(&mut workers, &cfg.phases(sz.warmup), kit.as_ref(), || {
        loaded.home.snap()
    });
    // Every key, read back after the window, must hold its last write.
    let shadow = &workers[0].shadow;
    let mut post_errors: Vec<String> = (0..sz.records)
        .filter_map(|k| check(k, loaded.kv.get(k), shadow[k as usize]).err())
        .take(5)
        .collect();
    if loaded.kv.len() != sz.records {
        post_errors.push(format!("len {} != {}", loaded.kv.len(), sz.records));
    }
    Ok(Ran {
        setup_s,
        driven,
        post_errors,
        kit_facts: kit.map(|k| k.facts()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_must_match_the_last_tag_written() {
        assert!(check(5, Some(value_for(5, 2)), 2).is_ok());
        assert!(check(5, Some(value_for(5, 1)), 2).is_err());
        assert!(check(5, Some(value_for(6, 2)), 2).is_err());
        assert!(check(5, None, 0).is_err());
    }
}
