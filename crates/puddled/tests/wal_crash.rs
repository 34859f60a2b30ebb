//! Crash-injection tests for the metadata WAL: each test arms a crash point
//! on the fault plan of the PM directory it opens.
//!
//! Follows the black-box consistency-checking discipline of the paper's
//! correctness evaluation (§5.1) — and of Biswas et al.'s snapshot-isolation
//! checking: inject a crash at a chosen persistence boundary, restart the
//! daemon from the on-disk state alone, and assert the recovered registry
//! satisfies its invariants (and, where the scenario pins it down, equals
//! the exact pre-crash state).

use puddled::registry::{PoolRecord, PuddleRecord, Registry, RegistryData};
use puddled::{Daemon, DaemonConfig};
use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, PAGE_SIZE};
use puddles_proto::{PuddleId, PuddlePurpose};
use std::sync::{Arc, Mutex};

/// A PM directory whose fault plan injects nothing until a test arms one of
/// its crash points.
fn crashable_pm_dir(path: &std::path::Path) -> (PmDir, Arc<FaultPlan>) {
    let plan = FaultPlan::new(0, FaultProfile::default());
    let pm = PmDir::open(path)
        .unwrap()
        .with_fault_plan(Arc::clone(&plan));
    (pm, plan)
}

fn open_registry(pm: &PmDir) -> Registry {
    Registry::load_or_create(pm, 0x5000_0000_0000, 1 << 30).unwrap()
}

fn record(reg: &Registry, pool: Option<&str>) -> PuddleRecord {
    let id = reg.fresh_id();
    let offset = reg.alloc_space(PAGE_SIZE as u64).unwrap();
    PuddleRecord {
        id,
        size: PAGE_SIZE as u64,
        offset,
        file: id.to_hex(),
        purpose: PuddlePurpose::Data,
        owner_uid: 1,
        owner_gid: 2,
        mode: 0o600,
        pool: pool.map(String::from),
        needs_rewrite: false,
        translations: vec![],
    }
}

/// Creates a pool named `name` with a root and `members - 1` extra member
/// puddles, mirroring how the daemon builds pools.
fn build_pool(reg: &Registry, name: &str, members: usize) -> Vec<PuddleId> {
    let root = record(reg, Some(name));
    let root_id = root.id;
    assert!(reg.try_insert_pool(PoolRecord {
        name: name.into(),
        root: root_id,
        puddles: Vec::new(),
    }));
    reg.register_puddle(root).unwrap();
    let mut ids = vec![root_id];
    for _ in 1..members {
        let rec = record(reg, Some(name));
        ids.push(rec.id);
        reg.register_puddle(rec).unwrap();
    }
    ids
}

/// Structural invariants every recovered registry must satisfy — the shared
/// [`puddled::Invariants`] layer also used by `crash_sweep` and the torture
/// harness.
fn assert_consistent(data: &RegistryData) {
    puddled::Invariants::assert_data(data);
}

#[test]
fn recovery_roundtrips_a_registry_bit_identically_through_the_wal() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let before;
    {
        let reg = open_registry(&pm);
        // ≥ 3 pools, ≥ 8 puddles (plus churn: an update and a drop, so
        // replay exercises put, update, and drop records). The dropped
        // puddle sits in the *middle* of the space so its extent becomes a
        // free-list gap (a freed tail extent is instead absorbed into the
        // bump pointer by the load-time reconcile — correct, but then the
        // comparison would not be bit-exact).
        build_pool(&reg, "alpha", 3);
        let loose = record(&reg, None);
        let loose_id = loose.id;
        reg.register_puddle(loose).unwrap();
        let beta = build_pool(&reg, "beta", 3);
        build_pool(&reg, "gamma", 3);
        reg.update_puddle(beta[1], |p| p.mode = 0o640).unwrap();
        let dropped = reg.unregister_puddle(loose_id).unwrap();
        reg.free_space(dropped.offset, dropped.size);
        reg.register_ptr_map(puddles_proto::PtrMapDecl {
            type_id: 42,
            type_name: "Node".into(),
            size: 16,
            fields: vec![],
        });
        reg.register_log_space(puddled::registry::LogSpaceRecord {
            puddle: beta[0],
            owner_uid: 1,
            owner_gid: 2,
            invalid: false,
        });
        reg.commit().unwrap();
        before = reg.snapshot();

        // The durable checkpoint is still the empty one from load time:
        // every mutation above lives only in the WAL.
        let ckpt: RegistryData =
            serde_json::from_slice(&pm.read_meta("registry.json").unwrap().unwrap()).unwrap();
        assert!(
            ckpt.puddles.is_empty(),
            "mutations must not rewrite the checkpoint"
        );
        assert!(reg.wal().stats().records >= 10);
        // The registry is dropped without a checkpoint — recovery must
        // rebuild everything from checkpoint + WAL replay alone.
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_eq!(before.puddles.len(), 9);
    assert_eq!(before.pools.len(), 3);
    assert_eq!(
        after, before,
        "recovered registry differs from pre-crash state"
    );
    assert_consistent(&after);
}

#[test]
fn torn_tail_record_is_discarded_and_prior_state_survives() {
    let tmp = tempfile::tempdir().unwrap();
    let (pm, plan) = crashable_pm_dir(tmp.path());
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "stable", 4);
        reg.commit().unwrap();
        before = reg.snapshot();

        // The next mutation's WAL record is torn mid-append.
        plan.arm_crash(CrashPoint::WalAppendTorn, 0);
        let rec = record(&reg, None);
        reg.register_puddle(rec).unwrap();
        let err = reg.commit().unwrap_err();
        assert!(
            matches!(err, PmError::CrashInjected(CrashPoint::WalAppendTorn)),
            "expected injected crash, got {err}"
        );
        // Once torn, the WAL refuses further traffic until restart.
        assert!(reg.commit().is_err());
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_consistent(&after);
    // The committed state survives in full; the torn mutation may only
    // vanish atomically (the record never passed its checksum).
    assert_eq!(after.pools, before.pools);
    assert_eq!(after.puddles, before.puddles);
}

#[test]
fn crash_between_checkpoint_write_and_wal_truncate_recovers_exactly() {
    let tmp = tempfile::tempdir().unwrap();
    let (pm, plan) = crashable_pm_dir(tmp.path());
    let before;
    {
        let reg = open_registry(&pm);
        build_pool(&reg, "p0", 3);
        let p1 = build_pool(&reg, "p1", 3);
        build_pool(&reg, "p2", 2);
        // Include a drop so naive double-replay of the un-truncated WAL
        // would resurrect state the checkpoint no longer has.
        let victim = reg.unregister_puddle(p1[2]).unwrap();
        reg.free_space(victim.offset, victim.size);
        reg.commit().unwrap();
        before = reg.snapshot();

        plan.arm_crash(CrashPoint::WalCheckpointBeforeTruncate, 0);
        let err = reg.checkpoint().unwrap_err();
        assert!(matches!(
            err,
            PmError::CrashInjected(CrashPoint::WalCheckpointBeforeTruncate)
        ));
        // The checkpoint document was written; the WAL was not truncated.
        assert!(reg.wal().stats().records > 0);
    }
    // Replay must skip every WAL record the checkpoint already covers
    // (sequence floor), then land on exactly the pre-crash state.
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_eq!(after, before);
    assert_consistent(&after);
}

#[test]
fn crash_mid_group_commit_keeps_every_acknowledged_mutation() {
    let tmp = tempfile::tempdir().unwrap();
    let (pm, plan) = crashable_pm_dir(tmp.path());
    let acked = Arc::new(Mutex::new(Vec::new()));
    {
        let reg = Arc::new(open_registry(&pm));
        // Let a couple of batches commit cleanly, then tear one mid-write.
        plan.arm_crash(CrashPoint::WalMidGroupCommit, 3);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let rec = record(&reg, None);
                        let id = rec.id;
                        reg.register_puddle(rec).unwrap();
                        match reg.commit() {
                            Ok(()) => acked.lock().unwrap().push(id),
                            // The injected crash (or the poisoned WAL after
                            // it): the daemon would be dead, stop "issuing
                            // requests" from this client.
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            plan.trace(),
            vec!["wal.group_commit.mid#0: crash".to_string()],
            "the crash must actually have been injected"
        );
    }
    let reg = open_registry(&pm);
    let after = reg.snapshot();
    assert_consistent(&after);
    // Durability: every mutation whose commit was acknowledged is present.
    let acked = acked.lock().unwrap();
    assert!(!acked.is_empty(), "some commits should have succeeded");
    for id in acked.iter() {
        assert!(
            after.puddles.contains_key(&id.to_hex()),
            "acknowledged puddle {id} lost by the crash"
        );
    }
}

#[test]
fn checkpoint_triggers_by_wal_byte_threshold_and_truncates() {
    let tmp = tempfile::tempdir().unwrap();
    let pm = PmDir::open(tmp.path()).unwrap();
    let reg = open_registry(&pm);
    reg.wal().set_checkpoint_threshold(4 * 1024);
    let baseline = reg.wal().stats().checkpoints;
    for _ in 0..64 {
        let rec = record(&reg, None);
        reg.register_puddle(rec).unwrap();
        reg.commit().unwrap();
    }
    let stats = reg.wal().stats();
    assert!(
        stats.checkpoints > baseline,
        "threshold checkpoint never ran"
    );
    assert!(
        stats.bytes < 64 * 1024,
        "WAL kept growing past the threshold: {} bytes",
        stats.bytes
    );
    // And the checkpointed state still replays correctly.
    drop(reg);
    let reg = open_registry(&pm);
    assert_eq!(reg.snapshot().puddles.len(), 64);
}

#[test]
fn startup_sweep_deletes_orphan_puddle_files() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let legit_files: Vec<String>;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let ep = daemon.endpoint_for_current_process();
        use puddles_proto::{Endpoint, Request, Response};
        let resp = ep
            .call(&Request::CreatePool {
                name: "keep".into(),
                root_size: 2 * PAGE_SIZE as u64,
                mode: 0o600,
            })
            .unwrap();
        assert!(matches!(resp, Response::Pool(_)));
        legit_files = daemon.pm_dir().list_puddles().unwrap();
        assert!(!legit_files.is_empty());
        // A crash mid-DropPool leaves a freed member's file behind: model
        // it with puddle files the registry knows nothing about.
        daemon
            .pm_dir()
            .create_puddle_file("00000000deadbeef", PAGE_SIZE)
            .unwrap();
        daemon
            .pm_dir()
            .create_puddle_file("00000000feedface", PAGE_SIZE)
            .unwrap();
    }
    let daemon = Daemon::start(config).unwrap();
    let files = daemon.pm_dir().list_puddles().unwrap();
    assert_eq!(
        files, legit_files,
        "orphans must be swept, legit files kept"
    );
    let ep = daemon.endpoint_for_current_process();
    use puddles_proto::{Endpoint, Request, Response};
    match ep.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.orphan_files_swept, 2),
        other => panic!("unexpected response {other:?}"),
    }
}
