//! End-to-end tests of the client library: pools, allocation, transactions,
//! aborts, crash injection + system recovery, and relocation on import.

use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, Error, PmPtr, PmType, PoolOptions, PuddleClient};
use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
use std::sync::Arc;

#[repr(C)]
struct Counter {
    value: u64,
    touched: u64,
}
impl_pm_type!(Counter, "pool_tx::Counter", []);

#[repr(C)]
struct Node {
    value: u64,
    next: PmPtr<Node>,
}
impl_pm_type!(Node, "pool_tx::Node", [next => Node]);

#[repr(C)]
struct ListRoot {
    head: PmPtr<Node>,
    len: u64,
}
impl_pm_type!(ListRoot, "pool_tx::ListRoot", [head => Node]);

/// Starts a daemon whose fault plan injects nothing until a test arms one
/// of its crash points; in-process clients inherit the plan.
fn start_crashable(config: &DaemonConfig) -> (Daemon, Arc<FaultPlan>) {
    let plan = FaultPlan::new(0, FaultProfile::default());
    let daemon = Daemon::start(config.clone().with_fault_plan(Arc::clone(&plan))).unwrap();
    (daemon, plan)
}

fn setup() -> (tempfile::TempDir, DaemonConfig, Daemon, PuddleClient) {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    (tmp, config, daemon, client)
}

fn push_front(pool: &puddles::Pool, value: u64) {
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    pool.tx(|tx| {
        let head = pool.deref(root)?.head;
        let node = pool.alloc_value(tx, Node { value, next: head })?;
        let root_ref = pool.deref_mut(root)?;
        let new_len = root_ref.len + 1;
        tx.set(&mut root_ref.head, node)?;
        tx.set(&mut root_ref.len, new_len)?;
        Ok(())
    })
    .unwrap();
}

fn list_values(pool: &puddles::Pool) -> Vec<u64> {
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    let mut out = Vec::new();
    let mut cur = pool.deref(root).unwrap().head;
    while !cur.is_null() {
        let node = pool.deref(cur).unwrap();
        out.push(node.value);
        cur = node.next;
    }
    out
}

#[test]
fn transactional_updates_survive_reopen() {
    let (_tmp, config, daemon, client) = setup();
    {
        let pool = client
            .create_pool("counters", PoolOptions::default())
            .unwrap();
        pool.tx(|tx| {
            pool.create_root(
                tx,
                Counter {
                    value: 0,
                    touched: 0,
                },
            )
        })
        .unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        for i in 1..=10u64 {
            pool.tx(|tx| {
                let c = pool.deref_mut(root)?;
                let touched = c.touched + 1;
                tx.set(&mut c.value, i)?;
                tx.set(&mut c.touched, touched)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(pool.deref(root).unwrap().value, 10);
        assert_eq!(pool.deref(root).unwrap().touched, 10);
    }
    drop(client);
    drop(daemon);

    // A different "application" (new daemon instance + new client) reads the
    // data back.
    let daemon = Daemon::start(config).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client.open_pool("counters").unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 10);
    assert_eq!(pool.deref(root).unwrap().touched, 10);
}

#[test]
fn aborted_transactions_roll_back_data_and_allocations() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("abort", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    push_front(&pool, 1);
    push_front(&pool, 2);
    let objects_before = pool.live_objects().len();
    let root: PmPtr<ListRoot> = pool.root().unwrap();

    // A transaction that allocates, links, and then fails must leave no
    // trace: the list is unchanged and the allocation is rolled back.
    let err = pool
        .tx(|tx| {
            let head = pool.deref(root)?.head;
            let node = pool.alloc_value(
                tx,
                Node {
                    value: 99,
                    next: head,
                },
            )?;
            let root_ref = pool.deref_mut(root)?;
            let new_len = root_ref.len + 1;
            tx.set(&mut root_ref.head, node)?;
            tx.set(&mut root_ref.len, new_len)?;
            Err::<(), _>(Error::Aborted("simulated failure".into()))
        })
        .unwrap_err();
    assert!(matches!(err, Error::Aborted(_)));

    assert_eq!(list_values(&pool), vec![2, 1]);
    assert_eq!(pool.deref(root).unwrap().len, 2);
    assert_eq!(pool.live_objects().len(), objects_before);
}

#[test]
fn nested_transactions_are_rejected() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client
        .create_pool("nested", PoolOptions::default())
        .unwrap();
    let err = pool
        .tx(|_outer| {
            let inner = pool.tx(|_tx| Ok(()));
            match inner {
                Err(Error::NestedTransaction) => Err::<(), _>(Error::Aborted("saw nested".into())),
                other => panic!("expected NestedTransaction, got {other:?}"),
            }
        })
        .unwrap_err();
    assert!(matches!(err, Error::Aborted(_)));
}

#[test]
fn redo_logged_updates_apply_only_at_commit() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("redo", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 5,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    pool.tx(|tx| {
        let c = pool.deref(root)?;
        tx.redo_set(&c.value, 77u64)?;
        // The in-place value is unchanged inside the transaction body.
        assert_eq!(pool.deref(root)?.value, 5);
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 77);
}

#[test]
fn pool_grows_beyond_one_puddle() {
    let (_tmp, _config, _daemon, client) = setup();
    // Small puddles force growth.
    let options = PoolOptions::default().puddle_size(256 * 1024);
    let pool = client.create_pool("grow", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    // Allocate ~2 MiB of 4 KiB objects in several transactions.
    let root: PmPtr<ListRoot> = pool.root().unwrap();
    for chunk in 0..8 {
        pool.tx(|tx| {
            for i in 0..64u64 {
                let addr = pool.alloc_raw(tx, 4096, 0)?;
                // SAFETY: fresh 4 KiB allocation in a writable mapping.
                unsafe { std::ptr::write_bytes(addr as *mut u8, (chunk * 64 + i) as u8, 4096) };
            }
            let root_ref = pool.deref_mut(root)?;
            let new_len = root_ref.len + 64;
            tx.set(&mut root_ref.len, new_len)?;
            Ok(())
        })
        .unwrap();
    }
    assert!(pool.puddle_count() > 1, "pool should have grown");
    assert_eq!(pool.deref(root).unwrap().len, 512);
}

#[test]
fn crash_during_commit_is_recovered_by_the_system() {
    let points = [
        CrashPoint::CommitAfterUndoFlush,
        CrashPoint::CommitBeforeRedoApply,
        CrashPoint::CommitMidRedoApply,
        CrashPoint::CommitBeforeInvalidate,
    ];
    for (i, fp) in points.into_iter().enumerate() {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let pool_name = format!("crash-{i}");
        {
            let (daemon, plan) = start_crashable(&config);
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool(&pool_name, PoolOptions::default())
                .unwrap();
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    Counter {
                        value: 100,
                        touched: 1,
                    },
                )
            })
            .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();

            // A hybrid transaction: undo-logged update of `value`,
            // redo-logged update of `touched`; crash at the chosen stage.
            plan.arm_crash(fp, 0);
            let err = pool
                .tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, 200)?;
                    tx.redo_set(&c.touched, 2u64)?;
                    Ok(())
                })
                .unwrap_err();
            assert!(
                err.is_injected_crash(),
                "{fp}: expected injected crash, got {err}"
            );
            // The "crashed" client is dropped without any cleanup.
        }

        // Restart: the daemon recovers before any application maps the data.
        let daemon = Daemon::start(config).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.open_pool(&pool_name).unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        let counter = pool.deref(root).unwrap();
        // Atomicity: either the whole transaction happened or none of it.
        let consistent = (counter.value == 100 && counter.touched == 1)
            || (counter.value == 200 && counter.touched == 2);
        assert!(
            consistent,
            "{fp}: inconsistent state value={} touched={}",
            counter.value, counter.touched
        );
        // Stage-specific expectation: before the redo stage is published the
        // transaction must roll back; at or after it, it must roll forward.
        match fp {
            CrashPoint::CommitAfterUndoFlush => {
                assert_eq!(counter.value, 100, "{fp}: expected rollback");
            }
            CrashPoint::CommitBeforeInvalidate => {
                assert_eq!(counter.value, 200, "{fp}: expected roll-forward");
                assert_eq!(counter.touched, 2);
            }
            _ => {}
        }
    }
}

#[test]
fn crash_after_unfenced_appends_rolls_back_exactly_the_logged_prefix() {
    // The volatile-cursor log keeps no durable head pointer: after a crash
    // mid-body, recovery must replay exactly the checksummed prefix of
    // unfenced appends. The body issues three appends (undo `value`, undo
    // `touched`, redo `value`); crash after N = 0, 1, 2 of them. Every
    // durable undo entry must roll its field back, fields never logged were
    // never modified, and the redo entry is never applied (the commit point
    // was not reached).
    for n in 0..3usize {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        {
            let (daemon, plan) = start_crashable(&config);
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("prefix", PoolOptions::default())
                .unwrap();
            pool.tx(|tx| {
                pool.create_root(
                    tx,
                    Counter {
                        value: 10,
                        touched: 20,
                    },
                )
            })
            .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();

            plan.arm_crash(CrashPoint::LogAppendCrash, n);
            let err = pool
                .tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, 111)?; // append 1 (undo)
                    tx.set(&mut c.touched, 222)?; // append 2 (undo)
                    tx.redo_set(&c.value, 333u64)?; // append 3 (redo)
                    Ok(())
                })
                .unwrap_err();
            assert!(err.is_injected_crash(), "n={n}: got {err}");
        }

        // Restart: system recovery replays the durable undo prefix.
        let daemon = Daemon::start(config).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.open_pool("prefix").unwrap();
        let root: PmPtr<Counter> = pool.root().unwrap();
        let c = pool.deref(root).unwrap();
        assert_eq!(c.value, 10, "n={n}: value must be rolled back / untouched");
        assert_eq!(
            c.touched, 20,
            "n={n}: touched must be rolled back / untouched"
        );
    }
}

#[test]
fn relogging_a_covered_range_appends_nothing() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("dedup", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    // The btree's dominant pattern: the same location is undo-logged on
    // every mutation of its node. Only the first touch may append.
    pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 2)?;
        let after_first = tx.entries();
        for i in 3..20u64 {
            tx.set(&mut c.value, i)?;
        }
        assert_eq!(
            tx.entries(),
            after_first,
            "re-logging a covered range must not append"
        );
        // A range that spills beyond the covered one still logs.
        tx.set(&mut c.touched, 9)?;
        assert_eq!(tx.entries(), after_first + 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 19);
    assert_eq!(pool.deref(root).unwrap().touched, 9);

    // Dedup must not break rollback to the *first-touch* value: the undo
    // entry captured value == 19, not any intermediate.
    let _ = pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        for i in 0..10u64 {
            tx.set(&mut c.value, 100 + i)?;
        }
        Err::<(), _>(Error::Aborted("rollback".into()))
    });
    assert_eq!(pool.deref(root).unwrap().value, 19);
}

#[test]
fn oversized_transaction_chains_and_tx_too_large_needs_daemon_refusal() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("huge", PoolOptions::default()).unwrap();
    // Redo-log more bytes than one 4 MiB log puddle can hold: since PR 4
    // the transaction chains additional log puddles and *commits* instead
    // of failing with TxTooLarge.
    let blob: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let addr = pool.tx(|tx| pool.alloc_raw(tx, blob.len(), 0)).unwrap();
    pool.tx(|tx| {
        // 64 x 256 KiB = 16 MiB of redo payload against 4 MiB segments.
        for _ in 0..64 {
            tx.redo_set_bytes(addr, &blob)?;
        }
        assert!(tx.chain_segments() > 1, "16 MiB must have chained");
        Ok(())
    })
    .unwrap();
    // The committed redo landed.
    // SAFETY: `addr` is a live allocation of `blob.len()` bytes.
    let stored = unsafe { std::slice::from_raw_parts(addr as *const u8, blob.len()) };
    assert_eq!(stored, &blob[..]);
}

#[test]
fn tx_too_large_is_raised_only_when_the_daemon_refuses_a_log_puddle() {
    // A daemon with a deliberately tiny global space: the pool, log space,
    // thread log and a couple of chained segments fit, then CreatePuddle
    // fails with OutOfSpace — only then may TxTooLarge surface.
    let tmp = tempfile::tempdir().unwrap();
    let config = puddled::DaemonConfig {
        space_base: None,
        space_size: 16 << 20,
        ..puddled::DaemonConfig::new(tmp.path())
    };
    let daemon = Daemon::start(config).unwrap();
    let client = PuddleClient::connect_local(&daemon).unwrap();
    // 1 MiB log segments so the accounting is easy: 16 MiB space minus a
    // 2 MiB pool leaves room for the log space, the thread log, and a
    // handful of chained segments.
    client.set_log_puddle_size(1 << 20);
    let options = PoolOptions::default().puddle_size(2 << 20);
    let pool = client.create_pool("tiny", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 7,
                touched: 0,
            },
        )
    })
    .unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    let blob = vec![0xEEu8; 512 * 1024];
    let addr = pool.tx(|tx| pool.alloc_raw(tx, blob.len(), 0)).unwrap();

    let err = pool
        .tx(|tx| {
            let c = pool.deref_mut(root)?;
            tx.set(&mut c.value, 8)?;
            // Unbounded redo logging: chaining grows until the global space
            // is exhausted and the daemon refuses the next log puddle.
            for _ in 0..1024 {
                tx.redo_set_bytes(addr, &blob)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, Error::TxTooLarge { .. }),
        "expected TxTooLarge after daemon refusal, got {err}"
    );
    // The abort rolled the whole chain back and released its segments, so
    // ordinary transactions keep working afterwards.
    assert_eq!(pool.deref(root).unwrap().value, 7);
    pool.tx(|tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 9)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 9);
}

#[test]
fn transaction_one_entry_past_a_full_segment_commits_via_chaining() {
    // The capacity-accounting regression: fill the log to exactly
    // free_bytes == 0, then one more entry must chain (not fail), and the
    // chained segment must be released back to the daemon after commit.
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let pool = client.create_pool("exact", PoolOptions::default()).unwrap();
    let region = 128 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    // SAFETY: fresh allocation in a writable mapping.
    unsafe { std::ptr::write_bytes(addr as *mut u8, 0x11, region) };
    let puddles_before = client.stats().unwrap().puddles;

    pool.tx(|tx| {
        let free = tx.log_free_bytes();
        assert!(free > 0 && free < region);
        // One entry of exactly free_bytes() fills the segment...
        tx.add_range(addr, free)?;
        assert_eq!(tx.log_free_bytes(), 0);
        assert_eq!(tx.chain_segments(), 1);
        // ...and the next entry — one more than the segment holds — chains.
        tx.add_range(addr + free + 64, 8)?;
        assert_eq!(tx.chain_segments(), 2);
        // After chaining, free_bytes reports the fresh tail's headroom.
        assert!(tx.log_free_bytes() > 0);
        // SAFETY: both logged ranges lie inside the allocated region.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x22, free) };
        Ok(())
    })
    .unwrap();

    // The committed write stuck. The chained segment is no longer part of
    // any log chain but sits *parked* in the client's spare cache (one
    // puddle still registered daemon-side), ready for the next extension.
    // SAFETY: `addr` is a live `region`-byte allocation.
    let first = unsafe { std::slice::from_raw_parts(addr as *const u8, 8) };
    assert_eq!(first, &[0x22; 8]);
    assert_eq!(client.stats().unwrap().puddles, puddles_before + 1);

    // A second chaining transaction reuses the spare instead of allocating:
    // the daemon-side puddle count stays flat.
    pool.tx(|tx| {
        let free = tx.log_free_bytes();
        tx.add_range(addr, free)?;
        tx.add_range(addr + free + 64, 8)?;
        assert_eq!(tx.chain_segments(), 2);
        Ok(())
    })
    .unwrap();
    assert_eq!(client.stats().unwrap().puddles, puddles_before + 1);
}

#[test]
fn spare_log_cache_parks_tails_and_frees_them_on_disconnect() {
    let (_tmp, _config, daemon, client) = setup();
    // A second client observes daemon state after the first disconnects.
    let observer = PuddleClient::connect_local(&daemon).unwrap();
    client.set_log_puddle_size(64 * 1024);
    let pool = client.create_pool("spare", PoolOptions::default()).unwrap();
    let region = 256 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();

    // A transaction that undo-logs `total` bytes in 8 KiB entries (small
    // enough to fit any segment size used here), chaining as needed.
    let chain_tx = |total: usize| {
        pool.tx(|tx| {
            let mut off = 0;
            while off < total {
                let len = (total - off).min(8 * 1024);
                tx.add_range(addr + off, len)?;
                off += len;
            }
            Ok(tx.chain_segments())
        })
        .unwrap()
    };
    let segments = chain_tx(150 * 1024);
    assert!(segments >= 3, "150 KiB undo must chain 64 KiB segments");
    let parked = observer.stats().unwrap().puddles;
    // Subsequent chain-heavy transactions run entirely out of the cache up
    // to its capacity: the daemon-side puddle count stays flat.
    for _ in 0..3 {
        assert!(chain_tx(120 * 1024) >= 2);
        assert_eq!(observer.stats().unwrap().puddles, parked);
    }

    // Changing the segment size invalidates parked spares: the next
    // acquisition frees them rather than reusing the wrong geometry.
    client.set_log_puddle_size(32 * 1024);
    assert!(chain_tx(80 * 1024) >= 2);

    // Disconnect: the cache is dropped and every parked puddle is freed.
    let before_drop = observer.stats().unwrap().puddles;
    drop(pool);
    drop(client);
    let after_drop = observer.stats().unwrap().puddles;
    assert!(
        after_drop < before_drop,
        "disconnect must free parked spares ({before_drop} -> {after_drop})"
    );
}

#[test]
fn max_segment_payload_chains_and_oversized_payload_is_rejected() {
    // Boundary of the never-fits check: when the active segment is full, a
    // payload of *exactly* a fresh segment's capacity must chain and
    // commit; one byte more can never fit any segment and must be
    // TxTooLarge (without looping on chain extensions).
    let (_tmp, _config, _daemon, client) = setup();
    client.set_log_puddle_size(64 * 1024);
    let segment_capacity = 64 * 1024 - puddled::LOG_REGION_OFFSET;
    let max_payload = puddles_logfmt::segment_payload_capacity(segment_capacity);
    let pool = client
        .create_pool("maxpay", PoolOptions::default())
        .unwrap();
    let region = 2 * max_payload;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();

    pool.tx(|tx| {
        // Exhaust the active segment...
        let fill = tx.log_free_bytes();
        tx.add_range(addr, fill)?;
        assert_eq!(tx.log_free_bytes(), 0);
        // ...then log a payload of exactly one whole fresh segment.
        let max = vec![0x7Au8; max_payload];
        tx.redo_set_bytes(addr, &max)?;
        assert_eq!(tx.chain_segments(), 2);
        Ok(())
    })
    .unwrap();
    // SAFETY: `addr` is a live `region`-byte allocation.
    let stored = unsafe { std::slice::from_raw_parts(addr as *const u8, max_payload) };
    assert!(stored.iter().all(|&b| b == 0x7A));

    let err = pool
        .tx(|tx| {
            let fill = tx.log_free_bytes();
            tx.add_range(addr, fill)?;
            let too_big = vec![0u8; max_payload + 1];
            tx.redo_set_bytes(addr, &too_big)?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, Error::TxTooLarge { .. }),
        "payload over a whole segment must be TxTooLarge, got {err}"
    );
}

/// Sets up a pool with a 0xAB-filled 256 KiB region and a root counter,
/// using 64 KiB log puddles so chaining is cheap to trigger. Returns the
/// region address.
fn chain_crash_setup(client: &PuddleClient, pool: &puddles::Pool) -> usize {
    client.set_log_puddle_size(64 * 1024);
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 1,
                touched: 0,
            },
        )
    })
    .unwrap();
    let region = 256 * 1024;
    let addr = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    // SAFETY: fresh allocation in a writable mapping.
    unsafe { std::ptr::write_bytes(addr as *mut u8, 0xAB, region) };
    addr
}

/// The transaction body used by the chain crash tests: undo-log and
/// overwrite the region in 16 KiB chunks, which outgrows a 64 KiB log
/// segment after a few chunks and forces chain extensions.
fn chain_crash_body(
    pool: &puddles::Pool,
    root: PmPtr<Counter>,
    addr: usize,
) -> impl Fn(&mut puddles::Transaction<'_>) -> Result<(), Error> + '_ {
    move |tx| {
        let c = pool.deref_mut(root)?;
        tx.set(&mut c.value, 2)?;
        for chunk in 0..16usize {
            let chunk_addr = addr + chunk * 16 * 1024;
            tx.add_range(chunk_addr, 16 * 1024)?;
            // SAFETY: the chunk lies inside the allocated region.
            unsafe { std::ptr::write_bytes(chunk_addr as *mut u8, 0xCD, 16 * 1024) };
        }
        Ok(())
    }
}

fn assert_chain_rolled_back(pool: &puddles::Pool, addr: usize, context: &str) {
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 1, "{context}: root value");
    // SAFETY: the region is a live 256 KiB allocation in the reopened pool.
    let region = unsafe { std::slice::from_raw_parts(addr as *const u8, 256 * 1024) };
    assert!(
        region.iter().all(|&b| b == 0xAB),
        "{context}: region must be uniformly rolled back"
    );
}

#[test]
fn crash_during_chain_extension_is_recovered_and_tails_reclaimed() {
    // Crash (a) after the daemon allocated the next chain segment but
    // before it was registered — the unreferenced puddle is swept at the
    // next daemon startup; (b) after registration but before the first
    // append — recovery treats the empty tail as benign and reclaims it.
    for fp in [CrashPoint::LogChainAlloc, CrashPoint::LogChainRegister] {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let addr;
        {
            let (daemon, plan) = start_crashable(&config);
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("chaincrash", PoolOptions::default())
                .unwrap();
            addr = chain_crash_setup(&client, &pool);
            let root: PmPtr<Counter> = pool.root().unwrap();

            plan.arm_crash(fp, 0);
            let err = pool.tx(chain_crash_body(&pool, root, addr)).unwrap_err();
            assert!(err.is_injected_crash(), "{fp}: got {err}");
        }

        // Restart without auto-recovery so the report is observable.
        let daemon = Daemon::start(config.no_auto_recover()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let report = client.recover().unwrap();
        match fp {
            CrashPoint::LogChainAlloc => {
                // The never-registered segment was already swept at startup.
                assert!(
                    client.stats().unwrap().log_puddles_swept >= 1,
                    "alloc-crash puddle must be swept at startup"
                );
                assert_eq!(report.chain_tails_reclaimed, 0);
            }
            _ => {
                // The registered-but-empty tail is benign and reclaimed.
                assert!(
                    report.chain_tails_reclaimed >= 1,
                    "register-crash tail must be reclaimed, report {report:?}"
                );
            }
        }
        let pool = client.open_pool("chaincrash").unwrap();
        assert_chain_rolled_back(&pool, addr, fp.name());
    }
}

#[test]
fn crash_mid_chain_rolls_back_across_segment_boundaries() {
    // Crash after N unfenced appends with N chosen to land in the *second*
    // chain segment: recovery must stitch (log_id, chain_index) segments,
    // replay the undo entries of both, and reclaim the tail.
    for n in [6usize, 9, 13] {
        let tmp = tempfile::tempdir().unwrap();
        let config = DaemonConfig::for_testing(tmp.path());
        let addr;
        {
            let (daemon, plan) = start_crashable(&config);
            let client = PuddleClient::connect_local(&daemon).unwrap();
            let pool = client
                .create_pool("midchain", PoolOptions::default())
                .unwrap();
            addr = chain_crash_setup(&client, &pool);
            let root: PmPtr<Counter> = pool.root().unwrap();

            plan.arm_crash(CrashPoint::LogAppendCrash, n);
            let err = pool.tx(chain_crash_body(&pool, root, addr)).unwrap_err();
            assert!(err.is_injected_crash(), "n={n}: got {err}");
        }

        let daemon = Daemon::start(config.no_auto_recover()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let report = client.recover().unwrap();
        // 16 KiB entries against 64 KiB segments: appends 1..=4 land in the
        // head, later ones in chained segments.
        if n > 4 {
            assert!(
                report.chained_logs >= 1,
                "n={n}: expected a chained log in {report:?}"
            );
            assert!(
                report.chain_tails_reclaimed >= 1,
                "n={n}: expected reclaimed tails in {report:?}"
            );
        }
        assert!(report.entries_applied > 0, "n={n}: {report:?}");
        let pool = client.open_pool("midchain").unwrap();
        assert_chain_rolled_back(&pool, addr, &format!("n={n}"));
    }
}

#[test]
fn export_import_rewrites_pointers_and_keeps_both_copies_open() {
    let (tmp, _config, _daemon, client) = setup();
    let pool = client
        .create_pool("source", PoolOptions::default())
        .unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    for v in 0..50 {
        push_front(&pool, v);
    }
    let original: Vec<u64> = list_values(&pool);

    // Export, then import as a copy into the same machine: every address
    // conflicts with the original, so all pointers must be rewritten.
    let export_dir = tmp.path().join("export");
    client.export_pool("source", &export_dir).unwrap();
    let copy = client.import_pool(&export_dir, "copy").unwrap();

    // Both copies are open simultaneously — impossible in PMDK.
    let copied: Vec<u64> = {
        let root: PmPtr<ListRoot> = copy.root().unwrap();
        let mut out = Vec::new();
        let mut cur = copy.deref(root).unwrap().head;
        while !cur.is_null() {
            let node = copy.deref(cur).unwrap();
            out.push(node.value);
            cur = node.next;
        }
        out
    };
    assert_eq!(copied, original);

    // The copies are independent: modifying one does not affect the other.
    push_front(&copy, 999);
    assert_eq!(list_values(&pool), original);
    assert_eq!(
        copy.deref(copy.root::<ListRoot>().unwrap()).unwrap().len,
        51
    );
}

#[test]
fn crash_mid_rewrite_leaves_the_import_for_the_next_open_to_finish() {
    let tmp = tempfile::tempdir().unwrap();
    let (daemon, plan) = start_crashable(&DaemonConfig::for_testing(tmp.path()));
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let pool = client
        .create_pool("source", PoolOptions::default())
        .unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    for v in 0..50 {
        push_front(&pool, v);
    }
    let original = list_values(&pool);
    let export_dir = tmp.path().join("export");
    client.export_pool("source", &export_dir).unwrap();

    // The copy conflicts with every original address; crash after a few
    // objects were rewritten, leaving the puddle half translated.
    plan.arm_crash(CrashPoint::RelocMidRewrite, 5);
    match client.import_pool(&export_dir, "copy") {
        Err(Error::CrashInjected(CrashPoint::RelocMidRewrite)) => {}
        Err(e) => panic!("expected the injected rewrite crash, got {e}"),
        Ok(_) => panic!("import completed despite the armed crash"),
    }
    assert_eq!(plan.trace(), vec!["reloc.mid_rewrite#0: crash".to_string()]);
    drop(pool);
    drop(client);

    // The crashed mapping never reported MarkRewritten, so the next open
    // rewrites again; translation is idempotent on the rewritten prefix.
    let client = PuddleClient::connect_local(&daemon).unwrap();
    let copy = client.open_pool("copy").unwrap();
    assert_eq!(list_values(&copy), original);
    let source = client.open_pool("source").unwrap();
    push_front(&copy, 999);
    assert_eq!(list_values(&source), original);
    assert_eq!(list_values(&copy).len(), 51);
}

#[test]
fn cross_pool_transaction_updates_two_pools_atomically() {
    let (_tmp, _config, _daemon, client) = setup();
    let accounts = client
        .create_pool("accounts", PoolOptions::default())
        .unwrap();
    let audit = client.create_pool("audit", PoolOptions::default()).unwrap();
    accounts
        .tx(|tx| {
            accounts.create_root(
                tx,
                Counter {
                    value: 1000,
                    touched: 0,
                },
            )
        })
        .unwrap();
    audit
        .tx(|tx| {
            audit.create_root(
                tx,
                Counter {
                    value: 0,
                    touched: 0,
                },
            )
        })
        .unwrap();
    let acc: PmPtr<Counter> = accounts.root().unwrap();
    let log: PmPtr<Counter> = audit.root().unwrap();

    // One transaction touches both pools (cross-pool transaction, §3.6).
    client
        .tx(|tx| {
            let a = accounts.deref_mut(acc)?;
            let debited = a.value - 100;
            tx.set(&mut a.value, debited)?;
            let l = audit.deref_mut(log)?;
            let credited = l.value + 1;
            tx.set(&mut l.value, credited)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(accounts.deref(acc).unwrap().value, 900);
    assert_eq!(audit.deref(log).unwrap().value, 1);

    // An aborted cross-pool transaction rolls back both pools.
    let _ = client.tx(|tx| {
        let a = accounts.deref_mut(acc)?;
        tx.set(&mut a.value, 0)?;
        let l = audit.deref_mut(log)?;
        tx.set(&mut l.value, 999)?;
        Err::<(), _>(Error::Aborted("no".into()))
    });
    assert_eq!(accounts.deref(acc).unwrap().value, 900);
    assert_eq!(audit.deref(log).unwrap().value, 1);
}

#[test]
fn read_only_client_can_read_but_not_write() {
    let (_tmp, _config, daemon, client) = setup();
    // Owner creates a world-readable pool.
    let options = PoolOptions::default().mode(0o644);
    let pool = client.create_pool("shared", options).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 7,
                touched: 0,
            },
        )
    })
    .unwrap();
    drop(pool);

    // Another user (different uid) opens it read-only and reads the data
    // without any PM-awareness of who wrote it.
    let other = PuddleClient::connect_local_as(
        &daemon,
        puddles_proto::Credentials {
            uid: puddles_proto::Credentials::current_process().uid + 1,
            gid: puddles_proto::Credentials::current_process().gid + 1,
        },
    )
    .unwrap();
    let pool = other.open_pool("shared").unwrap();
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 7);
}

#[test]
fn multithreaded_transactions_use_per_thread_logs() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = std::sync::Arc::new(client.create_pool("mt", PoolOptions::default()).unwrap());
    pool.tx(|tx| {
        pool.create_root(
            tx,
            Counter {
                value: 0,
                touched: 0,
            },
        )
    })
    .unwrap();

    // Each thread allocates and writes its own objects; the shared counter
    // is updated under a mutex (transactions provide failure atomicity, not
    // isolation, exactly like the paper).
    let lock = std::sync::Arc::new(parking_lot::Mutex::new(()));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let pool = std::sync::Arc::clone(&pool);
            let client = client.clone();
            let lock = std::sync::Arc::clone(&lock);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let root: PmPtr<Counter> = pool.root().unwrap();
                    let _guard = lock.lock();
                    client
                        .tx(|tx| {
                            let c = pool.deref_mut(root)?;
                            let next = c.value + 1;
                            tx.set(&mut c.value, next)?;
                            Ok(())
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let root: PmPtr<Counter> = pool.root().unwrap();
    assert_eq!(pool.deref(root).unwrap().value, 200);
}

#[test]
fn type_ids_and_pointer_maps_are_registered_with_the_daemon() {
    let (_tmp, _config, _daemon, client) = setup();
    let pool = client.create_pool("types", PoolOptions::default()).unwrap();
    pool.tx(|tx| {
        pool.create_root(
            tx,
            ListRoot {
                head: PmPtr::null(),
                len: 0,
            },
        )
    })
    .unwrap();
    push_front(&pool, 1);
    let stats = client.stats().unwrap();
    assert!(
        stats.ptr_maps >= 2,
        "expected ListRoot and Node maps, got {}",
        stats.ptr_maps
    );
    // The maps round-trip through the daemon with the right offsets.
    let node_decl = Node::decl();
    assert_eq!(node_decl.fields[0].offset, 8);
}
