//! Daemon-level integration tests: puddle/pool lifecycle, access control,
//! export/import, system-supported recovery, and the UDS server.

use puddled::{Daemon, DaemonConfig, LOG_REGION_OFFSET};
use puddles_logfmt::{
    EntryKind, LogRef, LogSpaceRef, ReplayOrder, RANGE_DONE, RANGE_EXEC, SEQ_UNDO,
};
use puddles_proto::{
    Credentials, Endpoint, ErrorCode, PuddleId, PuddlePurpose, Request, RequestEnvelope, Response,
    ResponseEnvelope,
};
use std::os::unix::net::UnixStream;

const USER_A: Credentials = Credentials {
    uid: 1000,
    gid: 100,
};
const USER_B: Credentials = Credentials {
    uid: 2000,
    gid: 200,
};

fn start_daemon() -> (tempfile::TempDir, Daemon) {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    (tmp, daemon)
}

/// One enveloped round trip on a raw socket; the reply must echo `req_id`.
fn round_trip(stream: &mut UnixStream, req_id: u64, req: Request) -> std::io::Result<Response> {
    puddles_proto::write_frame(stream, &RequestEnvelope { req_id, req })?;
    let env: ResponseEnvelope = puddles_proto::read_frame(stream)?;
    assert_eq!(env.req_id, req_id, "{:?}", env.resp);
    Ok(env.resp)
}

/// Connects a raw socket and handshakes with an enveloped `Hello` (id 1).
fn raw_hello(socket: &std::path::Path) -> UnixStream {
    let mut stream = UnixStream::connect(socket).unwrap();
    let hello = Request::hello(Credentials::current_process());
    let resp = round_trip(&mut stream, 1, hello).unwrap();
    assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    stream
}

fn expect_puddle(resp: Response) -> puddles_proto::PuddleInfo {
    match resp {
        Response::Puddle(info) => info,
        other => panic!("expected Puddle, got {other:?}"),
    }
}

fn expect_pool(resp: Response) -> puddles_proto::PoolInfo {
    match resp {
        Response::Pool(info) => info,
        other => panic!("expected Pool, got {other:?}"),
    }
}

#[test]
fn hello_reports_global_space() {
    let (_tmp, daemon) = start_daemon();
    let ep = daemon.endpoint(USER_A);
    let resp = ep.call(&Request::hello(USER_A)).unwrap();
    match resp {
        Response::Welcome {
            space_base,
            space_size,
            ..
        } => {
            assert_eq!(space_base, daemon.global_space().base() as u64);
            assert_eq!(space_size, daemon.global_space().size() as u64);
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// The server clamps the Hello-negotiated in-flight window and pool depth
/// to its configured maxima, and echoes the grant in Welcome.
#[test]
fn hello_negotiates_window_and_pool_depth_within_server_limits() {
    let (_tmp, daemon) = start_daemon();
    let ep = daemon.endpoint(USER_A);
    let grant = |req_window: u32, req_depth: u32| -> (u32, u32) {
        let resp = ep
            .call(&Request::Hello {
                creds: USER_A,
                max_in_flight: req_window,
                pool_depth: req_depth,
                reconnect: false,
            })
            .unwrap();
        match resp {
            Response::Welcome {
                max_in_flight,
                pool_depth,
                ..
            } => (max_in_flight, pool_depth),
            other => panic!("unexpected response {other:?}"),
        }
    };
    // Zero means "server default" (64 in-flight, 2 connections).
    assert_eq!(grant(0, 0), (64, 2));
    // Modest requests are granted verbatim.
    assert_eq!(grant(8, 3), (8, 3));
    // Oversized requests are clamped to the configured maxima
    // (`for_testing`: 64 in flight, pool depth 8).
    assert_eq!(grant(10_000, 100), (64, 8));
    // Degenerate requests still grant at least one slot.
    assert_eq!(grant(1, 1), (1, 1));
}

/// Reconnect-flagged Hellos (sent by clients re-dialing after a lost
/// connection) are counted in the daemon stats.
#[test]
fn reconnect_hellos_are_counted_in_stats() {
    let (_tmp, daemon) = start_daemon();
    let ep = daemon.endpoint(USER_A);
    ep.call(&Request::hello(USER_A)).unwrap();
    for _ in 0..3 {
        ep.call(&Request::Hello {
            creds: USER_A,
            max_in_flight: 0,
            pool_depth: 0,
            reconnect: true,
        })
        .unwrap();
    }
    match ep.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.client_reconnects, 3),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn pool_and_puddle_lifecycle() {
    let (_tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "db".into(),
            root_size: 1 << 20,
            mode: 0o640,
        },
    ));
    assert_eq!(pool.puddles.len(), 1);
    assert_eq!(pool.root_puddle, pool.puddles[0]);

    // Add a second puddle to the pool.
    let p2 = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("db".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o640,
        },
    ));
    let pool = expect_pool(daemon.handle(USER_A, Request::OpenPool { name: "db".into() }));
    assert_eq!(pool.puddles.len(), 2);
    assert!(pool.puddles.contains(&p2.id));

    // Assigned addresses are disjoint and inside the global space.
    let root = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: pool.root_puddle,
            writable: true,
        },
    ));
    assert_ne!(root.assigned_addr, p2.assigned_addr);
    let base = daemon.global_space().base() as u64;
    let size = daemon.global_space().size() as u64;
    for info in [&root, &p2] {
        assert!(info.assigned_addr >= base && info.assigned_addr + info.size <= base + size);
    }

    // Free the second puddle; the pool shrinks.
    assert_eq!(
        daemon.handle(USER_A, Request::FreePuddle { id: p2.id }),
        Response::Ok
    );
    let pool = expect_pool(daemon.handle(USER_A, Request::OpenPool { name: "db".into() }));
    assert_eq!(pool.puddles.len(), 1);

    // Dropping the pool removes everything.
    assert_eq!(
        daemon.handle(USER_A, Request::DropPool { name: "db".into() }),
        Response::Ok
    );
    match daemon.handle(USER_A, Request::OpenPool { name: "db".into() }) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn duplicate_pool_names_are_rejected() {
    let (_tmp, daemon) = start_daemon();
    daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "p".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    );
    match daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "p".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::AlreadyExists),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn access_control_is_enforced() {
    let (_tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "private".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ));
    // User B cannot read or write user A's private puddle.
    match daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: pool.root_puddle,
            writable: false,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    match daemon.handle(
        USER_B,
        Request::OpenPool {
            name: "private".into(),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    // A world-readable pool can be read but not written by others.
    let shared = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "shared".into(),
            root_size: 1 << 20,
            mode: 0o644,
        },
    ));
    let info = expect_puddle(daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: shared.root_puddle,
            writable: false,
        },
    ));
    assert!(!info.writable);
    match daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: shared.root_puddle,
            writable: true,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
}

#[test]
fn registry_survives_daemon_restart() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let root_id;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let pool = expect_pool(daemon.handle(
            USER_A,
            Request::CreatePool {
                name: "persist".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ));
        root_id = pool.root_puddle;
    }
    let daemon = Daemon::start(config).unwrap();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::OpenPool {
            name: "persist".into(),
        },
    ));
    assert_eq!(pool.root_puddle, root_id);
    // Same base ⇒ no rewrite needed.
    match daemon.handle(USER_A, Request::GetRelocation { id: root_id }) {
        Response::Relocation { needs_rewrite, .. } => assert!(!needs_rewrite),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn moving_the_space_base_marks_puddles_for_rewrite() {
    let tmp = tempfile::tempdir().unwrap();
    let config1 = DaemonConfig::for_testing(tmp.path());
    let root_id;
    {
        let daemon = Daemon::start(config1.clone()).unwrap();
        let pool = expect_pool(daemon.handle(
            USER_A,
            Request::CreatePool {
                name: "mv".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ));
        root_id = pool.root_puddle;
    }
    // Restart with a different base (a different "machine" layout).
    let config2 = DaemonConfig::for_testing(tmp.path());
    assert_ne!(config1.space_base, config2.space_base);
    let daemon = Daemon::start(config2).unwrap();
    match daemon.handle(USER_A, Request::GetRelocation { id: root_id }) {
        Response::Relocation {
            needs_rewrite,
            translations,
        } => {
            assert!(needs_rewrite);
            assert!(!translations.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn export_and_import_assign_new_ids_and_translations() {
    let (tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "orig".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ));
    daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("orig".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    );
    let dest = tmp.path().join("export");
    assert_eq!(
        daemon.handle(
            USER_A,
            Request::ExportPool {
                name: "orig".into(),
                dest: dest.to_string_lossy().into_owned(),
            },
        ),
        Response::Ok
    );
    assert!(dest.join("manifest.json").exists());

    match daemon.handle(
        USER_A,
        Request::ImportPool {
            src: dest.to_string_lossy().into_owned(),
            new_name: "copy".into(),
        },
    ) {
        Response::Imported {
            pool: copy,
            translations,
        } => {
            assert_eq!(copy.puddles.len(), 2);
            assert_eq!(translations.len(), 2);
            // Fresh UUIDs, fresh addresses.
            for id in &copy.puddles {
                assert!(!pool.puddles.contains(id));
            }
            for t in &translations {
                assert_ne!(t.old_addr, t.new_addr);
            }
            // The imported puddles are flagged for rewrite.
            match daemon.handle(
                USER_A,
                Request::GetRelocation {
                    id: copy.root_puddle,
                },
            ) {
                Response::Relocation {
                    needs_rewrite,
                    translations,
                } => {
                    assert!(needs_rewrite);
                    assert_eq!(translations.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            }
            // MarkRewritten clears the flag.
            daemon.handle(
                USER_A,
                Request::MarkRewritten {
                    id: copy.root_puddle,
                },
            );
            match daemon.handle(
                USER_A,
                Request::GetRelocation {
                    id: copy.root_puddle,
                },
            ) {
                Response::Relocation { needs_rewrite, .. } => assert!(!needs_rewrite),
                other => panic!("unexpected {other:?}"),
            }
        }
        other => panic!("unexpected {other:?}"),
    }

    // Importing under an existing name fails.
    match daemon.handle(
        USER_A,
        Request::ImportPool {
            src: dest.to_string_lossy().into_owned(),
            new_name: "orig".into(),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::AlreadyExists),
        other => panic!("unexpected {other:?}"),
    }
}

/// Builds a data puddle, a log-space puddle and a log puddle by hand (the
/// client library normally does this), writes an incomplete transaction,
/// and checks that daemon recovery rolls it back even though the "writer
/// application" is gone.
#[test]
fn recovery_replays_registered_logs_without_the_application() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let gspace = daemon.global_space();

    // One data puddle, one log-space puddle, one log puddle.
    let data = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    let ls = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::LogSpace,
            mode: 0o600,
        },
    ));
    let lp = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        },
    ));
    assert_eq!(
        daemon.handle(USER_A, Request::RegLogSpace { puddle: ls.id }),
        Response::Ok
    );

    let base = gspace.base() as u64;
    let map = |info: &puddles_proto::PuddleInfo| -> usize {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&info.path)
            .unwrap();
        gspace
            .map_puddle(
                &file,
                (info.assigned_addr - base) as usize,
                info.size as usize,
                true,
            )
            .unwrap()
    };
    let data_addr = map(&data);
    let ls_addr = map(&ls);
    let lp_addr = map(&lp);

    // Simulate the writer: value 0xAA is durable, an in-flight transaction
    // undo-logged it and then overwrote it with 0xBB before "crashing".
    let target = data_addr + 0x8000;
    // SAFETY: `target` lies inside the freshly mapped writable data puddle.
    unsafe {
        std::ptr::write_bytes(target as *mut u8, 0xAA, 8);
    }
    // SAFETY: the log-space/log puddles are mapped writable for their size.
    let ls_ref = unsafe {
        LogSpaceRef::from_raw(
            (ls_addr + LOG_REGION_OFFSET) as *mut u8,
            ls.size as usize - LOG_REGION_OFFSET,
        )
    };
    ls_ref.init();
    ls_ref.register(lp.id.0, 1, 0).unwrap();
    let log = unsafe {
        LogRef::from_raw(
            (lp_addr + LOG_REGION_OFFSET) as *mut u8,
            lp.size as usize - LOG_REGION_OFFSET,
        )
    };
    log.init();
    log.set_seq_range(RANGE_EXEC);
    log.append(
        target as u64,
        SEQ_UNDO,
        ReplayOrder::Reverse,
        EntryKind::Undo,
        &[0xAA; 8],
    )
    .unwrap();
    // The crash happens after the in-place update.
    // SAFETY: same mapped range as above.
    unsafe {
        std::ptr::write_bytes(target as *mut u8, 0xBB, 8);
    }

    // "Crash": drop every mapping and the daemon handle.
    // SAFETY: no references into the mappings remain.
    unsafe {
        gspace
            .unmap_puddle((data.assigned_addr - base) as usize)
            .unwrap();
        gspace
            .unmap_puddle((ls.assigned_addr - base) as usize)
            .unwrap();
        gspace
            .unmap_puddle((lp.assigned_addr - base) as usize)
            .unwrap();
    }
    drop(gspace);
    drop(daemon);

    // Restart the daemon: recovery runs before any application maps data.
    let daemon = Daemon::start(config).unwrap();
    let gspace = daemon.global_space();
    let data2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: data.id,
            writable: false,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&data2.path)
        .unwrap();
    let addr = gspace
        .map_puddle(
            &file,
            (data2.assigned_addr - gspace.base() as u64) as usize,
            data2.size as usize,
            false,
        )
        .unwrap();
    // SAFETY: mapped read-only just above.
    let recovered = unsafe { std::slice::from_raw_parts((addr + 0x8000) as *const u8, 8) };
    assert_eq!(
        recovered, &[0xAA; 8],
        "undo log must have rolled back the write"
    );
    // SAFETY: `recovered` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((data2.assigned_addr - gspace.base() as u64) as usize)
            .unwrap();
    }

    // The log was reset by recovery.
    let lp2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: lp.id,
            writable: true,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&lp2.path)
        .unwrap();
    let lp_addr = gspace
        .map_puddle(
            &file,
            (lp2.assigned_addr - gspace.base() as u64) as usize,
            lp2.size as usize,
            true,
        )
        .unwrap();
    // SAFETY: mapped writable above.
    let log = unsafe {
        LogRef::from_raw(
            (lp_addr + LOG_REGION_OFFSET) as *mut u8,
            lp2.size as usize - LOG_REGION_OFFSET,
        )
    };
    assert_eq!(log.seq_range(), RANGE_DONE);
    assert_eq!(log.num_entries(), 0);
    // SAFETY: `log` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((lp2.assigned_addr - gspace.base() as u64) as usize)
            .unwrap();
    }
}

#[test]
fn stats_reflect_daemon_state() {
    let (_tmp, daemon) = start_daemon();
    daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "s".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    );
    match daemon.handle(USER_A, Request::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.pools, 1);
            assert_eq!(stats.puddles, 1);
            assert!(stats.space_used >= 1 << 20);
            assert!(stats.space_total > stats.space_used);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn uds_server_answers_requests_from_another_connection() {
    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("puddled.sock");
    let mut server = puddled::UdsServer::start(daemon.clone(), &socket).unwrap();

    let mut stream = raw_hello(&socket);
    let resp = round_trip(
        &mut stream,
        2,
        Request::CreatePool {
            name: "over-uds".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    )
    .unwrap();
    assert!(matches!(resp, Response::Pool(_)), "{resp:?}");

    // The pool is visible through the in-process endpoint too.
    let pool = daemon.handle(
        Credentials::current_process(),
        Request::OpenPool {
            name: "over-uds".into(),
        },
    );
    assert!(matches!(pool, Response::Pool(_)));
    server.shutdown();
}

#[test]
fn get_relocation_for_unknown_puddle_is_not_found() {
    let (_tmp, daemon) = start_daemon();
    match daemon.handle(
        USER_A,
        Request::GetRelocation {
            id: PuddleId(12345),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("unexpected {other:?}"),
    }
}

/// Tentpole acceptance test: ≥8 simultaneous clients, each served by its own
/// connection handler thread, creating pools, running transactions, and
/// issuing relocation (translation) lookups — all against one daemon. The
/// watchdog turns a deadlock into a test failure instead of a hang, and the
/// final section checks the registry ended up consistent.
#[test]
fn concurrent_clients_create_pools_transact_and_translate() {
    use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[repr(C)]
    struct Counter {
        value: u64,
    }
    impl_pm_type!(Counter, "stress::Counter", []);

    const THREADS: usize = 8;
    const TXS_PER_THREAD: u64 = 25;
    const LOOKUPS_PER_TX: usize = 4;

    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("stress.sock");
    let _server = puddled::UdsServer::start(daemon.clone(), &socket).unwrap();
    let gspace = daemon.global_space();

    let barrier = Arc::new(Barrier::new(THREADS));
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let socket = socket.clone();
        let gspace = Arc::clone(&gspace);
        let barrier = Arc::clone(&barrier);
        let done_tx = done_tx.clone();
        workers.push(std::thread::spawn(move || {
            // Every worker is a full client over the UNIX socket (sharing
            // the in-process global-space reservation).
            let client = PuddleClient::connect_uds_shared(&socket, gspace).unwrap();
            // A second raw connection for protocol-level lookups.
            let mut raw = raw_hello(&socket);
            let mut req_id = 1;

            barrier.wait();
            let pool = client
                .create_pool(&format!("stress-{t}"), PoolOptions::default())
                .unwrap();
            pool.tx(|tx| pool.create_root(tx, Counter { value: 0 }))
                .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();
            let root_puddle = pool.root_puddle().id();
            for i in 1..=TXS_PER_THREAD {
                pool.tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, i)?;
                    Ok(())
                })
                .unwrap();
                // Interleave read-mostly translation lookups: these run
                // under the puddle table's shared read lock.
                for _ in 0..LOOKUPS_PER_TX {
                    req_id += 1;
                    let lookup = Request::GetRelocation { id: root_puddle };
                    match round_trip(&mut raw, req_id, lookup).unwrap() {
                        Response::Relocation { needs_rewrite, .. } => {
                            assert!(!needs_rewrite, "fresh pool must not need rewriting")
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            assert_eq!(pool.deref(root).unwrap().value, TXS_PER_THREAD);
            done_tx.send(t).unwrap();
        }));
    }
    drop(done_tx);

    // Watchdog: a deadlocked daemon fails the test instead of hanging it.
    let mut finished = std::collections::HashSet::new();
    for _ in 0..THREADS {
        let t = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a worker did not finish: daemon deadlocked or wedged");
        finished.insert(t);
    }
    assert_eq!(finished.len(), THREADS);
    for worker in workers {
        worker.join().unwrap();
    }

    // Registry consistency: every pool is present with its counter intact,
    // and no two puddles overlap in the global space.
    let creds = Credentials::current_process();
    match daemon.handle(creds, Request::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.pools, THREADS as u64);
            // Each worker created at least a pool root, a log space, and a
            // per-thread log puddle.
            assert!(stats.puddles >= 3 * THREADS as u64);
        }
        other => panic!("unexpected {other:?}"),
    }
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for t in 0..THREADS {
        let pool = expect_pool(daemon.handle(
            creds,
            Request::OpenPool {
                name: format!("stress-{t}"),
            },
        ));
        assert!(!pool.puddles.is_empty());
        for id in pool.puddles {
            let info = expect_puddle(daemon.handle(
                creds,
                Request::GetPuddle {
                    id,
                    writable: false,
                },
            ));
            extents.push((info.assigned_addr, info.size));
        }
    }
    extents.sort_unstable();
    for pair in extents.windows(2) {
        assert!(
            pair[0].0 + pair[0].1 <= pair[1].0,
            "puddle extents overlap: {pair:?}"
        );
    }
}

/// Shutdown must stay bounded even while a client is streaming well-formed
/// requests back-to-back (the handler checks the flag between frames) and
/// another stalled mid-frame.
#[test]
fn shutdown_is_bounded_under_busy_and_stalled_clients() {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("busy.sock");
    let mut server = puddled::UdsServer::start(daemon, &socket).unwrap();

    // Busy client: streams Ping frames and reads responses as fast as the
    // daemon answers, so its handler never blocks long on a read.
    let stop = Arc::new(AtomicBool::new(false));
    let busy_stop = Arc::clone(&stop);
    let busy_socket = socket.clone();
    let busy = std::thread::spawn(move || {
        let mut stream = raw_hello(&busy_socket);
        let mut req_id = 1;
        while !busy_stop.load(Ordering::SeqCst) {
            req_id += 1;
            if round_trip(&mut stream, req_id, Request::Ping).is_err() {
                break;
            }
        }
    });

    // Stalled client: sends half a length prefix and goes silent.
    let mut stalled = UnixStream::connect(&socket).unwrap();
    stalled.write_all(&[0x10, 0x00]).unwrap();

    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    // Grace (5s) + margin (2s) is the documented bound; allow slack for CI.
    assert!(
        elapsed < Duration::from_secs(10),
        "shutdown took {elapsed:?}, expected bounded"
    );

    stop.store(true, Ordering::SeqCst);
    drop(stalled);
    busy.join().unwrap();
}

#[test]
fn recovery_replays_chained_logs_in_order_and_reclaims_tails() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let gspace = daemon.global_space();

    let create = |purpose| {
        expect_puddle(daemon.handle(
            USER_A,
            Request::CreatePuddle {
                size: 1 << 20,
                pool: None,
                purpose,
                mode: 0o600,
            },
        ))
    };
    // One data puddle, a log space, and a three-segment log chain whose
    // last tail never saw an append (the chain-extension crash window).
    let data = create(PuddlePurpose::Data);
    let ls = create(PuddlePurpose::LogSpace);
    let head = create(PuddlePurpose::Log);
    let tail = create(PuddlePurpose::Log);
    let empty_tail = create(PuddlePurpose::Log);
    assert_eq!(
        daemon.handle(USER_A, Request::RegLogSpace { puddle: ls.id }),
        Response::Ok
    );

    let base = gspace.base() as u64;
    let map = |info: &puddles_proto::PuddleInfo| -> usize {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&info.path)
            .unwrap();
        gspace
            .map_puddle(
                &file,
                (info.assigned_addr - base) as usize,
                info.size as usize,
                true,
            )
            .unwrap()
    };
    let data_addr = map(&data);
    let ls_addr = map(&ls);
    let head_addr = map(&head);
    let tail_addr = map(&tail);
    let empty_addr = map(&empty_tail);

    let target = data_addr + 0x4000;
    // SAFETY: `target` lies inside the freshly mapped writable data puddle.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xCC, 8) };

    // SAFETY: the puddles are mapped writable for their full size.
    let ls_ref = unsafe {
        LogSpaceRef::from_raw(
            (ls_addr + LOG_REGION_OFFSET) as *mut u8,
            ls.size as usize - LOG_REGION_OFFSET,
        )
    };
    ls_ref.init();
    ls_ref.register(head.id.0, 1, 0).unwrap();
    ls_ref.register(tail.id.0, 1, 1).unwrap();
    ls_ref.register(empty_tail.id.0, 1, 2).unwrap();

    let make_log = |addr: usize, info: &puddles_proto::PuddleInfo| -> LogRef {
        // SAFETY: mapped writable for the puddle's full size above.
        let log = unsafe {
            LogRef::from_raw(
                (addr + LOG_REGION_OFFSET) as *mut u8,
                info.size as usize - LOG_REGION_OFFSET,
            )
        };
        log.init();
        log
    };
    // Two undo entries for the SAME address, split across segments: the
    // head's (older, 0xAA) was logged before the tail's (0xBB). Reverse
    // replay must apply the tail entry first and the head entry last, so
    // the oldest value wins — exactly as if both sat in one log.
    let head_log = make_log(head_addr, &head);
    head_log.set_seq_range(RANGE_EXEC);
    head_log
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
    let tail_log = make_log(tail_addr, &tail);
    // Tail headers carry EXEC too, but recovery must key off the *head*.
    tail_log.set_seq_range(RANGE_EXEC);
    tail_log
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xBB; 8],
        )
        .unwrap();
    make_log(empty_addr, &empty_tail); // registered, never appended to

    // "Crash": drop every mapping and the daemon handle.
    for info in [&data, &ls, &head, &tail, &empty_tail] {
        // SAFETY: no references into the mappings remain.
        unsafe {
            gspace
                .unmap_puddle((info.assigned_addr - base) as usize)
                .unwrap();
        }
    }
    drop(gspace);
    drop(daemon);

    // Restart: recovery stitches the chain, replays across the boundary,
    // and reclaims both tails (the empty one is benign).
    let daemon = Daemon::start(config).unwrap();
    let gspace = daemon.global_space();
    let data2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: data.id,
            writable: false,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .open(&data2.path)
        .unwrap();
    let addr = gspace
        .map_puddle(
            &file,
            (data2.assigned_addr - base) as usize,
            data2.size as usize,
            false,
        )
        .unwrap();
    // SAFETY: mapped read-only just above.
    let recovered = unsafe { std::slice::from_raw_parts((addr + 0x4000) as *const u8, 8) };
    assert_eq!(
        recovered, &[0xAA; 8],
        "reverse replay across the chain must leave the oldest value"
    );
    // SAFETY: `recovered` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((data2.assigned_addr - base) as usize)
            .unwrap();
    }

    // The head survives (reset), the tails are gone.
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: head.id,
                writable: true
            }
        ),
        Response::Puddle(_)
    ));
    for freed in [tail.id, empty_tail.id] {
        assert!(
            matches!(
                daemon.handle(
                    USER_A,
                    Request::GetPuddle {
                        id: freed,
                        writable: true
                    }
                ),
                Response::Error {
                    code: ErrorCode::NotFound,
                    ..
                }
            ),
            "chain tail must have been reclaimed"
        );
    }
}

/// The `ensure_logspace` crash window: the client crashed after the daemon
/// allocated its LogSpace puddle but before `RegLogSpace` registered it.
/// No recovery pass walks the puddle (recovery iterates *registered* log
/// spaces) — only the startup sweep can reclaim it.
#[test]
fn unregistered_logspace_puddles_are_swept_at_startup() {
    use puddles::{PoolOptions, PuddleClient};
    use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
    use std::sync::Arc;

    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let plan = FaultPlan::new(0, FaultProfile::default());
    let logspace_count;
    {
        let daemon = Daemon::start(config.clone().with_fault_plan(Arc::clone(&plan))).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.create_pool("ls", PoolOptions::default()).unwrap();
        // First transaction ever on this client: it must create the log
        // space — crash between the allocation and the registration.
        plan.arm_crash(CrashPoint::LogSpaceAlloc, 0);
        let err = pool.tx(|_tx| Ok(())).unwrap_err();
        assert!(
            err.is_injected_crash(),
            "expected injected crash, got {err}"
        );
        // The leak is visible daemon-side: a LogSpace puddle exists but the
        // log-space table is empty.
        match daemon.handle(Credentials::current_process(), Request::Stats) {
            Response::Stats(stats) => {
                logspace_count = stats.puddles;
                assert_eq!(stats.log_spaces, 0, "{stats:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The "crashed" client and daemon are dropped without cleanup.
    }

    let daemon = Daemon::start(config).unwrap();
    match daemon.handle(Credentials::current_process(), Request::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.logspace_puddles_swept, 1, "{stats:?}");
            assert_eq!(stats.puddles, logspace_count - 1);
            // The sweep must not have touched the pool.
            assert_eq!(stats.pools, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unreferenced_log_puddles_are_swept_at_startup() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();

    // A log puddle that no log space ever references: the crash window
    // between allocating a chain segment and registering it.
    let orphan = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        },
    ));
    // A data puddle must NOT be touched by the sweep.
    let data = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    drop(daemon);

    let daemon = Daemon::start(config).unwrap();
    match daemon.handle(USER_A, Request::Stats) {
        Response::Stats(stats) => assert_eq!(stats.log_puddles_swept, 1, "{stats:?}"),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: orphan.id,
                writable: true
            }
        ),
        Response::Error {
            code: ErrorCode::NotFound,
            ..
        }
    ));
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: data.id,
                writable: true
            }
        ),
        Response::Puddle(_)
    ));
}
