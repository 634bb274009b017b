//! The durability-failure reply path: a wedged log must surface as the
//! typed `LogStalled` error on a sync commit (bounded wait, connection
//! survives), and a poisoned log as `LogFailed` — never a hang, never a
//! generic close.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{Database, DbConfig};
use ermia_log::{FaultInjector, FaultPlan, LogConfig};
use ermia_server::{
    BatchOp, Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig, WireIsolation,
};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ermia-server-logfault-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn halted_flusher_surfaces_logstalled_within_the_bound() {
    let db = Database::open(DbConfig::durable(tmpdir("stall"))).unwrap();
    let cfg = ServerConfig {
        sync_wait: Duration::from_millis(300),
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start(&db, "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // Healthy baseline: sync commit completes.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"before", b"v").unwrap();
    c.commit(true).unwrap();

    // Wedge the log: durability can no longer advance.
    db.log().halt_flusher_for_test();

    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"after", b"v").unwrap();
    let started = Instant::now();
    match c.commit(true) {
        Err(ClientError::Server { code: ErrorCode::LogStalled, .. }) => {}
        other => panic!("expected typed LogStalled, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "must actually wait for the bound, waited {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "must time out near sync_wait, waited {waited:?}"
    );

    // The commit applied in memory (indeterminate durability, visible
    // data) and the connection keeps working.
    assert_eq!(c.get(t, b"after").unwrap().as_deref(), Some(&b"v"[..]));

    // The incident went into the flight recorder: a DumpEvents frame
    // after the fact shows the stall alongside the transaction history
    // that led up to it.
    let dump = c.dump_events(0).unwrap();
    assert!(dump.contains("log-stall"), "dump must show the stall:\n{dump}");
    assert!(dump.contains("txn-commit"), "dump must show recent txn events:\n{dump}");
    // The server also parked the same dump for post-mortem retrieval.
    let parked = db.telemetry().tracer().last_dump();
    assert!(
        parked.as_deref().is_some_and(|d| d.contains("log-stall")),
        "incident dump must be stored: {parked:?}"
    );

    // Async commits are unaffected by the wedged flusher.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"async", b"v").unwrap();
    c.commit(false).unwrap();

    // Shutdown stays bounded even with sync replies pending: the writer's
    // durability waits all hit the 300 ms ceiling.
    let started = Instant::now();
    srv.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "shutdown must not hang on a dead log");
}

#[test]
fn poisoned_log_surfaces_logfailed_not_a_hang() {
    // An fsync error is never retried: the first flush poisons the log.
    let injector = FaultInjector::new(FaultPlan {
        fail_sync_at: Some(0),
        ..FaultPlan::default()
    });
    let mut cfg = DbConfig::durable(tmpdir("poison"));
    cfg.log = LogConfig {
        dir: cfg.log.dir.clone(),
        fsync: true,
        io_factory: Arc::new(injector),
        ..LogConfig::default()
    };
    let db = Database::open(cfg).unwrap();
    let srv = Server::start(
        &db,
        "127.0.0.1:0",
        ServerConfig { sync_wait: Duration::from_secs(10), ..ServerConfig::default() },
    )
    .unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // Sync commits against the doomed log: the first flush attempt fails
    // its fsync and poisons the log. The waiting commit must get the
    // typed LogFailed error (well before the generous sync_wait), and
    // once poisoned, later transactions fail fast with a typed refusal —
    // a log-failure abort, or DegradedReadOnly once the poison hook has
    // flipped the database read-only (the hook runs on the flusher
    // thread, so it races the next batch's write admission) — the server
    // never hangs and never panics.
    let mut saw_log_failed = false;
    let mut saw_fail_fast = false;
    let started = Instant::now();
    for i in 0..10 {
        let (_, outcome) = c
            .batch(
                WireIsolation::Snapshot,
                true,
                vec![BatchOp::Put {
                    table: t,
                    key: format!("k{i}").into_bytes(),
                    value: b"v".to_vec(),
                }],
            )
            .unwrap();
        match outcome {
            Response::Error { code: ErrorCode::LogFailed, .. } => saw_log_failed = true,
            Response::Error { code: ErrorCode::TxnAborted(reason), .. } => {
                assert_eq!(reason.label(), "log-failure", "fail-fast must cite the log");
                saw_fail_fast = true;
            }
            Response::Error { code: ErrorCode::DegradedReadOnly, .. } => {
                // The poison hook already demoted the database: the
                // write was refused at admission, before the log.
                saw_fail_fast = true;
            }
            Response::Committed { .. } => {
                // The flush that poisons the log may land after this
                // commit's fill was already buffered but before its wait
                // — only pre-poison commits may still pass. They cannot
                // appear after a failure.
                assert!(!saw_log_failed && !saw_fail_fast, "no commits after poison");
            }
            other => panic!("unexpected batch outcome {other:?}"),
        }
    }
    assert!(
        saw_log_failed || saw_fail_fast,
        "poisoned log must surface a typed log failure"
    );
    assert!(
        started.elapsed() < Duration::from_secs(9),
        "poison must fail the wait immediately, not ride out sync_wait"
    );
    assert!(db.log().is_poisoned());
    srv.shutdown();
}

/// Send `n` pipelined one-put sync batches on `c`, each followed by a
/// `Get` of the key it wrote (`k{tag}-{i}`), without reading a reply.
fn pipeline_sync_puts(c: &mut Client, t: u32, tag: usize, n: usize) {
    for i in 0..n {
        let key = format!("k{tag}-{i}").into_bytes();
        c.send(&Request::Batch {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops: vec![BatchOp::Put { table: t, key: key.clone(), value: b"v".to_vec() }],
        })
        .unwrap();
        c.send(&Request::Get { table: t, key }).unwrap();
    }
    c.flush().unwrap();
}

/// Read the replies of [`pipeline_sync_puts`]: every commit must stall,
/// and each `Get` must come back behind its commit, in request order.
fn expect_stalled_in_order(c: &mut Client, n: usize) {
    for i in 0..n {
        match c.recv().unwrap() {
            Response::BatchDone { outcome, .. } => assert!(
                matches!(*outcome, Response::Error { code: ErrorCode::LogStalled, .. }),
                "commit {i}: expected LogStalled, got {outcome:?}"
            ),
            other => panic!("commit {i}: expected BatchDone, got {other:?}"),
        }
        match c.recv().unwrap() {
            Response::Value { value } => assert_eq!(value.as_deref(), Some(&b"v"[..])),
            other => panic!("get {i}: expected its value, got {other:?}"),
        }
    }
}

#[test]
fn concurrent_stalls_share_one_window() {
    let db = Database::open(DbConfig::durable(tmpdir("window"))).unwrap();
    let sync_wait = Duration::from_millis(400);
    let cfg = ServerConfig {
        sync_wait,
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start(&db, "127.0.0.1:0", cfg).unwrap();
    let mut clients: Vec<Client> =
        (0..4).map(|_| Client::connect(srv.local_addr()).unwrap()).collect();
    let t = clients[0].open_table("kv").unwrap();
    db.log().halt_flusher_for_test();

    // Every connection's window of sync commits waits out one shared
    // `sync_wait`, not one per commit.
    const WINDOW: usize = 8;
    let started = Instant::now();
    for (tag, c) in clients.iter_mut().enumerate() {
        pipeline_sync_puts(c, t, tag, WINDOW);
    }
    for c in clients.iter_mut() {
        expect_stalled_in_order(c, WINDOW);
    }
    let elapsed = started.elapsed();
    assert!(elapsed >= sync_wait - Duration::from_millis(50), "stalled early: {elapsed:?}");
    assert!(elapsed < sync_wait * 2, "stalls must share one window, took {elapsed:?}");

    // Every connection still serves requests.
    for (tag, c) in clients.iter_mut().enumerate() {
        let key = format!("k{tag}-0");
        assert_eq!(c.get(t, key.as_bytes()).unwrap().as_deref(), Some(&b"v"[..]));
    }
    srv.shutdown();
}

#[test]
fn incident_dump_is_captured_once_per_incident() {
    let db = Database::open(DbConfig::durable(tmpdir("dump-once"))).unwrap();
    let cfg = ServerConfig {
        sync_wait: Duration::from_millis(300),
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start(&db, "127.0.0.1:0", cfg).unwrap();
    let mut clients: Vec<Client> =
        (0..2).map(|_| Client::connect(srv.local_addr()).unwrap()).collect();
    let t = clients[0].open_table("kv").unwrap();
    db.log().halt_flusher_for_test();

    // 150 commits stall together; more than a dump's worth of them.
    for (tag, c) in clients.iter_mut().enumerate() {
        pipeline_sync_puts(c, t, tag, 75);
    }
    for c in clients.iter_mut() {
        expect_stalled_in_order(c, 75);
    }

    // The parked dump is the one taken at the first stall: the history
    // that led up to it, not a screen of later stalls.
    let dump = db.telemetry().tracer().last_dump().expect("incident dump stored");
    let stalls = dump.lines().filter(|l| l.contains("log-stall")).count();
    assert_eq!(stalls, 1, "the dump must hold the first stall only:\n{dump}");
    assert!(dump.contains("txn-commit"), "the dump must show the commits before it:\n{dump}");
    // Every stall still left its event in the flight recorder.
    let events = clients[0].dump_events(1024).unwrap();
    let recorded = events.lines().filter(|l| l.contains("log-stall")).count();
    assert_eq!(recorded, 150, "one log-stall event per stalled commit:\n{events}");
    srv.shutdown();
}
