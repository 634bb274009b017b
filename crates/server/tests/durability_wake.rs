//! Sync-commit latency over the wire: the log's flusher wakes the event
//! loop holding a parked commit the moment its block is durable, so a
//! reply waits on the flush itself — not on the group-commit interval,
//! a timer tick, or the `sync_wait` deadline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ermia::{Database, DbConfig};
use ermia_server::{BatchOp, Client, Request, Response, Server, ServerConfig, WireIsolation};

#[test]
fn flusher_wake_reaches_the_event_loop() {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ermia-server-wake-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.flush_interval = Duration::from_secs(5);
    let db = Database::open(cfg).unwrap();
    let srv = Server::start(
        &db,
        "127.0.0.1:0",
        ServerConfig { sync_wait: Duration::from_secs(10), ..ServerConfig::default() },
    )
    .unwrap();
    let mut clients: Vec<Client> =
        (0..4).map(|_| Client::connect(srv.local_addr()).unwrap()).collect();
    let t = clients[0].open_table("kv").unwrap();

    const WINDOW: usize = 16;
    let started = Instant::now();
    for (tag, c) in clients.iter_mut().enumerate() {
        for i in 0..WINDOW {
            c.send(&Request::Batch {
                isolation: WireIsolation::Snapshot,
                sync: true,
                ops: vec![BatchOp::Put {
                    table: t,
                    key: format!("k{tag}-{i}").into_bytes(),
                    value: b"v".to_vec(),
                }],
            })
            .unwrap();
        }
        c.flush().unwrap();
    }
    for c in clients.iter_mut() {
        for i in 0..WINDOW {
            match c.recv().unwrap() {
                Response::BatchDone { outcome, .. } => assert!(
                    matches!(*outcome, Response::Committed { .. }),
                    "commit {i}: expected Committed, got {outcome:?}"
                ),
                other => panic!("commit {i}: expected BatchDone, got {other:?}"),
            }
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "sync commits waited {elapsed:?} with a 5 s flush interval: the flush did not wake the loop"
    );
    srv.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
