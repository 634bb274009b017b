//! Run an ERMIA server on a TCP port.
//!
//! ```sh
//! cargo run --release --example server -- [--shards N] [--data-dir DIR] [ADDR]
//! cargo run --release --example server -- 127.0.0.1:7878
//! cargo run --release --example server -- --shards 4 --data-dir /var/tmp/ermia 127.0.0.1:0
//! ```
//!
//! * `ADDR` defaults to `127.0.0.1:7878`; `127.0.0.1:0` binds an
//!   ephemeral port. Either way the first stdout line is a
//!   machine-readable `PORT <n>`, so an orchestrator can spawn the
//!   server and read where it listens.
//! * `--data-dir` (or `ERMIA_DATA_DIR`) is the durable data directory.
//!   It is reused across restarts: every start recovers what the
//!   previous incarnation made durable, so the binary is safe to
//!   SIGKILL and restart in crash drills.
//! * `--shards N` (or `ERMIA_SHARDS`) partitions the engine into N
//!   independent shard domains (log, epochs, TID space, each under
//!   `<dir>/shard-<i>`); keys hash-route to a home shard and
//!   transactions that touch several shards commit with two-phase
//!   commit. Pair with `ERMIA_2PC_PREPARE_DELAY_MS` to widen the window
//!   between prepare and decide.
//! * `ERMIA_FAULT_PLAN` injects storage faults for degraded-mode drills:
//!   `enospc:<bytes>` (fail writes past a byte budget) or `fsync:<n>`
//!   (fail the nth fsync) — pair with the `Resume` wire frame after
//!   clearing the fault.
//! * `ERMIA_CKPT_MS=<ms>` runs a background checkpointer so kills can
//!   land mid-checkpoint.
//!
//! Talk to it with the client example (`--example client`) or any
//! program speaking the framed wire protocol (`ermia_server::protocol`).
//! Closing stdin (Ctrl-D, or the spawner closing the pipe) drains the
//! sessions and shuts down gracefully.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_log::{FaultInjector, FaultPlan, LogConfig};
use ermia_server::{Server, ServerConfig};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut dir = std::env::var("ERMIA_DATA_DIR").ok();
    let positive = |v: String| v.parse::<usize>().ok().filter(|&s| s >= 1);
    let mut shards = std::env::var("ERMIA_SHARDS").ok().and_then(positive).unwrap_or(1);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => {
                shards = args.next().and_then(positive).expect("--shards needs a positive integer")
            }
            "--data-dir" => dir = Some(args.next().expect("--data-dir needs a path")),
            _ => addr = a,
        }
    }
    let dir = dir
        .unwrap_or_else(|| std::env::temp_dir().join("ermia-server-example").display().to_string());

    let mut plan = FaultPlan::default();
    if let Ok(fault) = std::env::var("ERMIA_FAULT_PLAN") {
        if let Some(bytes) = fault.strip_prefix("enospc:") {
            plan.enospc_after_bytes = Some(bytes.parse().expect("enospc byte budget"));
        } else if let Some(n) = fault.strip_prefix("fsync:") {
            plan.fail_sync_at = Some(n.parse().expect("fsync call index"));
        } else if fault != "none" && !fault.is_empty() {
            panic!("unknown ERMIA_FAULT_PLAN {fault:?} (want enospc:<bytes> or fsync:<n>)");
        }
    }

    // Durable engine: the log goes to disk, sync commits really wait.
    let mut cfg = DbConfig::durable(&dir);
    cfg.log = LogConfig {
        dir: cfg.log.dir.clone(),
        io_factory: Arc::new(FaultInjector::new(plan)),
        ..cfg.log
    };
    let db = ShardedDb::open(cfg, shards)
        .expect("open database (is the data dir locked by a live server?)");
    // Recovery replays only tables declared before it runs; the drill
    // table is declared up front so crash drills find their data.
    db.create_table("chaos");
    let stats = db.recover().expect("recovery");
    eprintln!("recovered: {stats:?}");

    if let Some(ms) =
        std::env::var("ERMIA_CKPT_MS").ok().and_then(|v| v.parse::<u64>().ok()).filter(|&ms| ms > 0)
    {
        let ckpt_db = db.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(ms));
            let _ = ckpt_db.checkpoint();
        });
    }

    let srv = Server::start_sharded(&db, &addr, ServerConfig::default()).expect("bind");
    println!("PORT {}", srv.local_addr().port());
    let _ = std::io::stdout().flush();
    eprintln!(
        "ermia-server listening on {} ({} shard(s)), data dir {dir}; close stdin to shut down",
        srv.local_addr(),
        db.shards()
    );

    // Park until killed, or until stdin closes, which drains gracefully.
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).map(|n| n > 0).unwrap_or(false) {}

    eprintln!("draining sessions…");
    srv.shutdown();
    let stats = srv.stats();
    eprintln!(
        "served {} sessions, {} frames, {} commits; {} busy-rejects, {} protocol errors",
        stats.sessions_opened,
        stats.frames_processed,
        stats.commits,
        stats.busy_rejects,
        stats.protocol_errors
    );
    assert_eq!(stats.active_sessions, 0);
}
