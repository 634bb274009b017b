use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ermia_common::{Oid, TableId};

use crate::{
    BlockKind, LogConfig, LogManager, LogScanner, TxLogBuffer, MIN_BLOCK_LEN,
};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ermia-log-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg(dir: Option<PathBuf>) -> LogConfig {
    LogConfig {
        dir,
        segment_size: 4096,
        buffer_size: 1 << 20,
        fsync: false,
        flush_interval: std::time::Duration::from_micros(100),
        ..LogConfig::default()
    }
}

fn commit_block(log: &LogManager, table: u32, oid: u32, val: &[u8]) -> ermia_common::Lsn {
    let mut tx = TxLogBuffer::new();
    tx.add_update(TableId(table), Oid(oid), b"key", val);
    let res = log.allocate(tx.block_len()).unwrap();
    let lsn = res.lsn();
    let block = tx.serialize();
    res.fill(block);
    lsn
}

#[test]
fn allocate_fill_scan_roundtrip() {
    let dir = tmpdir("roundtrip");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    let l1 = commit_block(&log, 1, 10, b"hello");
    let l2 = commit_block(&log, 2, 20, b"world");
    assert!(l1 < l2);
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let b1 = scanner.next_block().unwrap().expect("first block");
    assert_eq!(b1.lsn, l1);
    assert_eq!(b1.header.kind, BlockKind::Txn);
    let recs = b1.records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].oid, Oid(10));
    assert_eq!(recs[0].value, b"hello");
    let b2 = scanner.next_block().unwrap().expect("second block");
    assert_eq!(b2.records()[0].value, b"world");
    assert!(scanner.next_block().unwrap().is_none());
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dropped_reservation_becomes_skip() {
    let dir = tmpdir("skip");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    let l1 = commit_block(&log, 1, 1, b"a");
    {
        let _res = log.allocate(64).unwrap();
        // dropped unfilled: aborted transaction
    }
    let l3 = commit_block(&log, 1, 2, b"b");
    assert!(l1 < l3);
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let vals: Vec<Vec<u8>> = std::iter::from_fn(|| scanner.next_block().unwrap())
        .map(|b| b.records()[0].value.clone())
        .collect();
    assert_eq!(vals, vec![b"a".to_vec(), b"b".to_vec()]);
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_rotation_preserves_blocks() {
    let dir = tmpdir("rotate");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    // Each block is ~64 bytes; a 4 KiB segment rotates every ~60 commits.
    let n = 400;
    let mut lsns = Vec::new();
    for i in 0..n {
        lsns.push(commit_block(&log, 1, i, format!("value-{i}").as_bytes()));
    }
    assert!(log.stats().rotations.load(Ordering::Relaxed) >= 4, "expected several rotations");
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = Vec::new();
    while let Some(block) = scanner.next_block().unwrap() {
        for rec in block.records() {
            seen.push(rec.value);
        }
    }
    assert_eq!(seen.len(), n as usize);
    for (i, v) in seen.iter().enumerate() {
        assert_eq!(v, format!("value-{i}").as_bytes());
    }
    // LSNs are strictly increasing.
    assert!(lsns.windows(2).all(|w| w[0] < w[1]));
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_resumes_after_tail() {
    let dir = tmpdir("reopen");
    {
        let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
        for i in 0..50 {
            commit_block(&log, 1, i, b"first-run");
        }
        log.sync().unwrap();
    }
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    let resumed_tail = log.tail_lsn();
    assert!(resumed_tail.offset() > 0, "tail must resume after existing blocks");
    commit_block(&log, 1, 999, b"second-run");
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut count = 0;
    let mut last = None;
    while let Some(block) = scanner.next_block().unwrap() {
        count += 1;
        last = Some(block.records()[0].value.clone());
    }
    assert_eq!(count, 51);
    assert_eq!(last.unwrap(), b"second-run");
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wait_durable_blocks_until_flushed() {
    let dir = tmpdir("durable");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    let mut tx = TxLogBuffer::new();
    tx.add_insert(TableId(1), Oid(1), b"k", b"v");
    let res = log.allocate(tx.block_len()).unwrap();
    let end = res.end_offset();
    let block = tx.serialize();
    res.fill(block);
    log.wait_durable(end).unwrap();
    assert!(log.durable_offset() >= end);
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lsn_to_file_validates_segment_number() {
    let dir = tmpdir("lookup");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();
    let lsn = commit_block(&log, 1, 1, b"x");
    let (seg, pos) = log.lsn_to_file(lsn).expect("valid lsn");
    assert_eq!(seg.segno(), lsn.segment());
    assert_eq!(pos, lsn.offset() - seg.start);
    // An LSN with a mismatched segment number is rejected.
    let bogus = ermia_common::Lsn::from_parts(lsn.offset(), (lsn.segment() + 1) % 16);
    assert!(log.lsn_to_file(bogus).is_none());
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_memory_mode_allocates_and_recycles_buffer() {
    let log = LogManager::open(LogConfig {
        dir: None,
        segment_size: 1 << 20,
        buffer_size: 64 << 10,
        ..LogConfig::default()
    })
    .unwrap();
    // Write far more than the buffer capacity; the flusher must recycle.
    for i in 0..5_000 {
        commit_block(&log, 1, i, &[0xAB; 100]);
    }
    assert!(log.tail_lsn().offset() > 64 << 10);
}

#[test]
fn concurrent_commits_all_recovered_in_order() {
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 300;
    let dir = tmpdir("concurrent");
    let log = LogManager::open(small_cfg(Some(dir.clone()))).unwrap();

    crossbeam::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move |_| {
                for i in 0..PER_THREAD {
                    let payload = format!("t{t}-i{i}");
                    commit_block(log, t, i, payload.as_bytes());
                }
            });
        }
    })
    .unwrap();
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = std::collections::HashSet::new();
    let mut last_lsn = None;
    while let Some(block) = scanner.next_block().unwrap() {
        if let Some(prev) = last_lsn {
            assert!(block.lsn > prev, "scan order must follow LSN order");
        }
        last_lsn = Some(block.lsn);
        for rec in block.records() {
            assert!(seen.insert(String::from_utf8(rec.value).unwrap()), "duplicate block");
        }
    }
    assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rotation_with_full_ring_converges() {
    // Regression for an availability-ring invariant violation: the skip
    // and dead-zone publication paths used to stamp slots without first
    // waiting for the space window to cover them. With a minimum-size
    // ring and segment-sized churn the buffer is full nearly all the
    // time, so rotation losers routinely hold claims beyond
    // `flushed + cap`; stamping those early clobbered the previous
    // generation's unconsumed stamps and stalled the watermark forever
    // (flusher deadlock, wait_durable timeouts). The fixed paths block
    // for space first — this hammer must converge, and in debug builds
    // the window assert in `mark_filled` polices every stamp.
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 400;
    let log = LogManager::open(LogConfig {
        dir: None,
        segment_size: 4096, // a rotation roughly every ring's worth
        buffer_size: 4096,  // the minimum: writers outrun the flusher
        flush_interval: std::time::Duration::from_micros(50),
        ..LogConfig::default()
    })
    .unwrap();
    crossbeam::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move |_| {
                for i in 0..PER_THREAD {
                    let mut tx = TxLogBuffer::new();
                    tx.add_update(TableId(t), Oid(i), b"key", b"rotation-payload");
                    let res = log.allocate(tx.block_len()).unwrap();
                    let end = res.end_offset();
                    let block = tx.serialize();
                    res.fill(block);
                    // Park on durability now and then so demand-driven
                    // wakes interleave with the full-ring churn.
                    if i % 32 == 0 {
                        log.wait_durable(end).unwrap();
                    }
                }
            });
        }
    })
    .unwrap();
    log.sync().unwrap();
    let rotations = log.stats().rotations.load(Ordering::Relaxed);
    assert!(rotations >= 8, "only {rotations} rotations: the hammer missed its target");
}

#[test]
fn per_operation_allocation_is_slower_shape() {
    // Sanity for the Fig. 10 experiment plumbing: allocating per record
    // costs more fetch_adds than one block per transaction.
    let log = LogManager::open(LogConfig::in_memory()).unwrap();
    let before = log.stats().allocations.load(Ordering::Relaxed);
    // per-transaction: 1 allocation for 10 records
    let mut tx = TxLogBuffer::new();
    for i in 0..10 {
        tx.add_update(TableId(1), Oid(i), b"k", b"v");
    }
    let res = log.allocate(tx.block_len()).unwrap();
    let block = tx.serialize();
    res.fill(block);
    // per-operation: 10 allocations
    for i in 0..10u32 {
        commit_block(&log, 1, i, b"v");
    }
    let after = log.stats().allocations.load(Ordering::Relaxed);
    assert_eq!(after - before, 11);
}

#[test]
fn block_len_rounding_matches_reservation() {
    let log = LogManager::open(LogConfig::in_memory()).unwrap();
    let mut tx = TxLogBuffer::new();
    tx.add_insert(TableId(1), Oid(1), b"odd-key", b"odd-value-bytes");
    let res = log.allocate(tx.block_len()).unwrap();
    assert_eq!(res.len() % MIN_BLOCK_LEN, 0);
    let block = tx.serialize();
    assert_eq!(block.len(), res.len());
    res.fill(block);
}

#[test]
fn wait_durable_times_out_when_flusher_is_dead() {
    let log = LogManager::open(LogConfig::in_memory()).unwrap();
    // Kill the flusher: durability can no longer advance.
    log.halt_flusher_for_test();
    let mut tx = TxLogBuffer::new();
    tx.add_insert(TableId(1), Oid(1), b"key", b"value");
    let res = log.allocate(tx.block_len()).unwrap();
    let end = res.end_offset();
    let block = tx.serialize();
    res.fill(block);
    let start = std::time::Instant::now();
    let err = log
        .wait_durable_for(end, std::time::Duration::from_millis(50))
        .expect_err("no flusher, no durability");
    assert_eq!(err, ermia_common::LogError::Timeout);
    assert!(start.elapsed() >= std::time::Duration::from_millis(50));
    assert!(!log.is_poisoned(), "a timeout is not a poisoned log");
}

#[test]
fn wait_durable_timeout_config_is_honored() {
    let cfg = LogConfig {
        wait_durable_timeout: std::time::Duration::from_millis(30),
        ..LogConfig::in_memory()
    };
    let log = LogManager::open(cfg).unwrap();
    log.halt_flusher_for_test();
    let mut tx = TxLogBuffer::new();
    tx.add_insert(TableId(1), Oid(2), b"key", b"value");
    let res = log.allocate(tx.block_len()).unwrap();
    let end = res.end_offset();
    let block = tx.serialize();
    res.fill(block);
    // The default-entry wait_durable picks up the configured cap.
    assert_eq!(log.wait_durable(end), Err(ermia_common::LogError::Timeout));
}

#[test]
fn sync_commit_latency_is_demand_driven_not_interval_driven() {
    // With a deliberately glacial flush interval, a synchronous commit
    // must still complete almost immediately: the committer's registered
    // durability target wakes the flusher on fill, so latency tracks the
    // actual flush cost rather than the group-commit timer.
    let cfg = LogConfig {
        flush_interval: std::time::Duration::from_millis(500),
        ..LogConfig::in_memory()
    };
    let log = LogManager::open(cfg).unwrap();
    for i in 0..5u32 {
        let mut tx = TxLogBuffer::new();
        tx.add_update(TableId(1), Oid(i), b"key", b"value");
        let res = log.allocate(tx.block_len()).unwrap();
        let end = res.end_offset();
        let block = tx.serialize();
        let start = std::time::Instant::now();
        res.fill(block);
        log.wait_durable(end).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "commit {i} took {elapsed:?}: flusher is sleeping through demand"
        );
    }
}

#[test]
fn idle_batching_preserved_when_nobody_waits() {
    // Without a registered durability target the flusher keeps its lazy
    // group-commit cadence: a small fill does not force an eager flush.
    let cfg = LogConfig {
        flush_interval: std::time::Duration::from_millis(200),
        ..LogConfig::in_memory()
    };
    let log = LogManager::open(cfg).unwrap();
    let mut tx = TxLogBuffer::new();
    tx.add_update(TableId(1), Oid(1), b"key", b"value");
    let res = log.allocate(tx.block_len()).unwrap();
    let end = res.end_offset();
    let block = tx.serialize();
    res.fill(block);
    // Immediately after the fill the watermark should (almost certainly)
    // still be behind: nobody demanded durability, so the flusher is
    // parked on its interval. Allow a scheduling-noise grace window.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let eager = log.durable_offset() >= end;
    if eager {
        // A flush this early is only legitimate right after open (the
        // flusher's first pass) — tolerate it rather than flake, but the
        // demand-driven test above is the one that guards the contract.
        eprintln!("note: flusher drained without demand (startup pass)");
    }
    log.wait_durable(end).unwrap();
}
