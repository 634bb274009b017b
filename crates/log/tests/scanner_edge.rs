//! LogScanner edge cases: each test commits a known workload, then
//! corrupts the segment files the way a dying disk would — a wild `len`
//! field, a flipped payload bit, garbage where the next header should
//! be, a torn header at a segment boundary — and asserts the scanner
//! truncates cleanly at the damage instead of erroring or misreading.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ermia_common::{Oid, TableId};
use ermia_log::{LogConfig, LogManager, LogScanner, TxLogBuffer, BLOCK_HEADER_LEN};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ermia-scanedge-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: PathBuf) -> LogConfig {
    LogConfig {
        dir: Some(dir),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        ..LogConfig::default()
    }
}

/// Commit `n` one-record transactions, returning each block's logical
/// offset (LSN offset) and the directory's first segment file.
fn write_blocks(dir: &Path, n: u64) -> Vec<u64> {
    let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
    let mut offsets = Vec::new();
    for i in 0..n {
        let mut tx = TxLogBuffer::new();
        tx.add_update(TableId(1), Oid(i as u32), &i.to_be_bytes(), b"scanner-edge-payload");
        let res = log.allocate(tx.block_len()).unwrap();
        offsets.push(res.lsn().offset());
        let end = res.end_offset();
        let block = tx.serialize();
        res.fill(block);
        log.wait_durable(end).unwrap();
    }
    offsets
}

/// Scan the reopened log, returning the OIDs of every recovered record.
fn scan_oids(dir: &Path) -> Vec<u32> {
    let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut oids = Vec::new();
    while let Some(block) = scanner.next_block().expect("scan must not error") {
        for rec in block.records() {
            oids.push(rec.oid.0);
        }
    }
    oids
}

/// The (single) segment file holding logical offset 0.
fn first_segment_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.file_name()?.to_str()?.starts_with("log-").then_some(p)
        })
        .collect();
    files.sort();
    files.into_iter().next().expect("a segment file exists")
}

fn patch(path: &Path, pos: u64, bytes: &[u8]) {
    use std::os::unix::fs::FileExt;
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.write_all_at(bytes, pos).unwrap();
    f.sync_data().unwrap();
}

/// A block whose `len` field claims to run past the segment end is a
/// hole: the scanner stops there, keeping everything before it.
#[test]
fn corrupt_len_field_truncates_scan() {
    let dir = tmpdir("len");
    let offsets = write_blocks(&dir, 3);
    // len lives at header offset 8 (see records.rs layout).
    patch(&first_segment_file(&dir), offsets[1] + 8, &u32::MAX.to_le_bytes());
    assert_eq!(scan_oids(&dir), vec![0], "scan keeps block 0, stops at the wild len");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `len` smaller than a header is equally a hole.
#[test]
fn undersized_len_field_truncates_scan() {
    let dir = tmpdir("shortlen");
    let offsets = write_blocks(&dir, 3);
    patch(&first_segment_file(&dir), offsets[2] + 8, &4u32.to_le_bytes());
    assert_eq!(scan_oids(&dir), vec![0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped payload bit fails the Txn checksum: that block and
/// everything after it are truncated; blocks before it survive.
#[test]
fn checksum_mismatch_truncates_scan() {
    let dir = tmpdir("sum");
    let offsets = write_blocks(&dir, 4);
    let mid_payload = offsets[2] + BLOCK_HEADER_LEN as u64 + 20;
    patch(&first_segment_file(&dir), mid_payload, &[0xFF]);
    assert_eq!(scan_oids(&dir), vec![0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage bytes where the next header should sit (the classic torn
/// tail) end the scan without error.
#[test]
fn garbage_at_tail_is_a_hole() {
    let dir = tmpdir("tail");
    let offsets = write_blocks(&dir, 2);
    let block_len = offsets[1] - offsets[0];
    let tail = offsets[1] + block_len;
    patch(&first_segment_file(&dir), tail, b"\xde\xad\xbe\xef torn partial head");
    assert_eq!(scan_oids(&dir), vec![0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fill segments until rotation: the flusher closes each full segment
/// with a skip block that exactly fills its tail, and the scanner must
/// hop the skip into the next segment without losing a block.
#[test]
fn skip_block_filling_segment_tail_is_hopped() {
    let dir = tmpdir("rotate");
    // Enough blocks to cross several 4 KiB segment boundaries.
    let n = 120u64;
    {
        let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
        let mut last_end = 0;
        for i in 0..n {
            let mut tx = TxLogBuffer::new();
            tx.add_update(TableId(1), Oid(i as u32), &i.to_be_bytes(), b"rotation-payload");
            let res = log.allocate(tx.block_len()).unwrap();
            last_end = res.end_offset();
            let block = tx.serialize();
            res.fill(block);
        }
        log.wait_durable(last_end).unwrap();
        assert!(
            log.stats().rotations.load(Ordering::Relaxed) >= 1,
            "workload must actually rotate segments"
        );
    }
    let oids = scan_oids(&dir);
    assert_eq!(oids, (0..n as u32).collect::<Vec<_>>(), "no block lost across rotations");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tear the header sitting at a segment boundary (the closing skip of a
/// full segment): the scanner treats it as the first hole, so blocks in
/// later segments — past the hole — are not resurrected.
#[test]
fn torn_header_at_segment_boundary_truncates() {
    let dir = tmpdir("boundary");
    let n = 120u64;
    let mut offsets = Vec::new();
    {
        let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
        let mut last_end = 0;
        for i in 0..n {
            let mut tx = TxLogBuffer::new();
            tx.add_update(TableId(1), Oid(i as u32), &i.to_be_bytes(), b"boundary-payload");
            let res = log.allocate(tx.block_len()).unwrap();
            offsets.push(res.lsn().offset());
            last_end = res.end_offset();
            let block = tx.serialize();
            res.fill(block);
        }
        log.wait_durable(last_end).unwrap();
    }
    // The closing skip of segment 0 sits between the last block that
    // fits under 4096 and the segment end. Find that block.
    let seg_end = 4096u64;
    let in_first_seg = offsets.iter().filter(|&&o| o < seg_end).count();
    let block_len = offsets[1] - offsets[0];
    let skip_at = offsets[in_first_seg - 1] + block_len;
    assert!(skip_at <= seg_end, "skip header lies within segment 0");
    if skip_at < seg_end {
        // Smash the skip header's magic: a torn boundary header.
        patch(&first_segment_file(&dir), skip_at, &[0u8; 4]);
        let oids = scan_oids(&dir);
        assert_eq!(
            oids,
            (0..in_first_seg as u32).collect::<Vec<_>>(),
            "scan keeps segment 0's blocks and stops at the torn boundary header"
        );
    } else {
        // The last block ended flush with the segment: no skip was
        // needed, so tear the first header of segment 1 instead.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("log-").then_some(p)
            })
            .collect();
        files.sort();
        patch(&files[1], 0, &[0u8; 4]);
        let oids = scan_oids(&dir);
        assert_eq!(oids, (0..in_first_seg as u32).collect::<Vec<_>>());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
