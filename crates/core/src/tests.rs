use std::sync::atomic::{AtomicU64, Ordering};

use ermia_common::AbortReason;

use crate::{Database, DbConfig, IsolationLevel};

fn db() -> Database {
    Database::open(DbConfig::in_memory()).unwrap()
}

const SI: IsolationLevel = IsolationLevel::Snapshot;
const SSN: IsolationLevel = IsolationLevel::Serializable;

fn get(tx: &mut crate::Transaction<'_>, t: ermia_common::TableId, k: &[u8]) -> Option<Vec<u8>> {
    tx.read(t, k, |v| v.to_vec()).unwrap()
}

#[test]
fn insert_read_update_delete_roundtrip() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(SSN);
    tx.insert(t, b"k1", b"v1").unwrap();
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v1"[..]));
    assert!(tx.update(t, b"k1", b"v2").unwrap());
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v2"[..]), "read-your-writes");
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v2"[..]));
    assert!(tx.delete(t, b"k1").unwrap());
    assert_eq!(get(&mut tx, t, b"k1"), None, "deleted in own snapshot");
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1"), None);
    tx.commit().unwrap();
}

#[test]
fn update_missing_key_returns_false() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SSN);
    assert!(!tx.update(t, b"nope", b"x").unwrap());
    assert!(!tx.delete(t, b"nope").unwrap());
    tx.commit().unwrap();
}

#[test]
fn snapshot_isolation_basic() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    // Reader begins first; writer commits afterwards; reader must keep
    // seeing the old value (repeatable snapshot).
    let mut reader = w1.begin(SI);
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));

    let mut writer = w2.begin(SI);
    assert!(writer.update(t, b"x", b"1").unwrap());
    // Uncommitted: invisible to the reader.
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));
    writer.commit().unwrap();
    // Committed after the reader began: still invisible.
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));
    reader.commit().unwrap();

    // A fresh snapshot sees the new value.
    let mut tx = w1.begin(SI);
    assert_eq!(get(&mut tx, t, b"x").as_deref(), Some(&b"1"[..]));
    tx.commit().unwrap();
}

#[test]
fn first_updater_wins() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = w1.begin(SI);
    let mut t2 = w2.begin(SI);
    assert!(t1.update(t, b"x", b"a").unwrap());
    // t2 hits t1's uncommitted head version — the write lock — and is
    // doomed immediately (early abort, not at commit).
    let err = t2.update(t, b"x", b"b").unwrap_err();
    assert_eq!(err, AbortReason::WriteWriteConflict);
    assert!(t2.is_doomed());
    // Further operations fail fast with the original reason.
    assert_eq!(t2.read(t, b"x", |_| ()).unwrap_err(), AbortReason::WriteWriteConflict);
    assert_eq!(t2.commit().unwrap_err(), AbortReason::WriteWriteConflict);
    t1.commit().unwrap();
}

#[test]
fn committed_head_newer_than_snapshot_blocks_update() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = w1.begin(SI); // snapshot before t2's commit
    let mut t2 = w2.begin(SI);
    t2.update(t, b"x", b"1").unwrap();
    t2.commit().unwrap();
    // t1's snapshot predates the committed head: lost-update prevention.
    assert_eq!(t1.update(t, b"x", b"2").unwrap_err(), AbortReason::WriteWriteConflict);
}

#[test]
fn abort_rolls_back_everything() {
    let db = db();
    let t = db.create_table("t");
    let idx = db.create_secondary_index(t, "t.sec");
    let mut w = db.register_worker();

    let mut setup = w.begin(SI);
    setup.insert(t, b"old", b"1").unwrap();
    setup.commit().unwrap();

    let mut tx = w.begin(SI);
    let oid = tx.insert(t, b"new", b"2").unwrap();
    tx.insert_secondary(idx, b"sec-new", oid).unwrap();
    tx.update(t, b"old", b"changed").unwrap();
    tx.abort();

    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"new"), None, "insert rolled back");
    assert_eq!(get(&mut check, t, b"old").as_deref(), Some(&b"1"[..]), "update rolled back");
    assert_eq!(check.read_secondary(idx, b"sec-new", |v| v.to_vec()).unwrap(), None);
    check.commit().unwrap();
}

#[test]
fn dropping_transaction_aborts() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    {
        let mut tx = w.begin(SI);
        tx.insert(t, b"ghost", b"1").unwrap();
        // dropped without commit
    }
    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"ghost"), None);
    check.commit().unwrap();
    let (commits, aborts) = db.txn_counts();
    assert_eq!(commits, 1);
    assert_eq!(aborts, 1);
}

#[test]
fn reinsert_after_delete_revives() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v1").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    tx.delete(t, b"k").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v2").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v2"[..]));
    tx.commit().unwrap();
}

#[test]
fn duplicate_insert_dooms() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    assert_eq!(tx.insert(t, b"k", b"v2").unwrap_err(), AbortReason::DuplicateKey);
}

#[test]
fn write_skew_prevented_by_ssn_allowed_by_si() {
    // Classic write skew: constraint x + y >= 0, both start at 50.
    // T1 reads both, sets x = x - 90; T2 reads both, sets y = y - 90.
    // Under SI both commit (non-serializable); under SSN one aborts.
    for (iso, expect_both) in [(SI, true), (SSN, false)] {
        let db = db();
        let t = db.create_table("t");
        let mut w1 = db.register_worker();
        let mut w2 = db.register_worker();
        let mut setup = w1.begin(SI);
        setup.insert(t, b"x", b"50").unwrap();
        setup.insert(t, b"y", b"50").unwrap();
        setup.commit().unwrap();

        let mut t1 = w1.begin(iso);
        let mut t2 = w2.begin(iso);
        let _ = get(&mut t1, t, b"x");
        let _ = get(&mut t1, t, b"y");
        let _ = get(&mut t2, t, b"x");
        let _ = get(&mut t2, t, b"y");
        t1.update(t, b"x", b"-40").unwrap();
        t2.update(t, b"y", b"-40").unwrap();
        let r1 = t1.commit();
        let r2 = t2.commit();
        if expect_both {
            assert!(r1.is_ok() && r2.is_ok(), "SI permits write skew");
        } else {
            assert!(
                r1.is_ok() != r2.is_ok(),
                "SSN must abort exactly one of the write-skew pair: {r1:?} {r2:?}"
            );
            let failed = r1.err().or(r2.err()).expect("one side aborted");
            assert_eq!(failed, AbortReason::SsnExclusion);
        }
    }
}

#[test]
fn phantom_prevented_under_ssn() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let pk = db.primary_index(t);

    let mut setup = w1.begin(SI);
    for i in [10u8, 20, 30] {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    // t1 scans [0, 100], then t2 inserts 15 into the range and commits,
    // then t1 writes something (so it is not read-only) and commits.
    let mut t1 = w1.begin(SSN);
    let mut n = 0;
    t1.scan(pk, &[0], &[100], None, |_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 3);
    let mut t2 = w2.begin(SSN);
    t2.insert(t, &[15], &[15]).unwrap();
    t2.commit().unwrap();

    t1.insert(t, &[200], &[200]).unwrap();
    assert_eq!(t1.commit().unwrap_err(), AbortReason::Phantom);
}

#[test]
fn scan_sees_consistent_snapshot() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    for i in 0..20u8 {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    let mut reader = w1.begin(SI);
    // Interleave: writer updates half the range and inserts new keys.
    let mut writer = w2.begin(SI);
    for i in 0..10u8 {
        writer.update(t, &[i], &[100 + i]).unwrap();
    }
    writer.insert(t, &[50], &[50]).unwrap();
    writer.commit().unwrap();

    let mut seen = Vec::new();
    reader
        .scan(pk, &[0], &[99], None, |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
    // The reader's snapshot: original 20 keys, original values, no 50.
    assert_eq!(seen.len(), 20);
    for (k, v) in &seen {
        assert_eq!(k, v, "reader must see pre-update values");
    }
    reader.commit().unwrap();
}

#[test]
fn scan_limit_stops_early() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..100u8 {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();
    let mut tx = w.begin(SI);
    let n = tx.scan(pk, &[0], &[255], Some(7), |_, _| true).unwrap();
    assert_eq!(n, 7);
    tx.commit().unwrap();
}

#[test]
fn secondary_index_read_and_scan() {
    let db = db();
    let t = db.create_table("people");
    let by_name = db.create_secondary_index(t, "people.by_name");
    let mut w = db.register_worker();

    let mut tx = w.begin(SI);
    let o1 = tx.insert(t, b"id-1", b"alice-data").unwrap();
    tx.insert_secondary(by_name, b"alice", o1).unwrap();
    let o2 = tx.insert(t, b"id-2", b"bob-data").unwrap();
    tx.insert_secondary(by_name, b"bob", o2).unwrap();
    tx.commit().unwrap();

    let mut tx = w.begin(SI);
    let data = tx.read_secondary(by_name, b"alice", |v| v.to_vec()).unwrap();
    assert_eq!(data.as_deref(), Some(&b"alice-data"[..]));
    let mut names = Vec::new();
    tx.scan(by_name, b"a", b"z", None, |k, _| {
        names.push(k.to_vec());
        true
    })
    .unwrap();
    assert_eq!(names, vec![b"alice".to_vec(), b"bob".to_vec()]);
    tx.commit().unwrap();
}

#[test]
fn long_reader_survives_concurrent_writers() {
    // The paper's headline behaviour: under multi-versioning,
    // read-write conflicts never abort readers.
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..200u32 {
        setup.insert(t, &i.to_be_bytes(), &0u64.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();

    let stop = AtomicU64::new(0);
    crossbeam::scope(|s| {
        // Writers hammer the range.
        for _ in 0..2 {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move |_| {
                let mut w = db.register_worker();
                let mut i = 0u32;
                while stop.load(Ordering::Relaxed) == 0 {
                    let mut tx = w.begin(SI);
                    let k = (i % 200).to_be_bytes();
                    let ok = tx.update(t, &k, &(i as u64).to_le_bytes());
                    if ok.is_ok() {
                        let _ = tx.commit();
                    }
                    i += 1;
                }
            });
        }
        // A long reader scans the whole table repeatedly; every scan must
        // succeed and see a consistent snapshot.
        let dbr = db.clone();
        let stopr = &stop;
        s.spawn(move |_| {
            let mut w = dbr.register_worker();
            for _ in 0..30 {
                let mut tx = w.begin(SI);
                let mut count = 0;
                tx.scan(pk, &0u32.to_be_bytes(), &200u32.to_be_bytes(), None, |_, _| {
                    count += 1;
                    true
                })
                .expect("reader must never be doomed under SI");
                assert_eq!(count, 200);
                tx.commit().expect("reader commit must succeed");
            }
            stopr.store(1, Ordering::Relaxed);
        });
    })
    .unwrap();
}

#[test]
fn concurrent_transfers_preserve_invariant() {
    // N accounts, random transfers; total balance must be conserved.
    const ACCOUNTS: u64 = 16;
    const TRANSFERS: u64 = 2000;
    let db = db();
    let t = db.create_table("accounts");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..ACCOUNTS {
        setup.insert(t, &i.to_be_bytes(), &100i64.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();

    crossbeam::scope(|s| {
        for tidx in 0..3u64 {
            let db = db.clone();
            s.spawn(move |_| {
                let mut w = db.register_worker();
                let mut state = tidx.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut done = 0;
                while done < TRANSFERS {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let from = (state >> 33) % ACCOUNTS;
                    let to = (state >> 13) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let mut tx = w.begin(SI);
                    let r = (|| -> ermia_common::OpResult<()> {
                        let fb = tx
                            .read(t, &from.to_be_bytes(), |v| {
                                i64::from_le_bytes(v.try_into().unwrap())
                            })?
                            .unwrap();
                        let tb = tx
                            .read(t, &to.to_be_bytes(), |v| {
                                i64::from_le_bytes(v.try_into().unwrap())
                            })?
                            .unwrap();
                        tx.update(t, &from.to_be_bytes(), &(fb - 1).to_le_bytes())?;
                        tx.update(t, &to.to_be_bytes(), &(tb + 1).to_le_bytes())?;
                        Ok(())
                    })();
                    match r {
                        Ok(()) => {
                            if tx.commit().is_ok() {
                                done += 1;
                            }
                        }
                        Err(_) => tx.abort(),
                    }
                }
            });
        }
    })
    .unwrap();

    let mut check = w.begin(SI);
    let mut total = 0i64;
    for i in 0..ACCOUNTS {
        total += check
            .read(t, &i.to_be_bytes(), |v| i64::from_le_bytes(v.try_into().unwrap()))
            .unwrap()
            .unwrap();
    }
    check.commit().unwrap();
    assert_eq!(total, (ACCOUNTS as i64) * 100, "money must be conserved");
}

#[test]
fn read_only_commit_is_cheap() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", b"v").unwrap();
    setup.commit().unwrap();

    let allocs_before = db.log().stats().allocations.load(Ordering::Relaxed);
    for _ in 0..10 {
        let mut tx = w.begin(SSN);
        let _ = get(&mut tx, t, b"k");
        tx.commit().unwrap();
    }
    let allocs_after = db.log().stats().allocations.load(Ordering::Relaxed);
    assert_eq!(allocs_before, allocs_after, "read-only commits allocate no log space");
}

#[test]
fn per_op_logging_mode() {
    let cfg = DbConfig { per_op_logging: true, ..DbConfig::in_memory() };
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let before = db.log().stats().allocations.load(Ordering::Relaxed);
    let mut tx = w.begin(SI);
    for i in 0..5u8 {
        tx.insert(t, &[i], &[i]).unwrap();
    }
    tx.commit().unwrap();
    let after = db.log().stats().allocations.load(Ordering::Relaxed);
    // 5 per-op round trips + 1 commit block.
    assert_eq!(after - before, 6);
}

#[test]
fn checkpoint_and_recovery_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ermia-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = |db: &Database| {
        let t = db.create_table("t");
        let idx = db.create_secondary_index(t, "t.sec");
        (t, idx)
    };
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let (t, idx) = schema(&db);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        for i in 0..50u32 {
            let oid = tx.insert(t, &i.to_be_bytes(), format!("val-{i}").as_bytes()).unwrap();
            tx.insert_secondary(idx, &(1000 + i).to_be_bytes(), oid).unwrap();
        }
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint work that must come back via log replay.
        let mut tx = w.begin(SI);
        tx.update(t, &7u32.to_be_bytes(), b"updated-after-checkpoint").unwrap();
        tx.insert(t, &999u32.to_be_bytes(), b"post-checkpoint-insert").unwrap();
        tx.delete(t, &9u32.to_be_bytes()).unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    // Reopen: re-declare schema, recover, verify.
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let (t, idx) = schema(&db);
        let stats = db.recover().unwrap();
        assert!(stats.checkpoint_records >= 50);
        assert!(stats.replayed_records >= 3);

        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&b"val-0"[..]));
        assert_eq!(
            get(&mut tx, t, &7u32.to_be_bytes()).as_deref(),
            Some(&b"updated-after-checkpoint"[..])
        );
        assert_eq!(
            get(&mut tx, t, &999u32.to_be_bytes()).as_deref(),
            Some(&b"post-checkpoint-insert"[..])
        );
        assert_eq!(get(&mut tx, t, &9u32.to_be_bytes()), None, "delete must replay");
        let via_sec = tx.read_secondary(idx, &1003u32.to_be_bytes(), |v| v.to_vec()).unwrap();
        assert_eq!(via_sec.as_deref(), Some(&b"val-3"[..]));
        tx.commit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_checkpoint_replays_whole_log() {
    let dir = std::env::temp_dir().join(format!("ermia-recovery-nochk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"a", b"1").unwrap();
        tx.insert(t, b"b", b"2").unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let stats = db.recover().unwrap();
        assert_eq!(stats.checkpoint_records, 0);
        assert_eq!(stats.replayed_records, 2);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(get(&mut tx, t, b"b").as_deref(), Some(&b"2"[..]));
        tx.commit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_reclaims_old_versions() {
    let cfg = DbConfig {
        gc_interval: std::time::Duration::from_millis(1),
        ..DbConfig::in_memory()
    };
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"hot", b"0").unwrap();
    tx.commit().unwrap();
    // Pile up versions.
    for i in 0..500u32 {
        let mut tx = w.begin(SI);
        tx.update(t, b"hot", &i.to_le_bytes()).unwrap();
        tx.commit().unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let stats = db.epoch_stats();
    // The unified epoch manager must have retired old versions — either
    // freed outright or parked in the reuse pool.
    assert!(
        stats.freed > 0 || db.version_pool_size() > 0,
        "gc must reclaim old versions: {stats:?}"
    );
    // And the table still reads correctly.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"hot").as_deref(), Some(&499u32.to_le_bytes()[..]));
    tx.commit().unwrap();
}

#[test]
fn ssn_allows_serializable_histories() {
    // Simple non-conflicting updates must never be aborted by SSN.
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..10u8 {
        setup.insert(t, &[i], &[0]).unwrap();
    }
    setup.commit().unwrap();
    for round in 0..50u8 {
        let mut tx = w.begin(SSN);
        let i = round % 10;
        let _ = get(&mut tx, t, &[i]);
        tx.update(t, &[i], &[round]).unwrap();
        tx.commit().expect("sequential updates are serializable");
    }
}

#[test]
fn long_reader_sees_stable_value_despite_gc() {
    // A reader's snapshot version must survive GC while the reader lives.
    let cfg = DbConfig { gc_interval: std::time::Duration::from_millis(1), ..DbConfig::in_memory() };
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", &0u64.to_le_bytes()).unwrap();
    setup.commit().unwrap();

    let mut reader = w.begin(SI);
    let v0 = reader.read(t, b"k", |v| u64::from_le_bytes(v.try_into().unwrap())).unwrap().unwrap();
    // Hammer updates so GC has plenty to truncate.
    for i in 1..300u64 {
        let mut tx = w2.begin(SI);
        tx.update(t, b"k", &i.to_le_bytes()).unwrap();
        tx.commit().unwrap();
        if i % 50 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    // The reader still sees its snapshot value.
    let v1 = reader.read(t, b"k", |v| u64::from_le_bytes(v.try_into().unwrap())).unwrap().unwrap();
    assert_eq!(v0, v1);
    reader.commit().unwrap();
}

#[test]
fn scan_resume_across_collection_cap() {
    // A tight limit forces the two-phase scan to resume collection; the
    // delivered sequence must still be exact and ordered.
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..500u32 {
        setup.insert(t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();
    // Delete every other row so visibility filtering forces resumption.
    let mut tx = w.begin(SI);
    for i in (0..500u32).step_by(2) {
        tx.delete(t, &i.to_be_bytes()).unwrap();
    }
    tx.commit().unwrap();

    let mut tx = w.begin(SI);
    let mut got = Vec::new();
    let n = tx
        .scan(pk, &0u32.to_be_bytes(), &500u32.to_be_bytes(), Some(100), |k, _| {
            got.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
    assert_eq!(n, 100);
    let expect: Vec<u32> = (0..500).filter(|i| i % 2 == 1).take(100).collect();
    assert_eq!(got, expect);
    tx.commit().unwrap();
}

#[test]
fn update_then_delete_then_insert_same_txn() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", b"v0").unwrap();
    setup.commit().unwrap();

    let mut tx = w.begin(SI);
    assert!(tx.update(t, b"k", b"v1").unwrap());
    assert!(tx.delete(t, b"k").unwrap());
    assert_eq!(get(&mut tx, t, b"k"), None);
    assert!(!tx.update(t, b"k", b"v2").unwrap(), "update after own delete misses");
    assert!(!tx.delete(t, b"k").unwrap(), "double delete misses");
    tx.insert(t, b"k", b"v3").unwrap();
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v3"[..]));
    tx.commit().unwrap();

    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"k").as_deref(), Some(&b"v3"[..]));
    check.commit().unwrap();
}

#[test]
fn ssn_aborts_propagate_reason_through_commit() {
    // A doomed transaction's commit returns the original reason, and
    // counters attribute it as an abort.
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let (c0, a0) = db.txn_counts();
    let mut t1 = w1.begin(SI);
    let mut t2 = w2.begin(SI);
    t1.update(t, b"x", b"a").unwrap();
    assert!(t2.update(t, b"x", b"b").is_err());
    assert_eq!(t2.commit().unwrap_err(), AbortReason::WriteWriteConflict);
    t1.commit().unwrap();
    let (c1, a1) = db.txn_counts();
    assert_eq!(c1 - c0, 1);
    assert_eq!(a1 - a0, 1);
}

#[test]
fn secondary_scan_respects_snapshot() {
    let db = db();
    let t = db.create_table("t");
    let sec = db.create_secondary_index(t, "t.sec");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(SI);
    for i in 0..10u32 {
        let oid = setup.insert(t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        setup.insert_secondary(sec, &(100 + i).to_be_bytes(), oid).unwrap();
    }
    setup.commit().unwrap();

    let mut reader = w1.begin(SI);
    // Writer adds a new record + secondary entry after the reader began.
    let mut writer = w2.begin(SI);
    let oid = writer.insert(t, &99u32.to_be_bytes(), &99u32.to_le_bytes()).unwrap();
    writer.insert_secondary(sec, &105u32.to_be_bytes(), oid).unwrap_err(); // dup key
    writer.abort();
    let mut writer = w2.begin(SI);
    let oid = writer.insert(t, &99u32.to_be_bytes(), &99u32.to_le_bytes()).unwrap();
    writer.insert_secondary(sec, &150u32.to_be_bytes(), oid).unwrap();
    writer.commit().unwrap();

    // The reader's secondary scan must not see the new entry's record.
    let mut count = 0;
    reader
        .scan(sec, &100u32.to_be_bytes(), &200u32.to_be_bytes(), None, |_, _| {
            count += 1;
            true
        })
        .unwrap();
    assert_eq!(count, 10, "snapshot scan must exclude post-begin inserts");
    reader.commit().unwrap();
}

#[test]
fn epoch_stats_visible_through_database() {
    let db = db();
    let stats = db.epoch_stats();
    // The ticker advances the unified timeline in the background.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let later = db.epoch_stats();
    assert!(later.epoch > stats.epoch, "unified epoch must tick");
}

#[test]
fn large_values_divert_to_blobs_and_recover() {
    let dir = std::env::temp_dir().join(format!("ermia-blob-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let big = vec![0xCDu8; 32 * 1024];
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.large_value_threshold = 1024;
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"small", b"tiny-value").unwrap();
        tx.insert(t, b"large", &big).unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
        assert!(db.inner.blobs.size() >= big.len() as u64, "big value must hit the blob store");
        // The log block must be small: it carries a 12-byte reference,
        // not 32 KiB.
        assert!(db.log().tail_lsn().offset() < 4096);
    }
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        db.recover().unwrap();
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"small").as_deref(), Some(&b"tiny-value"[..]));
        assert_eq!(get(&mut tx, t, b"large"), Some(big));
        tx.commit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_truncation_after_checkpoint() {
    let dir = std::env::temp_dir().join(format!("ermia-truncate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192; // force frequent rotations
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for i in 0..200u32 {
            let mut tx = w.begin(SI);
            tx.insert(t, &i.to_be_bytes(), &[0xAB; 128]).unwrap();
            tx.commit().unwrap();
        }
        db.log().sync().unwrap();
        let before = db.log().segments().all().len();
        assert!(before > 2, "need several segments to make truncation meaningful");
        db.checkpoint().unwrap();
        // Post-checkpoint work so the tail segment stays live.
        let mut tx = w.begin(SI);
        tx.insert(t, b"after", b"x").unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
        let removed = db.truncate_log().unwrap();
        assert!(removed > 0, "old segments must be retired");
        assert!(db.log().segments().all().len() < before);
    }
    // Recovery still works from checkpoint + surviving tail.
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192;
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let stats = db.recover().unwrap();
        assert!(stats.checkpoint_records >= 200);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&[0xABu8; 128][..]));
        assert_eq!(get(&mut tx, t, b"after").as_deref(), Some(&b"x"[..]));
        tx.commit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scratch_reuse_leaves_no_residue_across_transactions() {
    // All transactions below share one worker, so they recycle the same
    // scratch sets and key arena. An aborted transaction's writes must
    // vanish entirely and never bleed into the next transaction.
    let db = db();
    let t = db.create_table("t");
    let idx = db.create_secondary_index(t, "t.sec");
    let mut w = db.register_worker();

    let mut tx = w.begin(SSN);
    let oid = tx.insert(t, b"a", b"1").unwrap();
    tx.insert_secondary(idx, b"sec-a", oid).unwrap();
    tx.commit().unwrap();

    // Fill every working set, then abort.
    let mut tx = w.begin(SSN);
    let oid_b = tx.insert(t, b"b", b"2").unwrap();
    tx.insert_secondary(idx, b"sec-b", oid_b).unwrap();
    assert!(tx.update(t, b"a", b"1-dirty").unwrap());
    tx.abort();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1"[..]));
    assert_eq!(get(&mut tx, t, b"b"), None, "aborted insert must not resurface");
    assert_eq!(tx.read_secondary(idx, b"sec-b", |v| v.to_vec()).unwrap(), None);
    assert_eq!(
        tx.read_secondary(idx, b"sec-a", |v| v.to_vec()).unwrap().as_deref(),
        Some(&b"1"[..])
    );
    // A fresh write on the recycled write set commits cleanly.
    assert!(tx.update(t, b"a", b"1-clean").unwrap());
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1-clean"[..]));
    tx.commit().unwrap();
}

#[test]
fn version_nodes_recycle_through_worker_cache() {
    // Update churn retires old versions through the GC into the shared
    // pool; the worker's cache must start serving them back instead of
    // allocating.
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"hot", b"0").unwrap();
    tx.commit().unwrap();

    let mut reused = 0;
    for _round in 0..100 {
        for i in 0..20u32 {
            let mut tx = w.begin(SI);
            tx.update(t, b"hot", &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        reused = w.versions_reused();
        if reused > 0 {
            break;
        }
    }
    assert!(reused > 0, "worker cache never served a recycled version");
}

#[test]
fn breakdown_survives_worker_churn_without_growing_registry() {
    // Short-lived workers must not grow the slab registry (or leak their
    // slabs): a retiring worker folds its counts into the retained
    // aggregate and leaves the live set, so `Database::breakdown` stays
    // complete *and* O(current workers).
    let cfg = DbConfig { profile: true, ..DbConfig::in_memory() };
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    for i in 0..8u32 {
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"v").unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(db.breakdown().txns, 8, "retired workers' counts are retained");
    let reg = db.telemetry().registry();
    assert_eq!(reg.live_slabs(&crate::metrics::PROFILE_FAMILY), 0, "no live slabs after churn");

    // With profiling off, worker churn must not register anything at all.
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    for i in 0..8u32 {
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"v").unwrap();
        tx.commit().unwrap();
    }
    let reg = db.telemetry().registry();
    assert_eq!(
        reg.live_slabs(&crate::metrics::PROFILE_FAMILY),
        0,
        "profiling off: never registered"
    );
}

#[test]
fn log_retention_handle_clamps_truncation_until_dropped() {
    // A backup shipper pins the log; truncation must stall behind the
    // pin and resume — retiring the same segments — once it drops.
    let dir = std::env::temp_dir().join(format!("ermia-retention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.segment_size = 8192;
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for i in 0..200u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), &[0xCD; 128]).unwrap();
        tx.commit().unwrap();
    }
    db.log().sync().unwrap();
    let before = db.log().segments().all().len();
    assert!(before > 2, "need several segments for truncation to bite");
    let pin = db.pin_log(0);
    db.checkpoint().unwrap();

    // Pinned at 0: nothing may be retired even though the checkpoint
    // would allow it.
    assert_eq!(db.truncate_log().unwrap(), 0, "retention pin must clamp truncation");
    assert_eq!(db.log().segments().all().len(), before);

    // Advancing the pin releases the prefix below it.
    let mid = db.log().segments().all()[1].start;
    pin.advance(mid);
    let partial = db.truncate_log().unwrap();
    assert!(partial >= 1, "advancing the pin must release the shipped prefix");
    assert!(db.log().segments().all().len() < before);

    // Dropping the handle resumes full truncation up to the checkpoint.
    let left = db.log().segments().all().len();
    drop(pin);
    let resumed = db.truncate_log().unwrap();
    assert!(resumed >= 1, "truncation must resume after the handle drops");
    assert!(db.log().segments().all().len() < left);

    // Data is intact throughout.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&[0xCD_u8; 128][..]));
    tx.commit().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fork_is_a_frozen_consistent_cut() {
    // A fork shares version chains with the primary: it must keep
    // serving the cut-time values while the primary overwrites them,
    // and it must refuse writes.
    let cfg = DbConfig { gc_interval: std::time::Duration::from_millis(1), ..DbConfig::in_memory() };
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for i in 0..50u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"v1").unwrap();
        tx.commit().unwrap();
    }

    let fork = db.fork();
    assert_eq!(db.fork_count(), 1, "live forks are counted");

    // The primary keeps committing: overwrites and fresh keys, enough
    // churn that GC would reclaim the old versions were they unpinned.
    for round in 0..6u32 {
        for i in 0..50u32 {
            let mut tx = w.begin(SI);
            tx.update(t, &i.to_be_bytes(), b"v2").unwrap();
            tx.commit().unwrap();
        }
        let mut tx = w.begin(SI);
        tx.insert(t, &(1000 + round).to_be_bytes(), b"new").unwrap();
        tx.commit().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
    }

    // The fork still reads the cut: old values present, new keys absent.
    let mut fw = fork.register_worker();
    let mut tx = fw.begin(SI);
    for i in 0..50u32 {
        assert_eq!(get(&mut tx, t, &i.to_be_bytes()).as_deref(), Some(&b"v1"[..]), "key {i}");
    }
    assert_eq!(get(&mut tx, t, &1000u32.to_be_bytes()), None, "post-fork keys are invisible");
    tx.commit().unwrap();

    // Writes through the fork abort with the read-only reason.
    let mut tx = fw.begin(SI);
    match tx.update(t, &0u32.to_be_bytes(), b"nope") {
        Err(e) => assert_eq!(e, AbortReason::ReadOnlyMode),
        Ok(_) => panic!("fork writes must bounce"),
    }
    tx.abort();

    // The primary sees its own latest state, unaffected.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&b"v2"[..]));
    tx.commit().unwrap();

    drop(fw);
    drop(fork);
    assert_eq!(db.fork_count(), 0, "dropping the fork releases its count and GC pin");
}

#[test]
fn snapshot_cut_is_durable_and_transaction_consistent() {
    let dir = std::env::temp_dir().join(format!("ermia-cut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut last = crate::Lsn::NULL;
    for i in 0..32u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"x").unwrap();
        last = tx.commit().unwrap();
    }
    let cut = db.snapshot_cut().unwrap();
    assert!(cut.raw() > last.raw(), "the cut covers every finished commit");
    assert!(
        db.log().durable_offset() >= cut.offset(),
        "the log must be durable through the cut"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log written in the previous block format (32-byte headers with the
/// old magic) is refused with `InvalidData`. Scanning it as the current
/// format would read its first block as a hole and recover an empty
/// database.
#[test]
fn old_format_log_is_refused_not_truncated() {
    let dir = std::env::temp_dir().join(format!("ermia-old-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut first = None;
        for i in 0..8u32 {
            let mut tx = w.begin(SI);
            tx.insert(t, &i.to_be_bytes(), b"x").unwrap();
            first.get_or_insert(tx.commit().unwrap());
        }
        db.log().sync().unwrap();
        // Overwrite the first commit block with a header as the previous
        // format wrote it: magic "ERML", kind Txn, nrec, len, checksum,
        // cstamp u64, prev u64.
        let lsn = first.unwrap();
        let mut old = [0u8; 32];
        old[0..4].copy_from_slice(&0x4552_4d4c_u32.to_le_bytes());
        old[4] = 1;
        old[6..8].copy_from_slice(&1u16.to_le_bytes());
        old[8..12].copy_from_slice(&64u32.to_le_bytes());
        old[16..24].copy_from_slice(&lsn.raw().to_le_bytes());
        let (seg, pos) = db.log().lsn_to_file(lsn).unwrap();
        let io = seg.io.as_ref().unwrap();
        io.write_all_at(&old, pos).unwrap();
        io.sync_data().unwrap();
    }
    let restarted = Database::open(DbConfig::durable(&dir)).and_then(|db| {
        db.create_table("t");
        db.recover()
    });
    let err = restarted.expect_err("an old-format log must not recover as an empty database");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
