//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * **Indirection cost** (§4.4: "ERMIA pays 16% overhead as indirection
//!   costs"): read path through OID array + version chain vs a direct
//!   single-version record read at several chain depths.
//! * **Three-phase epoch advance** (§3.4): advance throughput with busy
//!   threads that quiesce at transaction boundaries — the situation the
//!   closing epoch exists for — vs an idle manager.
//! * **Centralized log contention** (§3.3): concurrent allocation from
//!   2/4/8 threads, the "single atomic fetch-and-add" claim.

use std::sync::atomic::Ordering;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ermia_common::{Lsn, Stamp};
use ermia_storage::{OidArray, Version};

fn bench_indirection_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/read_path");
    group.throughput(Throughput::Elements(1));

    // Baseline: direct record access (what a single-version system does).
    let direct = Version::alloc(Stamp::from_lsn(Lsn::from_parts(1, 0)), &[7u8; 100], false);
    let direct_ref = unsafe { &*direct };
    group.bench_function("direct_version", |b| {
        b.iter(|| std::hint::black_box(direct_ref.data.len()));
    });

    // ERMIA path: OID slot load + chain walk to the visible version.
    for depth in [1usize, 4, 16] {
        let arr = OidArray::new();
        let oid = arr.allocate();
        let mut head: *mut Version = std::ptr::null_mut();
        for i in 0..depth {
            let v = Version::alloc(
                Stamp::from_lsn(Lsn::from_parts(100 + i as u64, 0)),
                &[i as u8; 100],
                false,
            );
            unsafe { (*v).next.store(head, Ordering::Relaxed) };
            head = v;
        }
        arr.store_head(oid, head);
        // Snapshot that only sees the OLDEST version: walks the chain.
        let begin = Lsn::from_parts(101, 0);
        group.bench_with_input(BenchmarkId::new("oid_chain_walk", depth), &depth, |b, _| {
            b.iter(|| {
                let mut cur = arr.head(oid);
                loop {
                    let v = unsafe { &*cur };
                    let stamp = v.stamp();
                    if !stamp.is_tid() && stamp.as_lsn() < begin {
                        break std::hint::black_box(v.data.len());
                    }
                    cur = v.next.load(Ordering::Acquire);
                    if cur.is_null() {
                        break 0;
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_epoch_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/epoch_advance");
    group.bench_function("idle", |b| {
        let mgr = ermia_epoch::EpochManager::new("idle");
        b.iter(|| mgr.advance_and_collect());
    });
    group.bench_function("with_quiescing_threads", |b| {
        let mgr = ermia_epoch::EpochManager::new("busy");
        let stop = std::sync::atomic::AtomicBool::new(false);
        crossbeam::scope(|s| {
            for _ in 0..2 {
                let mgr = mgr.clone();
                let stop = &stop;
                s.spawn(move |_| {
                    let h = mgr.register();
                    while !stop.load(Ordering::Acquire) {
                        let g = h.pin();
                        std::hint::black_box(g.epoch());
                        drop(g);
                    }
                });
            }
            b.iter(|| mgr.advance_and_collect());
            stop.store(true, Ordering::Release);
        })
        .unwrap();
    });
    group.finish();
}

fn bench_log_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/log_alloc_contended");
    group.throughput(Throughput::Elements(64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let log = ermia_log::LogManager::open(ermia_log::LogConfig::in_memory()).unwrap();
            b.iter(|| {
                crossbeam::scope(|s| {
                    for _ in 0..n {
                        let log = &log;
                        s.spawn(move |_| {
                            let mut buf = ermia_log::TxLogBuffer::new();
                            buf.add_update(
                                ermia_common::TableId(1),
                                ermia_common::Oid(1),
                                b"key",
                                &[0u8; 32],
                            );
                            for _ in 0..64 / n {
                                let res = log.allocate(buf.block_len()).unwrap();
                                let block = buf.serialize();
                                res.fill(block);
                            }
                        });
                    }
                })
                .unwrap();
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_indirection_depth, bench_epoch_advance, bench_log_contention
}
criterion_main!(benches);
