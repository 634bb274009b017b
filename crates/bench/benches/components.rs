//! Component microbenchmarks for the physical-layer substrates:
//! log-space allocation, epoch pin/unpin, TID acquire/release, OID
//! version installs, and B+-tree operations. These quantify the §3
//! building blocks the Fig. 11 breakdown attributes time to.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_log_allocation(c: &mut Criterion) {
    let log = ermia_log::LogManager::open(ermia_log::LogConfig::in_memory()).unwrap();
    let mut group = c.benchmark_group("log");
    group.throughput(Throughput::Elements(1));
    group.bench_function("allocate_fill_64B", |b| {
        let mut buf = ermia_log::TxLogBuffer::new();
        buf.add_update(ermia_common::TableId(1), ermia_common::Oid(1), b"key", &[0u8; 32]);
        b.iter(|| {
            let res = log.allocate(buf.block_len()).unwrap();
            let lsn = res.lsn();
            let block = buf.serialize();
            res.fill(block);
            lsn
        });
    });
    group.bench_function("tail_lsn", |b| b.iter(|| log.tail_lsn()));
    group.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let mgr = ermia_epoch::EpochManager::new("bench");
    let handle = mgr.register();
    let mut group = c.benchmark_group("epoch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("pin_unpin", |b| {
        b.iter(|| {
            let g = handle.pin();
            std::hint::black_box(g.epoch());
        });
    });
    group.bench_function("quiesce_noop", |b| {
        let _g = handle.pin();
        b.iter(|| handle.quiesce());
    });
    group.finish();
}

fn bench_tid(c: &mut Criterion) {
    let mgr = ermia_storage::TidManager::new();
    let mut hint = 0usize;
    let mut group = c.benchmark_group("tid");
    group.throughput(Throughput::Elements(1));
    group.bench_function("acquire_commit_release", |b| {
        b.iter(|| {
            let (tid, ctx) = mgr.acquire(ermia_common::Lsn::from_parts(1, 0), &mut hint);
            ctx.enter_pending();
            ctx.enter_precommit(ermia_common::Lsn::from_parts(2, 0));
            ctx.commit(ermia_common::Lsn::from_parts(2, 0));
            mgr.release(tid);
            tid
        });
    });
    group.bench_function("inquire_stale", |b| {
        let (tid, ctx) = mgr.acquire(ermia_common::Lsn::from_parts(1, 0), &mut hint);
        ctx.abort();
        mgr.release(tid);
        b.iter(|| mgr.inquire(tid));
    });
    group.finish();
}

fn bench_oid_array(c: &mut Criterion) {
    use ermia_common::{Lsn, Stamp};
    let arr = ermia_storage::OidArray::new();
    let oid = arr.allocate();
    let v0 = ermia_storage::Version::alloc(Stamp::from_lsn(Lsn::from_parts(1, 0)), &[0u8; 64], false);
    arr.store_head(oid, v0);
    let mut group = c.benchmark_group("oid_array");
    group.throughput(Throughput::Elements(1));
    group.bench_function("head_load", |b| b.iter(|| arr.head(oid)));
    group.bench_function("install_version_cas", |b| {
        b.iter_batched(
            || {
                let head = arr.head(oid);
                let v = ermia_storage::Version::alloc(
                    Stamp::from_lsn(Lsn::from_parts(2, 0)),
                    &[1u8; 64],
                    false,
                );
                unsafe { (*v).next.store(head, std::sync::atomic::Ordering::Relaxed) };
                (head, v)
            },
            |(head, v)| arr.cas_head(oid, head, v).is_ok(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    let tree = ermia_index::BTree::new();
    let mgr = ermia_epoch::EpochManager::new("btree-bench");
    let handle = mgr.register();
    let g = handle.pin();
    for i in 0..100_000u64 {
        tree.insert(&g, &i.to_be_bytes(), i);
    }
    let mut group = c.benchmark_group("btree");
    group.throughput(Throughput::Elements(1));
    let mut k = 0u64;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            k = (k.wrapping_mul(6364136223846793005).wrapping_add(1)) % 100_000;
            tree.get(&g, &k.to_be_bytes()).0
        });
    });
    group.bench_function("scan_100", |b| {
        b.iter(|| {
            let lo = 500u64.to_be_bytes();
            let hi = 599u64.to_be_bytes();
            let mut n = 0;
            tree.scan(&g, &lo, &hi, |_| {}, |_, _| {
                n += 1;
                ermia_index::ScanControl::Continue
            });
            n
        });
    });
    let mut next = 1_000_000u64;
    group.bench_function("insert_fresh", |b| {
        b.iter(|| {
            next += 1;
            tree.insert(&g, &next.to_be_bytes(), next)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_log_allocation, bench_epoch, bench_tid, bench_oid_array, bench_btree
}
criterion_main!(benches);
