//! Over-the-wire benchmark for the ERMIA server.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_sync --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Starts the epoll server in-process on a durable, fsynced log, drives
//! one of four workloads over loopback TCP from two connections, checks
//! every output, and prints one JSON result line last. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics (see `perfbench/README.md` for what each one measures and
//! which end-to-end metric it should move). Data lives under
//! `.perfbench-data/` in the working directory and is removed on exit.

mod checks;
mod drive;
mod embedded;
mod gen;
mod host;
mod layers;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ermia_common::AbortReason;
use ermia_server::Client;
use ermia_telemetry::SpanKind;

use layers::{field_median, field_pct, Attribution, Delta, Scrape, SpanStore};
use stats::{median, pct, ratio, us, Metrics};
use workloads::{Env, Kind, PhaseOut};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `recovery_s` re-recovers one crashed set-up until this much wall time
/// is spent (at most `MAX_RECOVERIES` times) and reports the median.
const RECOVERY_BUDGET: Duration = Duration::from_secs(2);
const MAX_RECOVERIES: usize = 8;
/// One request in this many carries a trace context in the traced phase.
const TRACE_EVERY: u64 = 64;
/// Spacing of the observer's span dumps and gauge scrapes.
const OBSERVE_EVERY: Duration = Duration::from_millis(50);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds: seconds.max(1), trace })
}

/// Removes the run's data directory however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <oltp_sync|hybrid_ssn|cross_shard_2pc|replica_tail> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let data = DataDir(PathBuf::from(".perfbench-data").join(std::process::id().to_string()));
    let result = (|| -> Result<Outcome, String> {
        let fp = host::probe(&data.0).map_err(|e| format!("fsync probe: {e}"))?;
        println!(
            "{}",
            host::fingerprint_json(
                &fp,
                args.kind.name(),
                args.seed,
                &workloads::flush_policy_json(&data.0)
            )
        );
        if args.trace {
            per_layer(&args, &data.0)
        } else {
            end_to_end(&args, &data.0)
        }
    })();
    let code = match result {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            let correct = out.errors.is_empty();
            println!(
                "{}",
                stats::result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
            );
            if correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    drop(data);
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Shared measurement helpers
// ---------------------------------------------------------------------------

/// Metrics of every shard: shard 0 (with the server's own families) over
/// the wire, the other shards from their in-process registries.
fn scrape(env: &Env, client: &mut Client) -> Result<Scrape, String> {
    let mut s = Scrape::default();
    s.add_text(&client.metrics().map_err(|e| e.to_string())?)?;
    for i in 1..env.db.shards() {
        s.add_text(&env.db.shard(i).telemetry().render_prometheus())?;
    }
    Ok(s)
}

/// Slices a measured window is cut into; throughput and latency are
/// medians over slices, so one stall moves one slice, not the figure.
const SLICES: usize = 10;

fn slice_of(ack_ns: u64, secs: f64) -> Option<usize> {
    let i = (ack_ns as f64 / (secs * 1e9 / SLICES as f64)) as usize;
    (i < SLICES).then_some(i)
}

/// Median of the per-slice commit rates.
fn rate_median(ack_ns: &[u64], secs: f64) -> f64 {
    let mut counts = [0u64; SLICES];
    for &t in ack_ns {
        if let Some(i) = slice_of(t, secs) {
            counts[i] += 1;
        }
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 * SLICES as f64 / secs).collect();
    median(&mut rates)
}

/// Median over slices of each slice's `p`-th latency percentile, in ms.
fn latency_ms(rtt_ns: &[u64], ack_ns: &[u64], secs: f64, p: f64) -> f64 {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for (&rtt, &ack) in rtt_ns.iter().zip(ack_ns) {
        if let Some(i) = slice_of(ack, secs) {
            slices[i].push(rtt as f64 / 1e6);
        }
    }
    let mut per: Vec<f64> =
        slices.iter_mut().filter(|v| !v.is_empty()).map(|v| pct(v, p)).collect();
    median(&mut per)
}

fn ms(ns: &[u64], p: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    pct(&mut v, p)
}

fn attempted_failed(p: &PhaseOut) -> (u64, u64) {
    (p.short.attempts + p.other.attempts, p.short.failed + p.other.failed)
}

/// Replica visibility: ack → end of the first tail round whose applied
/// offset passes the commit's log offset (commit stamps are the commit
/// block's starting LSN, offset in the high bits).
fn visibility_ms(p: &PhaseOut) -> Vec<u64> {
    let mut out = Vec::with_capacity(p.short.acks.len());
    for &(ack, lsn) in &p.short.acks {
        let offset = ermia_common::Lsn::from_raw(lsn).offset();
        let i = p.rounds.partition_point(|r| r.applied <= offset);
        if let Some(r) = p.rounds.get(i) {
            out.push(r.end.saturating_duration_since(ack).as_nanos() as u64);
        }
    }
    out
}

/// Close a set-up and delete its directories.
fn discard(env: Env) {
    let (dir, rdir, _) = env.close();
    remove_dirs(&dir, rdir.as_deref());
}

fn remove_dirs(dir: &Path, replica: Option<&Path>) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(r) = replica {
        let _ = std::fs::remove_dir_all(r);
    }
}

/// Crash a fresh set-up (its log holds the load plus the warm-up, the
/// same volume on every run) and time reopen + recovery, repeatedly.
fn recovery_samples(kind: Kind, seed: u64, root: &Path) -> Result<Vec<f64>, String> {
    let env = workloads::setup(kind, seed, root, "recovery", false)?;
    let (dir, rdir, _) = env.close();
    let mut samples = Vec::new();
    let budget = Instant::now() + RECOVERY_BUDGET;
    for _ in 0..MAX_RECOVERIES {
        let (db, _, secs) = workloads::recover(kind, &dir)?;
        samples.push(secs);
        drop(db);
        if Instant::now() >= budget {
            break;
        }
    }
    remove_dirs(&dir, rdir.as_deref());
    Ok(samples)
}

/// Quiescent-state checks shared by both modes.
fn verify_quiescent(env: &mut Env) -> Result<Vec<String>, String> {
    let mut errors = workloads::verify_state(&env.db, env.table, env.kind, env.seed, &env.journal);
    errors.extend(workloads::verify_sample_wire(env, 1024)?);
    errors.extend(workloads::verify_replica(env)?);
    Ok(errors)
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

fn end_to_end(args: &Args, root: &Path) -> Result<Outcome, String> {
    let kind = args.kind;
    let mut setup_s = Vec::new();
    let mut env = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let e = workloads::setup(kind, args.seed, root, &i.to_string(), false)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            discard(e);
        } else {
            env = Some(e);
        }
    }
    let mut env = env.expect("at least one set-up");
    // Peak memory of serving the loaded data set: taken before the phase,
    // whose own growth depends on how many writes the host's fsync rate
    // lets through (`rss_run_peak_mb` in the traced run covers that).
    let rss = host::rss_peak_mb();
    let mut ctl = Client::connect(env.server.local_addr()).map_err(|e| e.to_string())?;
    let before = scrape(&env, &mut ctl)?;
    let phase = workloads::run_phase(&mut env, Duration::from_secs(args.seconds), 0, None)?;
    let after = scrape(&env, &mut ctl)?;
    drop(ctl);
    let delta = Delta { before: &before, after: &after };

    let mut errors: Vec<String> = phase.errors().into_iter().cloned().collect();
    errors.extend(verify_quiescent(&mut env)?);

    // Crash: drop every handle without a clean shutdown, reopen, recover,
    // and check every row against the journal.
    let (dir, _, journal) = env.close();
    let (db, table, _) = workloads::recover(kind, &dir)?;
    errors.extend(
        workloads::verify_state(&db, table, kind, args.seed, &journal)
            .into_iter()
            .map(|e| format!("after recovery: {e}")),
    );
    drop(db);

    let user_bytes = (phase.short.user_bytes + phase.other.user_bytes) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup_s), "s");
    m.put(
        "log_bytes_per_user_byte",
        ratio(delta.get("ermia_log_flushed_bytes_total"), user_bytes),
        "ratio",
    );
    m.put("rss_peak_mb", rss, "MiB");
    let (attempted, failed) = attempted_failed(&phase);
    Ok(Outcome { metrics: m, attempted, failed, errors })
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Gauge maxima and span dumps gathered alongside a phase.
#[derive(Default)]
struct Observed {
    version_pool_max: f64,
    pending_destructors_max: f64,
    spans: SpanStore,
}

fn per_layer(args: &Args, root: &Path) -> Result<Outcome, String> {
    let kind = args.kind;
    let dur = Duration::from_secs(args.seconds);
    let mut recovery_s = recovery_samples(kind, args.seed, root)?;
    let mut env = workloads::setup(kind, args.seed, root, "0", true)?;
    let addr = env.server.local_addr();
    let mut ctl = Client::connect(addr).map_err(|e| e.to_string())?;
    let observed = Mutex::new(Observed::default());

    // Phase A, untraced: metric deltas, gauges, workload-level figures.
    let gauges = |stop: &AtomicBool| -> Result<(), String> {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        while !stop.load(Ordering::Acquire) {
            let mut s = Scrape::default();
            s.add_text(&c.metrics().map_err(|e| e.to_string())?)?;
            let mut o = observed.lock().unwrap();
            o.version_pool_max = o.version_pool_max.max(s.get("ermia_version_pool_size"));
            o.pending_destructors_max =
                o.pending_destructors_max.max(s.get("ermia_epoch_pending_destructors"));
            drop(o);
            std::thread::sleep(OBSERVE_EVERY);
        }
        Ok(())
    };
    let before = scrape(&env, &mut ctl)?;
    let cpu0 = host::cpu_s();
    let a = workloads::run_phase(&mut env, dur, 0, Some(&gauges))?;
    let cpu = host::cpu_s() - cpu0;
    let after = scrape(&env, &mut ctl)?;
    let rss_run = host::rss_peak_mb();
    let d = Delta { before: &before, after: &after };
    let mut ship = SpanStore::default();
    if let Some(r) = &env.replica {
        let mut rc = Client::connect(r.server.local_addr()).map_err(|e| e.to_string())?;
        ship.add_dump(&rc.dump_traces(1 << 20).map_err(|e| e.to_string())?)?;
    }

    // Phase B, traced: every TRACE_EVERY-th short request carries a trace
    // context; the observer keeps dumping spans so no ring wraps over an
    // undumped one.
    let dumps = |stop: &AtomicBool| -> Result<(), String> {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        loop {
            let done = stop.load(Ordering::Acquire);
            let text = c.dump_traces(1 << 20).map_err(|e| e.to_string())?;
            observed.lock().unwrap().spans.add_dump(&text)?;
            if done {
                return Ok(());
            }
            std::thread::sleep(OBSERVE_EVERY);
        }
    };
    let b = workloads::run_phase(&mut env, dur, TRACE_EVERY, Some(&dumps))?;
    let observed = observed.into_inner().unwrap();

    let mut errors: Vec<String> = a.errors().into_iter().chain(b.errors()).cloned().collect();
    let attr = layers::attribute(&b.short.traced, &observed.spans, &mut errors);
    if attr.is_empty() {
        errors.push("traced phase attributed no request".into());
    }
    errors.extend(verify_quiescent(&mut env)?);
    drop(ctl);
    discard(env);

    // Embedded leg: the same transactions, no server.
    let e = embedded::run(kind, args.seed, &root.join("embedded"), dur)?;
    errors.extend(e.errors.iter().cloned());
    if e.committed == 0 {
        errors.push("embedded leg committed nothing".into());
    }

    let mut m = Metrics::default();
    let secs = a.secs;
    let put_pct = |m: &mut Metrics, name: &str, v: &[u64], p: f64| {
        let mut x = us(v);
        m.put(name, pct(&mut x, p), "us");
    };

    // Workload-level figures without a bound of their own (they apply to
    // one workload each; 0 elsewhere).
    let attempts = (a.short.attempts + a.other.attempts) as f64;
    let aborted: u64 = a.short.aborts.values().chain(a.other.aborts.values()).sum();
    m.put("txn_per_s", rate_median(&a.short.ack_ns, a.secs), "1/s");
    m.put("txn_p50_ms", latency_ms(&a.short.rtt_ns, &a.short.ack_ns, a.secs, 50.0), "ms");
    m.put("txn_p99_ms", latency_ms(&a.short.rtt_ns, &a.short.ack_ns, a.secs, 99.0), "ms");
    m.put("long_txn_per_s", a.other.long_committed as f64 / secs, "1/s");
    m.put("long_txn_p50_ms", ms(&a.other.long_ns, 50.0), "ms");
    let vis = if kind == Kind::ReplicaTail { visibility_ms(&a) } else { Vec::new() };
    m.put("repl_visible_p50_ms", ms(&vis, 50.0), "ms");
    m.put("repl_visible_p99_ms", ms(&vis, 99.0), "ms");
    m.put("failed_pct", 100.0 * ratio(aborted as f64, attempts), "%");
    let committed = a.short.acks.len() + a.other.acks.len() + a.other.long_ns.len();
    m.put("cpu_us_per_txn", ratio(cpu * 1e6, committed as f64), "us");
    m.put("rss_run_peak_mb", rss_run, "MiB");
    m.put("recovery_s", median(&mut recovery_s), "s");

    // client
    put_pct(&mut m, "client.rtt_us.p50", &a.short.rtt_ns, 50.0);
    put_pct(&mut m, "client.rtt_us.p99", &a.short.rtt_ns, 99.0);
    put_pct(&mut m, "client.send_us.p50", &a.short.send_ns, 50.0);

    // server
    let commits = d.get("ermia_server_commits_total");
    m.put("server.frame_decode_us.p50", field_median(&attr, |x| x.frame_decode), "us");
    m.put("server.checkout_us.p50", field_median(&attr, |x| x.checkout), "us");
    m.put("server.request_self_us.p50", field_median(&attr, |x| x.request_self), "us");
    m.put("server.run_queue_us.p50", field_median(&attr, |x| x.run_queue), "us");
    m.put("server.run_queue_us.p99", field_pct(&attr, 99.0, |x| x.run_queue), "us");
    m.put(
        "server.epoll_wakeups_per_txn",
        ratio(d.get("ermia_server_epoll_wakeups_total"), commits),
        "count",
    );
    m.put("server.partial_writes_per_s", d.get("ermia_server_partial_writes_total") / secs, "1/s");
    m.put("server.busy_rejects", d.get("ermia_server_busy_rejects_total"), "count");

    // core
    put_pct(&mut m, "core.begin_us.p50", &e.begin_ns, 50.0);
    put_pct(&mut m, "core.read_us.p50", &e.read_ns, 50.0);
    put_pct(&mut m, "core.write_us.p50", &e.write_ns, 50.0);
    put_pct(&mut m, "core.scan_us.p50", &e.scan_ns, 50.0);
    let scan_ms: f64 = e.scan_ns.iter().sum::<u64>() as f64 / 1e6;
    m.put("core.scan_rows_per_ms", ratio(e.scan_rows as f64, scan_ms), "1/ms");
    put_pct(&mut m, "core.commit_deferred_us.p50", &e.commit_ns, 50.0);
    put_pct(&mut m, "core.commit_deferred_us.p99", &e.commit_ns, 99.0);
    for r in AbortReason::ALL {
        m.put(
            format!("core.aborts.{}", r.label()),
            d.label("ermia_txn_aborts_total", r.label()),
            "count",
        );
    }
    let cross: Vec<Attribution> = attr.iter().filter(|x| x.cross).cloned().collect();
    m.put("core.2pc_prepare_us.p50", field_median(&cross, |x| x.prepare), "us");
    m.put("core.2pc_decide_us.p50", field_median(&cross, |x| x.decide), "us");
    m.put("core.2pc_finalize_us.p50", field_median(&cross, |x| x.finalize), "us");
    m.put("core.cross_txn_share", ratio(d.get("ermia_shard_cross_txns_total"), commits), "ratio");
    let prof_txns = d.get("ermia_profile_txns_total");
    m.put("core.other_ns_per_txn", ratio(d.get("ermia_profile_other_ns_total"), prof_txns), "ns");

    // index / storage
    m.put("index.ns_per_txn", ratio(d.get("ermia_profile_index_ns_total"), prof_txns), "ns");
    m.put(
        "storage.indirection_ns_per_txn",
        ratio(d.get("ermia_profile_indirection_ns_total"), prof_txns),
        "ns",
    );
    m.put(
        "storage.chain_len_mean",
        ratio(d.get("ermia_txn_chain_length_sum"), d.get("ermia_txn_chain_length_count")),
        "count",
    );
    m.put("storage.gc_reclaimed_per_s", d.get("ermia_gc_reclaimed_versions_total") / secs, "1/s");
    m.put("storage.version_pool_size.max", observed.version_pool_max, "count");

    // log
    m.put("log.durability_wait_us.p50", field_median(&attr, |x| x.durability_wait), "us");
    m.put("log.durability_wait_us.p99", field_pct(&attr, 99.0, |x| x.durability_wait), "us");
    put_pct(&mut m, "log.embedded_wait_durable_us.p50", &e.wait_ns, 50.0);
    m.put("log.ns_per_txn", ratio(d.get("ermia_profile_log_ns_total"), prof_txns), "ns");
    let flushes = d.get("ermia_log_flush_batches_total");
    m.put("log.txns_per_flush", ratio(d.get("ermia_txn_commits_total"), flushes), "count");
    m.put("log.bytes_per_flush", ratio(d.get("ermia_log_flushed_bytes_total"), flushes), "B");
    m.put("log.flushes_per_s", flushes / secs, "1/s");
    m.put("log.space_waits", d.get("ermia_log_space_waits_total"), "count");
    m.put("log.dead_zone_bytes", d.get("ermia_log_dead_zone_bytes_total"), "B");
    m.put("log.skip_blocks", d.get("ermia_log_skip_blocks_total"), "count");

    // epoch
    m.put("epoch.advances_per_s", d.get("ermia_epoch_advances_total") / secs, "1/s");
    m.put("epoch.advance_blocked", d.get("ermia_epoch_advance_blocked_total"), "count");
    m.put("epoch.pending_destructors.max", observed.pending_destructors_max, "count");

    // repl: the benchmark's own timing of each `Replica::poll` round, and
    // the program's repl-ship spans matched to the rounds they fall in.
    let ship_spans = ship.of_kind(SpanKind::ReplShip);
    let mut ship_us: Vec<f64> = ship_spans.iter().map(|s| s.dur_ns as f64 / 1e3).collect();
    let mut apply_us: Vec<f64> = Vec::new();
    for r in a.rounds.iter().filter(|r| r.shipped > 0) {
        let shipped: u64 = ship_spans
            .iter()
            .filter(|s| s.start_ns >= r.t0_ns && s.start_ns < r.t1_ns)
            .map(|s| s.dur_ns)
            .sum();
        if shipped > 0 {
            apply_us.push(r.dur_ns.saturating_sub(shipped) as f64 / 1e3);
        }
    }
    let mut lag: Vec<f64> = a.rounds.iter().map(|r| r.lag as f64).collect();
    let moved: Vec<&workloads::Round> = a.rounds.iter().filter(|r| r.shipped > 0).collect();
    m.put("repl.ship_us.p50", median(&mut ship_us), "us");
    m.put("repl.apply_us.p50", median(&mut apply_us), "us");
    m.put("repl.rounds_per_s", a.rounds.len() as f64 / secs, "1/s");
    m.put(
        "repl.bytes_per_round",
        ratio(moved.iter().map(|r| r.shipped).sum::<u64>() as f64, moved.len() as f64),
        "B",
    );
    m.put("repl.lag_bytes.p50", pct(&mut lag, 50.0), "B");
    m.put("repl.lag_bytes.p99", pct(&mut lag, 99.0), "B");

    // telemetry: what tracing itself costs.
    let untraced = rate_median(&a.short.ack_ns, a.secs);
    let traced = rate_median(&b.short.ack_ns, b.secs);
    m.put("telemetry.trace_overhead_pct", 100.0 * ratio(untraced - traced, untraced), "%");

    // unattributed + closure: the sum of per-layer medians against the
    // end-to-end median of the same traced requests.
    let layer_sum = field_median(&attr, Attribution::client)
        + field_median(&attr, Attribution::server)
        + field_median(&attr, Attribution::core)
        + field_median(&attr, Attribution::log)
        + field_median(&attr, |x| x.unattributed);
    m.put("unattributed_us.p50", field_median(&attr, |x| x.unattributed), "us");
    m.put("closure.layer_sum_us", layer_sum, "us");
    m.put("closure.rtt_us.p50", field_median(&attr, |x| x.rtt), "us");

    let (at_a, f_a) = attempted_failed(&a);
    let (at_b, f_b) = attempted_failed(&b);
    Ok(Outcome { metrics: m, attempted: at_a + at_b, failed: f_a + f_b, errors })
}
