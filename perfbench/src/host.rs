//! Host fingerprint printed with every result, so two result sets are
//! only compared when they ran on the same kind of host under the same
//! flush policy.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{json_str, median};

pub struct Fingerprint {
    pub nproc: usize,
    pub l3_bytes: u64,
    pub fdatasync_p50_us: f64,
    pub git_sha: String,
}

pub fn probe(dir: &Path) -> std::io::Result<Fingerprint> {
    Ok(Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        l3_bytes: l3_bytes().unwrap_or(0),
        fdatasync_p50_us: fdatasync_p50_us(dir)?,
        git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
    })
}

/// `index3` is the last-level cache on x86 Linux; absent elsewhere.
fn l3_bytes() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let s = s.trim();
    let (num, mult) = match s.strip_suffix('K') {
        Some(n) => (n, 1 << 10),
        None => match s.strip_suffix('M') {
            Some(n) => (n, 1 << 20),
            None => (s, 1),
        },
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Median latency of a 4 KiB append + `fdatasync` on the filesystem
/// that holds the log, the floor under every synchronous commit.
fn fdatasync_p50_us(dir: &Path) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path)?;
    let block = [0x5Au8; 4096];
    let mut samples = Vec::with_capacity(32);
    for _ in 0..32 {
        let t = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(median(&mut samples))
}

/// The checked-out commit: `GIT_SHA` if set, else `.git/HEAD` resolved
/// by hand (the checkout the benchmark runs in need not be a git
/// repository, and no `git` process is started).
fn git_sha() -> Option<String> {
    if let Ok(s) = std::env::var("GIT_SHA") {
        return Some(s);
    }
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
            }),
        None => Some(head.to_string()),
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. `/proc` reports it in USER_HZ ticks, 100 per second.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 12 and 13 past the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest.split_whitespace().map(|x| x.parse().unwrap_or(0.0)).collect();
    f.get(11).zip(f.get(12)).map_or(0.0, |(u, s)| (u + s) / 100.0)
}

/// The fingerprint line: host, commit, seed and the flush policy under
/// which every number of the run was taken.
pub fn fingerprint_json(fp: &Fingerprint, workload: &str, seed: u64, policy: &str) -> String {
    format!(
        "{{\"fingerprint\": {{\"nproc\": {}, \"l3_bytes\": {}, \"fdatasync_p50_us\": {:.1}, \"git_sha\": {}, \"workload\": {}, \"seed\": {}, \"flush_policy\": {}}}}}",
        fp.nproc,
        fp.l3_bytes,
        fp.fdatasync_p50_us,
        json_str(&fp.git_sha),
        json_str(workload),
        seed,
        policy,
    )
}
