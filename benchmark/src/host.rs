//! What the host reports about this process: CPU time, peak memory, CPU
//! count, the commit under test, and how fast the host runs right now.
//! Linux only (`/proc/self`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100/s.
const TICKS_PER_SEC: u64 = 100;

fn proc_file(name: &str) -> Result<String, String> {
    std::fs::read_to_string(Path::new("/proc/self").join(name))
        .map_err(|e| format!("cannot read /proc/self/{name}: {e}"))
}

/// User plus system CPU time of the whole process, all threads included
/// (exited ones too), at 10 ms resolution.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = proc_file("stat")?;
    // The command name in field 2 may hold spaces; fields after it don't.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let field = |i: usize| -> Result<u64, String> {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = field(11)? + field(12)?;
    Ok(Duration::from_millis(ticks * 1000 / TICKS_PER_SEC))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = proc_file("status")?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// How long one [`reference_pass`] takes on the reference host, a quiet
/// 2-vCPU microVM. Times are reported as if measured at that speed.
pub const REFERENCE_PASS: Duration = Duration::from_millis(16);

/// Times one pass of a fixed computation that stands for the host's speed:
/// inserts into and lookups in an ordered map of about 1 MiB, pointer
/// chasing that misses the caches as the simulator's and the STM's tables
/// do. It calls no code of the repository's crates, so a change to them
/// leaves it as it is; only the host moves it.
pub fn reference_pass() -> Duration {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        map.insert(next() % 1_000_003, i);
    }
    let sum = (0..80_000).fold(0u64, |s, _| {
        s.wrapping_add(map.get(&(next() % 1_000_003)).copied().unwrap_or(0))
    });
    std::hint::black_box(sum);
    drop(map);
    start.elapsed()
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head.to_string()),
    };
    match hash.as_deref().map(str::trim) {
        Some(h) if !h.is_empty() => h.to_string(),
        _ => "unknown".to_string(),
    }
}
