//! Readings of the process and the host from `/proc`, plus two small
//! probes of host speed.
//!
//! Readers return `None` where `/proc` is unavailable; the report then
//! omits the figure instead of inventing one.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/*/stat` times (USER_HZ, 100
/// on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k / 1024.0)
}

/// Resets the resident-set high-water mark to the current RSS.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds of the whole process, threads included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 12 and 13 here.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Host-wide CPU time counters from the `cpu` line of `/proc/stat`:
/// (steal, total), in clock ticks.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    let total = t1.checked_sub(t0)?;
    (total > 0).then(|| s1.saturating_sub(s0) as f64 / total as f64)
}

/// Nanoseconds per step of a dependent integer multiply-add chain: a
/// reading of core speed that memory traffic does not touch.
pub fn alu_chain_ns() -> f64 {
    const STEPS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = black_box(0x1234_5678_u64);
    for i in 0..STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / STEPS as f64
}

/// GB/s of a streaming read over a 16 MiB buffer: a reading of the memory
/// bandwidth this process gets from the host.
pub fn memory_stream_gbps() -> f64 {
    const WORDS: usize = 2 * 1024 * 1024; // 16 MiB of u64
    const PASSES: usize = 8;
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..PASSES {
        sum = sum.wrapping_add(black_box(&buf).iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    }
    black_box(sum);
    let bytes = (WORDS * 8 * PASSES) as f64;
    bytes / start.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse_this_process() {
        if std::fs::metadata("/proc/self/status").is_err() {
            return; // not Linux
        }
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        let (steal, total) = steal_ticks().unwrap();
        assert!(steal <= total);
        assert_eq!(steal_share(Some((5, 100)), Some((15, 300))), Some(0.05));
        assert_eq!(steal_share(Some((5, 100)), Some((5, 100))), None);
    }
}
