//! Readers for the Linux `/proc` files the benchmark samples: process and
//! per-thread CPU time, peak resident set, host CPU counters (for steal)
//! and the CPU model, plus the free space `df` reports for a directory.
//!
//! Each reader is split into a pure parser (unit-tested on captured text)
//! and a thin file read.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// `utime + stime` in clock ticks from a `/proc/<pid>[/task/<tid>]/stat`
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt cminflt majflt cmajflt utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (such as `VmHWM`) of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// Sum of user … steal (guest time is already inside user/nice).
    pub total: u64,
    /// Ticks the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
}

impl HostCpu {
    /// Share of ticks stolen between `self` (earlier) and `later`.
    pub fn steal_share_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = values.iter().take(8).sum();
    Some(HostCpu {
        total,
        steal: values.get(7).copied().unwrap_or(0),
    })
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// Available kilobytes from `df -Pk <dir>` output (POSIX format: a header
/// line, then `fs blocks used available capacity mount`).
pub fn parse_df_available_kb(df: &str) -> Option<u64> {
    df.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()
}

fn clock_ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

fn stat_seconds(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / clock_ticks_per_second())
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    stat_seconds("/proc/self/stat")
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    stat_seconds("/proc/thread-self/stat")
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current host CPU counters (all zero where `/proc/stat` is unreadable).
pub fn host_cpu() -> HostCpu {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_cpu(&s))
        .unwrap_or_default()
}

/// The CPU model name, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Free bytes on the file system holding `dir`, if `df` can tell.
pub fn available_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    parse_df_available_kb(&String::from_utf8(out.stdout).ok()?).map(|kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_name_with_spaces_and_parens() {
        let stat = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 \
                    731 49 0 0 20 0 3 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(780));
        assert_eq!(parse_stat_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens here"), None);
    }

    #[test]
    fn status_kb_fields() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t 2364736 kB\nVmRSS:\t   50672 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2_364_736));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(50_672));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A prefix of another field name must not match.
        assert_eq!(parse_status_kb("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn host_cpu_counts_steal() {
        let a = parse_host_cpu("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            HostCpu {
                total: 1000,
                steal: 35
            }
        );
        let b = parse_host_cpu("cpu  200 0 90 1500 10 0 5 95 7 0\n").unwrap();
        assert_eq!(b.total, 1900);
        assert!((a.steal_share_until(&b) - 60.0 / 900.0).abs() < 1e-12);
        assert_eq!(a.steal_share_until(&a), 0.0);
        // Old kernels without a steal column.
        assert_eq!(
            parse_host_cpu("cpu 1 2 3 4\n"),
            Some(HostCpu {
                total: 10,
                steal: 0
            })
        );
        assert_eq!(parse_host_cpu("intr 5\n"), None);
    }

    #[test]
    fn cpu_model_and_df() {
        let info =
            "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Platinum\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Intel(R) Xeon(R) Platinum")
        );
        assert_eq!(parse_cpu_model("processor : 0\n"), None);
        let df = "Filesystem 1024-blocks Used Available Capacity Mounted on\n\
                  /dev/vda 263174212 13543216 19876543 42% /\n";
        assert_eq!(parse_df_available_kb(df), Some(19_876_543));
        assert_eq!(parse_df_available_kb("Filesystem\n"), None);
    }
}
