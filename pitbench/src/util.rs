//! Small measurement helpers: exact percentiles over recorded samples, and
//! the `/proc` readers behind the CPU, memory and steal figures.

use std::path::Path;

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank; `0.0` when
/// there are no samples. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 - 1.0) * q).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// The median of `values` (see [`quantile`]).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nanoseconds of CPU (user + system, from the scheduler's own clock) that
/// the live threads of process `pid` have run. Threads that already exited
/// are not counted, which is exact for the daemon: its threads live for the
/// whole run.
pub fn task_cpu_ns(pid: u32) -> u64 {
    let dir = format!("/proc/{pid}/task");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| schedstat_ns(&e.path().join("schedstat")))
        .sum()
}

/// CPU nanoseconds the calling thread has run, from the kernel's
/// per-thread clock (nanosecond resolution).
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU nanoseconds every thread of the calling process has run, exited
/// threads included (nanosecond resolution).
pub fn process_cpu_clock_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The value of the CPU-time clock `clock`, in nanoseconds; 0 on error.
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 Linux) that outlives the call, and the clock id is
    // a constant the kernel defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the counters now.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        // — guest time is already inside user, so it is not added again.
        let total = fields.iter().take(8).sum();
        let steal = fields.get(7).copied().unwrap_or(0);
        Self { steal, total }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in
    /// percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The benchmark's own (git-ignored) output directory: generated zoos,
/// result documents and traces.
pub fn out_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Online CPUs, as the worker pool and the daemon's shard default see them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision, when the benchmark runs inside a git clone;
/// `"unknown"` otherwise (an exported tree carries no history). Git is
/// pointed at the clone's own `.git`, so it never looks above the tree.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env(
            "GIT_DIR",
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git"),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
