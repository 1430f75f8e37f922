//! Accounting read from outside the program: process and per-thread CPU,
//! run-queue wait and wake-ups from `/proc/self`, host steal time from
//! `/proc/stat`, and a fixed single-thread probe loop.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second used by `/proc/*/stat` (Linux `USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads).
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status_field(&status, "VmHWM:").expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The runtime layer a thread belongs to, from its name.
fn layer_of(tid: u32, comm: &str) -> &'static str {
    if tid == std::process::id() {
        // The benchmark drives its session from the main thread.
        "driver"
    } else if comm.starts_with("nimbus-control") {
        "controller"
    } else if comm.starts_with("nimbus-worker") {
        "worker"
    } else if comm.starts_with("nimbus-tcp") {
        "tcp"
    } else {
        "other"
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ThreadCounters {
    cpu_ns: u64,
    runq_ns: u64,
    wakeups: u64,
}

/// One reading of every live thread of the process.
pub struct ThreadSnapshot {
    threads: HashMap<u32, (&'static str, ThreadCounters)>,
}

/// Per-layer totals over an interval between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// On-CPU time, seconds.
    pub cpu_s: f64,
    /// Time spent runnable but waiting for a CPU, seconds.
    pub runq_s: f64,
    /// Voluntary context switches (each one a sleep and a later wake-up).
    pub wakeups: u64,
}

impl ThreadSnapshot {
    /// Reads `comm`, `schedstat` and `status` of every thread.
    pub fn take() -> Self {
        let mut threads = HashMap::new();
        for entry in fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
            let Ok(entry) = entry else { continue };
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let dir = entry.path();
            // A thread may exit between listing and reading; skip it.
            let (Ok(comm), Ok(sched), Ok(status)) = (
                fs::read_to_string(dir.join("comm")),
                fs::read_to_string(dir.join("schedstat")),
                fs::read_to_string(dir.join("status")),
            ) else {
                continue;
            };
            let mut sched = sched
                .split_whitespace()
                .map(|v| v.parse::<u64>().unwrap_or(0));
            let counters = ThreadCounters {
                cpu_ns: sched.next().unwrap_or(0),
                runq_ns: sched.next().unwrap_or(0),
                wakeups: status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0),
            };
            threads.insert(tid, (layer_of(tid, comm.trim()), counters));
        }
        Self { threads }
    }

    /// Per-layer growth from `self` to `later`, over the threads alive at
    /// both readings.
    pub fn delta(&self, later: &ThreadSnapshot) -> BTreeMap<&'static str, LayerTotals> {
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (tid, (layer, end)) in &later.threads {
            let Some((_, start)) = self.threads.get(tid) else {
                continue;
            };
            let totals = layers.entry(layer).or_default();
            totals.cpu_s += end.cpu_ns.saturating_sub(start.cpu_ns) as f64 * 1e-9;
            totals.runq_s += end.runq_ns.saturating_sub(start.runq_ns) as f64 * 1e-9;
            totals.wakeups += end.wakeups.saturating_sub(start.wakeups);
        }
        layers
    }
}

/// Adds `other`'s per-layer totals into `into`.
pub fn accumulate(
    into: &mut BTreeMap<&'static str, LayerTotals>,
    other: &BTreeMap<&'static str, LayerTotals>,
) {
    for (layer, t) in other {
        let e = into.entry(layer).or_default();
        e.cpu_s += t.cpu_s;
        e.runq_s += t.runq_s;
        e.wakeups += t.wakeups;
    }
}

/// Host-wide CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Reads the aggregate `cpu` line.
    pub fn take() -> Self {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().unwrap_or_default();
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        Self {
            // user nice system idle iowait irq softirq steal; guest time is
            // already inside user.
            total: values.iter().take(8).sum(),
            steal: values.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Times a fixed single-thread integer loop, in milliseconds. The loop does
/// the same work on every call, so its time shows how fast this host ran a
/// plain CPU-bound thread at that moment.
pub fn probe_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
