//! End-to-end and per-layer benchmark of the nimbus runtime.
//!
//! ```text
//! perfbench --workload <flood_wide|flood_tcp|lr_migrate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats whole episodes (fresh cluster, set-up, a fixed number of
//! timed rounds, output read-back) until `--seconds` have passed. It prints
//! a run report, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod accounting;
mod replay;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nimbus_driver::DriverResult;
use nimbus_net::NetworkStats;
use nimbus_runtime::Cluster;

use accounting::{HostCpu, LayerTotals, ThreadSnapshot};
use stats::{median, quantile};
use workloads::{Flood, LrMigrate, Spans, Workload};

/// Episodes during which the hypervisor stole at most this share of the
/// host's CPU time (in %) are measured; see [`measured`].
const QUIET_STEAL_PCT: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |k: &str| {
        values
            .get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let trace = get("trace")?;
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, not '{trace}'")),
        },
    })
}

fn make_workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "flood_wide" => Some(Box::new(Flood::wide(seed))),
        "flood_tcp" => Some(Box::new(Flood::tcp(seed))),
        "lr_migrate" => Some(Box::new(LrMigrate::new(seed))),
        _ => None,
    }
}

/// Network counters that grew over an interval.
#[derive(Default)]
struct NetDelta {
    messages: u64,
    control_bytes: u64,
    data_bytes: u64,
    frames_coalesced: u64,
    tcp_writes: u64,
}

impl NetDelta {
    fn between(before: &NetworkStats, after: &NetworkStats) -> Self {
        Self {
            messages: after.messages - before.messages,
            control_bytes: after.control_bytes - before.control_bytes,
            data_bytes: after.data_bytes - before.data_bytes,
            frames_coalesced: after.frames_coalesced - before.frames_coalesced,
            tcp_writes: after.tcp_writes - before.tcp_writes,
        }
    }
}

/// What one episode measured. "Timed" fields cover its timed rounds.
struct Episode {
    /// Host CPU time stolen by the hypervisor during the episode, in %.
    steal_pct: f64,
    setup_s: f64,
    /// Wall time per iteration of each timed round, ms, in round order.
    iter_ms: Vec<f64>,
    spans: Spans,
    tasks: u64,
    wall_s: f64,
    cpu_s: f64,
    net: NetDelta,
    /// Per-layer thread accounting (traced runs only).
    layers: BTreeMap<&'static str, LayerTotals>,
    auto_validations: u64,
    full_validations: u64,
    worker_tasks: u64,
    worker_commands: u64,
    worker_compute: Duration,
    /// Commands that failed on workers (`WorkerStats::failures`).
    worker_failures: u64,
}

/// Runs one episode: a fresh cluster, set-up, the timed rounds, the output
/// read-back, and shutdown. Failed operations are added to `failed` and
/// check failures to `errors`.
fn episode(
    w: &mut dyn Workload,
    traced: bool,
    spans_on: bool,
    failed: &mut u64,
    errors: &mut Vec<String>,
) -> DriverResult<Episode> {
    let host = HostCpu::take();
    let start = Instant::now();
    let mut cluster = Cluster::start(w.cluster_config(), w.app_setup());
    let mut session = cluster.connect_driver()?;
    w.set_up(&mut session, &mut Spans::default())?;
    let setup_s = start.elapsed().as_secs_f64();

    let threads = traced.then(ThreadSnapshot::take);
    let (net, cpu) = (cluster.network_stats(), accounting::process_cpu_seconds());
    let mut spans = Spans {
        on: spans_on,
        ..Spans::default()
    };
    let timed = Instant::now();
    let (mut iter_ms, mut tasks, mut round_failures) = (Vec::new(), 0, 0);
    for r in 0..w.rounds() {
        let round_start = Instant::now();
        let round = w.round(&mut session, r, &mut spans)?;
        iter_ms.push(round_start.elapsed().as_secs_f64() * 1e3 / f64::from(round.iterations));
        tasks += round.tasks;
        round_failures += round.failed;
    }
    let wall_s = timed.elapsed().as_secs_f64();
    let cpu_s = accounting::process_cpu_seconds() - cpu;
    let net = NetDelta::between(&net, &cluster.network_stats());
    let layers = threads
        .map(|before| before.delta(&ThreadSnapshot::take()))
        .unwrap_or_default();
    let steal_pct = HostCpu::take().steal_pct_since(&host);

    round_failures += w.read_back(&mut session)?;
    session.close()?;
    let report = cluster.shutdown_and_join()?;
    let mut e = Episode {
        steal_pct,
        setup_s,
        iter_ms,
        spans,
        tasks,
        wall_s,
        cpu_s,
        net,
        layers,
        auto_validations: report.controller.auto_validations,
        full_validations: report.controller.full_validations,
        worker_tasks: 0,
        worker_commands: 0,
        worker_compute: Duration::ZERO,
        worker_failures: 0,
    };
    for stats in &report.workers {
        e.worker_tasks += stats.tasks_executed;
        e.worker_commands += stats.commands_executed;
        e.worker_compute += stats.compute_time;
        e.worker_failures += stats.failures.len() as u64;
        errors.extend(stats.failures.iter().cloned());
    }
    if e.worker_tasks != w.tasks_per_episode() {
        errors.push(format!(
            "workers executed {} tasks, the episode submitted {}",
            e.worker_tasks,
            w.tasks_per_episode()
        ));
    }
    *failed += round_failures;
    Ok(e)
}

/// The episodes the metrics are taken from: those during which the host
/// stole at most [`QUIET_STEAL_PCT`] of its CPU time. Steal on this kind of
/// host comes in bursts that slow the whole cluster; it is other tenants'
/// load, not the program's. When fewer than a tenth of the episodes, or
/// fewer than three, were quiet, that many with the least steal are used.
fn measured(episodes: &[Episode]) -> Vec<&Episode> {
    let quiet: Vec<&Episode> = episodes
        .iter()
        .filter(|e| e.steal_pct <= QUIET_STEAL_PCT)
        .collect();
    let enough = episodes.len().div_ceil(10).max(3).min(episodes.len());
    if quiet.len() >= enough {
        return quiet;
    }
    let mut by_steal: Vec<&Episode> = episodes.iter().collect();
    by_steal.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
    by_steal.truncate(enough);
    by_steal
}

fn per(value: f64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        value / base as f64
    }
}

fn sum<T: std::iter::Sum<T>>(es: &[&Episode], f: impl Fn(&Episode) -> T) -> T {
    es.iter().map(|e| f(e)).sum()
}

/// Per-layer thread accounting summed over episodes.
fn thread_layers(es: &[&Episode]) -> BTreeMap<&'static str, LayerTotals> {
    let mut layers = BTreeMap::new();
    for e in es {
        accounting::accumulate(&mut layers, &e.layers);
    }
    layers
}

fn end_to_end(es: &[&Episode]) -> Vec<(&'static str, f64, &'static str)> {
    let tasks = sum(es, |e| e.tasks);
    let rates: Vec<f64> = es.iter().map(|e| e.tasks as f64 / e.wall_s).collect();
    let iters: Vec<f64> = es.iter().flat_map(|e| e.iter_ms.iter().copied()).collect();
    let setups: Vec<f64> = es.iter().map(|e| e.setup_s).collect();
    vec![
        ("tasks_per_s", median(&rates), "1/s"),
        ("iter_ms_p50", median(&iters), "ms"),
        (
            "cpu_us_per_task",
            per(sum(es, |e| e.cpu_s) * 1e6, tasks),
            "us",
        ),
        (
            "ctl_bytes_per_task",
            per(sum(es, |e| e.net.control_bytes) as f64, tasks),
            "B",
        ),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", accounting::peak_rss_mib(), "MiB"),
    ]
}

/// The measured episodes that ran with spans on (`traced`) or off; all
/// such episodes if none of them was measured.
fn of_kind<'a>(es: &[&'a Episode], all: &'a [Episode], traced: bool) -> Vec<&'a Episode> {
    let kind: Vec<&Episode> = es
        .iter()
        .copied()
        .filter(|e| e.spans.on == traced)
        .collect();
    if kind.is_empty() {
        all.iter().filter(|e| e.spans.on == traced).collect()
    } else {
        kind
    }
}

fn per_layer(
    es: &[&Episode],
    all: &[Episode],
    replayed: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = sum(es, |e| e.tasks);
    let layers = thread_layers(es);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let span_us = |f: fn(&Spans) -> &Vec<u64>| {
        let us: Vec<f64> = of_kind(es, all, true)
            .iter()
            .flat_map(|e| f(&e.spans).iter().map(|ns| *ns as f64 / 1e3))
            .collect();
        median(&us)
    };
    let mut m = vec![
        (
            "driver.cpu_us_per_task",
            per(layer("driver").cpu_s * 1e6, n),
            "us",
        ),
        ("driver.block_us_p50", span_us(|s| &s.block_ns), "us"),
        ("driver.wait_us_p50", span_us(|s| &s.wait_ns), "us"),
    ];
    for (name, cpu, runq, wakeups) in [
        (
            "controller",
            "controller.cpu_us_per_task",
            "controller.runq_us_per_task",
            "controller.wakeups_per_task",
        ),
        (
            "worker",
            "worker.cpu_us_per_task",
            "worker.runq_us_per_task",
            "worker.wakeups_per_task",
        ),
        (
            "tcp",
            "tcp.cpu_us_per_task",
            "tcp.runq_us_per_task",
            "tcp.wakeups_per_task",
        ),
    ] {
        let l = layer(name);
        m.push((cpu, per(l.cpu_s * 1e6, n), "us"));
        m.push((runq, per(l.runq_s * 1e6, n), "us"));
        m.push((wakeups, per(l.wakeups as f64, n), "count"));
    }
    let (auto, full) = (
        sum(es, |e| e.auto_validations),
        sum(es, |e| e.full_validations),
    );
    let worker_tasks = sum(es, |e| e.worker_tasks);
    let messages = sum(es, |e| e.net.messages);
    m.extend([
        (
            "controller.auto_validated_share",
            per(auto as f64, auto + full),
            "ratio",
        ),
        (
            "worker.commands_per_task",
            per(sum(es, |e| e.worker_commands) as f64, worker_tasks),
            "count",
        ),
        (
            "worker.compute_us_per_task",
            per(
                sum(es, |e| e.worker_compute).as_secs_f64() * 1e6,
                worker_tasks,
            ),
            "us",
        ),
        ("net.msgs_per_task", per(messages as f64, n), "count"),
        (
            "net.data_bytes_per_task",
            per(sum(es, |e| e.net.data_bytes) as f64, n),
            "B",
        ),
        (
            "tcp.writes_per_task",
            per(sum(es, |e| e.net.tcp_writes) as f64, n),
            "count",
        ),
        (
            "framing.msgs_per_frame",
            per(
                messages as f64,
                messages - sum(es, |e| e.net.frames_coalesced),
            ),
            "count",
        ),
    ]);
    let iter_p50 = |traced: bool| {
        let iters: Vec<f64> = of_kind(es, all, traced)
            .iter()
            .flat_map(|e| e.iter_ms.iter().copied())
            .collect();
        median(&iters)
    };
    m.push((
        "trace.overhead_pct",
        (iter_p50(true) / iter_p50(false) - 1.0) * 100.0,
        "%",
    ));
    for (name, unit) in [
        ("controller.install_us_per_task", "us"),
        ("controller.plan_auto_us_per_task", "us"),
        ("controller.plan_full_us_per_task", "us"),
        ("controller.plan_edited_us_per_task", "us"),
        ("controller.plan_migrations_us", "us"),
        ("controller.patch_cmds_per_inst", "count"),
        ("template.expand_us_per_task", "us"),
        ("template.entries_per_task", "count"),
        ("codec.encode_ns_per_msg", "ns"),
        ("codec.decode_ns_per_msg", "ns"),
        ("codec.inst_bytes_per_task", "B"),
        ("framing.parse_ns_per_msg", "ns"),
    ] {
        m.push((name, replayed[name], unit));
    }
    m
}

/// Prints the per-thread split and checks that it accounts for the
/// process CPU of the same intervals.
fn report_threads(es: &[&Episode], errors: &mut Vec<String>) {
    let n = sum(es, |e| e.tasks);
    let layers = thread_layers(es);
    for (name, l) in &layers {
        println!(
            "thread {name:<10} cpu {:>8.3} us/task  runq {:>8.3} us/task  wakeups {:>7.3}/task",
            per(l.cpu_s * 1e6, n),
            per(l.runq_s * 1e6, n),
            per(l.wakeups as f64, n)
        );
    }
    let threads: f64 = layers.values().map(|l| l.cpu_s).sum();
    let coverage = threads / sum(es, |e| e.cpu_s);
    println!(
        "per-thread CPU covers {:.1}% of process CPU",
        coverage * 100.0
    );
    if (coverage - 1.0).abs() > 0.1 {
        errors.push(format!(
            "per-thread CPU adds up to {:.1}% of process CPU",
            coverage * 100.0
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = make_workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };

    let probe_before = accounting::probe_loop_ms();
    let host = HostCpu::take();
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let mut driver_errors = 0;
    // A traced run alternates episodes with spans off and on, so the two can
    // be compared (the tracing overhead); it needs one of each.
    let min_episodes = if args.trace { 2 } else { 1 };
    while episodes.len() < min_episodes || started.elapsed().as_secs_f64() < args.seconds {
        let spans_on = args.trace && episodes.len() % 2 == 1;
        attempted += workload.ops_per_episode();
        match episode(
            workload.as_mut(),
            args.trace,
            spans_on,
            &mut failed,
            &mut errors,
        ) {
            Ok(e) => episodes.push(e),
            Err(e) => {
                // The episode's results cannot be trusted: all of its
                // operations count as failed.
                errors.push(format!("driver error: {e}"));
                failed += workload.ops_per_episode();
                driver_errors += 1;
                break;
            }
        }
    }
    let run_s = started.elapsed().as_secs_f64();
    let steal = HostCpu::take().steal_pct_since(&host);
    let probe_after = accounting::probe_loop_ms();
    errors.extend(workload.errors().iter().cloned());

    let es = measured(&episodes);
    let metrics = if args.trace {
        let replayed = replay::replay(
            make_workload(&args.workload, args.seed)
                .expect("workload name checked above")
                .as_mut(),
        );
        report_threads(&es, &mut errors);
        per_layer(&es, &episodes, &replayed)
    } else {
        end_to_end(&es)
    };

    let iters: Vec<f64> = es.iter().flat_map(|e| e.iter_ms.iter().copied()).collect();
    let tenth = |last: bool| {
        let part: Vec<f64> = es
            .iter()
            .flat_map(|e| {
                let k = e.iter_ms.len().div_ceil(10);
                let start = if last { e.iter_ms.len() - k } else { 0 };
                e.iter_ms[start..start + k].iter().copied()
            })
            .collect();
        median(&part)
    };
    println!(
        "workload {} seed {} trace {}: {} episodes in {run_s:.1} s, {} measured",
        args.workload,
        args.seed,
        args.trace as u8,
        episodes.len(),
        es.len()
    );
    println!(
        "iteration ms: p50 {:.4}  p95 {:.4}  p99 {:.4}  (n={}, {} beyond p95, {} beyond p99)",
        quantile(&iters, 0.5),
        quantile(&iters, 0.95),
        quantile(&iters, 0.99),
        iters.len(),
        iters.len() / 20,
        iters.len() / 100
    );
    println!(
        "iteration ms p50 in the first tenth of each episode's rounds {:.4}, in the last tenth {:.4}",
        tenth(false),
        tenth(true)
    );
    println!(
        "operations: {attempted} attempted, {failed} failed; {driver_errors} driver errors, \
         {} worker command failures",
        episodes.iter().map(|e| e.worker_failures).sum::<u64>()
    );
    println!(
        "host: steal {steal:.2}% of host CPU during the run; episodes measured have at most {:.2}%; \
         probe loop {probe_before:.1} ms before the run, {probe_after:.1} ms after",
        es.iter().map(|e| e.steal_pct).fold(0.0, f64::max)
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                *value
            } else {
                errors.push(format!("metric {name} is not a number"));
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for e in errors.iter().take(10) {
        println!("check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
