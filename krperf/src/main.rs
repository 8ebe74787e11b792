//! `krperf`: the repository benchmark. One command drives one workload
//! through a real in-process `kr_server::Server` over `kr_server::Client`
//! connections, checks every answer, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path krperf/Cargo.toml -- \
//!     --workload <hot-read|cold-miss|read-write> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (tracing off). `--trace 1`
//! reports the per-layer metrics instead: it measures half the window
//! untraced and half with the server's span log on, joins the log with
//! the client's calls by trace id, and times the layers' public
//! functions on the workload's own keys (see `layers.rs`).
//!
//! The run exits non-zero when any answer is wrong or a workload's
//! mechanism check fails (the workload would not be measuring what it
//! claims). Set-up and all lazy work (dataset generation or snapshot
//! load, decomposition-index build, cache warm-up) happen before the
//! window, several times, and `setup_s` is their median.
//!
//! Every figure is taken over the whole window: latencies are the
//! window's percentiles, rates count per second of the window. The tail
//! is p99 on hot-read and read-write and p90 on cold-miss (see
//! [`tail_q`]); each leaves well over ten samples beyond it.
//!
//! Each operation is timed twice: wall clock from send to the final
//! frame, and CPU time, the sum of what the client thread and the
//! server's session thread for its connection ran on a CPU meanwhile
//! (every read runs `threads = 1`, so on the session thread). CPU time
//! leaves out waiting for a shared CPU, which on a busy host lands on a
//! few percent of requests at random and decides a wall-clock p99.
//!
//! The JSON carries the gated metrics: `query_cpu_tail_ratio` (the tail
//! over the median of the reads' CPU times in the same window),
//! `setup_s` (the median of the set-ups' process CPU time) and
//! `peak_rss_mb`. The window's wall-clock latency and rate
//! (`query_p50_ms`, `query_tail_ms`, `query_tail_ratio`,
//! `queries_per_s`, and read-write's `update_p50_ms`, `update_tail_ms`,
//! `updates_per_s`), the reads' median CPU time, the set-ups' wall time
//! and `failed_frac` are printed as `report` lines and not gated: on a
//! shared machine the speed of memory-bound code drifts by up to a third
//! within minutes and moves every absolute timing of a run together,
//! CPU time included, while a ratio of two timings from one window
//! cancels that drift. The ratio catches added work on the slow reads;
//! a uniform slowdown shows only in the reported figures.

mod check;
mod layers;
mod plan;
mod rng;
mod run;

use plan::{Plan, Workload};
use run::{OpKind, OpRec, SetupSample, Status, WindowLog};
use std::path::PathBuf;

/// Set-ups before the window and after it; `setup_s` is the median of
/// all of them. The machine's speed drifts over seconds, while set-ups
/// run back to back agree with each other: half of them on each side of
/// the window makes the median (the mean of the middle two) sample two
/// moments of the run.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 3;

/// The workload's tail percentile. Cold-miss uses p90: the misses
/// beyond it are the largest key classes, whose CPU time drifts with
/// the machine's memory speed more than the median miss does, so with
/// p99 the ratio keeps a run-to-run spread of over ten percent; p90
/// still leaves hundreds of samples beyond it.
fn tail_q(workload: Workload) -> f64 {
    match workload {
        Workload::ColdMiss => 0.90,
        Workload::HotRead | Workload::ReadWrite => 0.99,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: krperf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace: trace == 1,
        },
        _ => usage(),
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

pub fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note: note.into(),
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the middle two of an even count (0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 0 => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        n => v[n / 2],
    }
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Latency and rate of the answered operations among `ops`.
struct Summary {
    p50: f64,
    tail: f64,
    /// The tail percentile, as `p99`.
    tail_name: String,
    rate: f64,
    n: usize,
    /// Samples beyond the tail percentile.
    beyond: usize,
    /// The slowest operation, in ms.
    max: f64,
}

/// Wall-clock latency from send to the final frame.
fn wall_ns(o: &OpRec) -> u64 {
    o.lat_ns
}

/// CPU time of the client and its session thread over the operation.
fn cpu_ns(o: &OpRec) -> u64 {
    o.cpu_ns
}

/// Summarizes `ops` over a window of `seconds`: the `time` of each
/// answered operation in ms at the median and at tail percentile
/// `tail_q`, the rate in answered operations per second.
fn summarize(ops: &[&OpRec], seconds: f64, time: fn(&OpRec) -> u64, tail_q: f64) -> Summary {
    let mut ms: Vec<f64> = ops
        .iter()
        .filter(|o| o.status != Status::Error)
        .map(|o| time(o) as f64 / 1e6)
        .collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    Summary {
        p50: quantile(&ms, 0.5),
        tail: quantile(&ms, tail_q),
        tail_name: format!("p{}", (tail_q * 100.0).round()),
        rate: n as f64 / seconds,
        n,
        beyond: n - ((tail_q * n as f64).ceil() as usize).min(n),
        max: ms.last().copied().unwrap_or(0.0),
    }
}

fn reads(log: &WindowLog) -> Vec<&OpRec> {
    log.ops.iter().filter(|o| o.is_read()).collect()
}

/// Returns the heap's free pages to the kernel, so pages the benchmark's
/// own preparation freed are not silently reused by the set-ups.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Starts the peak-memory measurement: trims the heap, resets `VmHWM` to
/// the current resident set and returns that set in MiB, with a note on
/// whether the reset took.
fn reset_peak() -> (f64, &'static str) {
    trim_heap();
    let note = match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => "VmHWM reset before the first set-up",
        Err(_) => "VmHWM could not be reset: it includes the preparation's peak",
    };
    (run::status_mb("VmRSS"), note)
}

pub fn hit_ratio(log: &WindowLog) -> f64 {
    let answered: Vec<bool> = log
        .ops
        .iter()
        .filter(|o| o.status != Status::Error)
        .filter_map(|o| match o.kind {
            OpKind::Read { hit, .. } => Some(hit),
            _ => None,
        })
        .collect();
    answered.iter().filter(|&&h| h).count() as f64 / answered.len().max(1) as f64
}

/// Sums of `(repairs, invalidations, applied)` over write operations.
pub fn write_totals(ops: &[OpRec]) -> (u64, u64, u64) {
    ops.iter().fold((0, 0, 0), |acc, o| match o.kind {
        OpKind::Write {
            repairs,
            invalidations,
            applied,
            ..
        } => (
            acc.0 + u64::from(repairs),
            acc.1 + u64::from(invalidations),
            acc.2 + u64::from(applied),
        ),
        _ => acc,
    })
}

/// Counts failed operations: errors, refusals, budget cuts and wrong
/// answers.
fn failures(ops: &[OpRec], wrong: &std::collections::HashSet<u32>) -> usize {
    ops.iter()
        .filter(|o| {
            o.status != Status::Ok
                || matches!(o.kind, OpKind::Read { answer, .. } if wrong.contains(&answer))
        })
        .count()
}

/// Latency and rate of the reads, and of the writes where the window
/// has any, and the set-up's wall time (printed, not gated: see the
/// module doc).
fn report(log: &WindowLog, setups: &[SetupSample], tail_q: f64) -> Vec<Metric> {
    let q = summarize(&reads(log), log.seconds, wall_ns, tail_q);
    let c = summarize(&reads(log), log.seconds, cpu_ns, tail_q);
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let mut out = vec![
        metric(
            "setup_wall_s",
            "s",
            median(&setup_wall),
            format!("median of {} set-ups: {setup_wall:.3?}", setups.len()),
        ),
        metric("query_p50_ms", "ms", q.p50, format!("n={}", q.n)),
        metric(
            "query_cpu_p50_ms",
            "ms",
            c.p50,
            format!("client + session thread CPU time, n={}", c.n),
        ),
        metric(
            "query_tail_ratio",
            "ratio",
            q.tail / q.p50,
            format!("wall {} / p50, n={}, {} beyond", q.tail_name, q.n, q.beyond),
        ),
        metric(
            "query_tail_ms",
            "ms",
            q.tail,
            format!(
                "{}, n={}, {} beyond, max {:.3} ms",
                q.tail_name, q.n, q.beyond, q.max
            ),
        ),
        metric(
            "queries_per_s",
            "1/s",
            q.rate,
            format!("n={} in a {:.3} s window", q.n, log.seconds),
        ),
    ];
    let writes: Vec<&OpRec> = log.ops.iter().filter(|o| !o.is_read()).collect();
    if !writes.is_empty() {
        let u = summarize(&writes, log.seconds, wall_ns, tail_q);
        out.extend([
            metric(
                "update_p50_ms",
                "ms",
                u.p50,
                format!("n={}, max {:.3} ms", u.n, u.max),
            ),
            metric(
                "update_tail_ms",
                "ms",
                u.tail,
                format!("{}, n={}, {} beyond", u.tail_name, u.n, u.beyond),
            ),
            metric(
                "updates_per_s",
                "1/s",
                u.rate,
                format!("{:.3} s window", log.seconds),
            ),
        ]);
    }
    out
}

fn end_to_end(
    log: &WindowLog,
    setups: &[SetupSample],
    peak: (f64, &str),
    tail_q: f64,
) -> Vec<Metric> {
    let c = summarize(&reads(log), log.seconds, cpu_ns, tail_q);
    let setup_s: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    vec![
        metric(
            "query_cpu_tail_ratio",
            "ratio",
            c.tail / c.p50,
            format!(
                "CPU time {} {:.6} ms / p50 {:.6} ms, n={}, {} beyond",
                c.tail_name, c.tail, c.p50, c.n, c.beyond
            ),
        ),
        metric(
            "setup_s",
            "s",
            median(&setup_s),
            format!(
                "process CPU time, median of {} set-ups: {setup_s:.3?}",
                setups.len()
            ),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            peak.0,
            format!(
                "VmHWM at the window's end minus VmRSS before the first set-up; {}",
                peak.1
            ),
        ),
    ]
}

/// The workload's mechanism check: `(description, holds)`.
fn mechanism(plan: &Plan, log: &WindowLog, corridor_lazy: Option<bool>) -> Vec<(String, bool)> {
    let hits = hit_ratio(log);
    match plan.workload {
        Workload::HotRead => vec![(format!("cache.hit_ratio = {hits} (must be 1)"), hits == 1.0)],
        Workload::ColdMiss => {
            let lazy = corridor_lazy == Some(true);
            vec![
                (format!("cache.hit_ratio = {hits} (must be 0)"), hits == 0.0),
                (format!("corridor component lazy = {lazy}"), lazy),
            ]
        }
        Workload::ReadWrite => {
            let (repairs, invalidations, _) = write_totals(&log.ops);
            vec![(
                format!("repairs = {repairs}, invalidations = {invalidations} (both must be > 0)"),
                repairs > 0 && invalidations > 0,
            )]
        }
    }
}

fn main() {
    run::anchor();
    let args = parse_args();
    let plan = Plan::new(args.workload, args.seed);
    let tail = tail_q(args.workload);
    let out = PathBuf::from("krperf-out").join(args.workload.name());
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create the output directory");
    let server_log = out.join("server-spans.jsonl");

    // One log buffer per client and window, allocated before the peak
    // memory is reset.
    let windows_to_run = if args.trace { 2 } else { 1 };
    let window_s = args.seconds / windows_to_run as f64;
    let op_logs: Vec<_> = (0..windows_to_run)
        .map(|_| run::op_logs(&plan, window_s))
        .collect();
    let (rss_before_mb, peak_note) = reset_peak();

    // Set up SETUPS_BEFORE times; keep the last server (and, traced, the
    // one before it for the untraced half-window).
    let keep = windows_to_run;
    let mut setups = Vec::new();
    let mut servers = Vec::new();
    for i in 0..SETUPS_BEFORE {
        let traced = args.trace && i + 1 == SETUPS_BEFORE;
        let (handle, sample) = run::setup(&plan, &out, traced.then_some(server_log.as_path()));
        setups.push(sample);
        servers.push(handle);
        if i + keep < SETUPS_BEFORE {
            servers
                .pop()
                .expect("just pushed")
                .shutdown_and_join()
                .expect("shutdown");
        }
    }

    // Traced, the first window runs untraced and the second traced.
    let windows: Vec<WindowLog> = servers
        .iter()
        .zip(op_logs)
        .enumerate()
        .map(|(i, (server, logs))| run::window(&plan, server.addr(), window_s, i == 1, logs))
        .collect();
    let peak_mb = windows[0].hwm_mb - rss_before_mb;
    let measured = servers.last().expect("a server");
    let replays = args
        .trace
        .then(|| layers::replay(&plan, windows.last().expect("traced window"), measured));
    for s in servers {
        s.shutdown_and_join().expect("shutdown");
    }
    for _ in 0..SETUPS_AFTER {
        let (handle, sample) = run::setup(&plan, &out, None);
        setups.push(sample);
        handle.shutdown_and_join().expect("shutdown");
    }

    // The servers are down: the answer check may use every CPU.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checks: Vec<check::CheckResult> = windows
        .iter()
        .map(|w| check::check(&plan, w, threads))
        .collect();
    let wrong: usize = checks.iter().map(|c| c.wrong.len()).sum();
    let attempted = windows.iter().map(|w| w.ops.len()).sum::<usize>();
    let failed = windows
        .iter()
        .zip(&checks)
        .map(|(w, c)| failures(&w.ops, &c.wrong))
        .sum::<usize>();
    let corridor_lazy = checks.iter().find_map(|c| c.corridor_lazy);

    let metrics = match &replays {
        None => end_to_end(&windows[0], &setups, (peak_mb, peak_note), tail),
        Some(replay) => layers::per_layer(
            &windows[0],
            &windows[1],
            &setups,
            replay,
            &server_log,
            &out,
            &checks,
        ),
    };
    let mechanisms = mechanism(&plan, windows.last().expect("a window"), corridor_lazy);

    println!(
        "krperf {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if windows.iter().any(|w| w.log_overflow) {
        println!("note: an operation log outgrew its buffer; peak_rss_mb counts the growth");
    }
    for m in &metrics {
        println!(
            "metric {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    // The first window is the untraced one in both modes.
    for m in report(&windows[0], &setups, tail) {
        println!(
            "report {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let checked: usize = checks.iter().map(|c| c.checked).sum();
    println!(
        "answers: {checked} distinct answers checked, {wrong} wrong; failed_frac = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    let mut mechanisms_hold = true;
    for (what, holds) in &mechanisms {
        println!("mechanism {}: {what}", if *holds { "ok" } else { "FAILED" });
        mechanisms_hold &= holds;
    }
    let correct = wrong == 0 && failed == 0 && mechanisms_hold;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
