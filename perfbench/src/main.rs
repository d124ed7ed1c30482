//! The repository benchmark: four workloads over the PatchDB build
//! pipeline and query server, measured from outside the program.
//!
//! ```text
//! perfbench --workload <identify-cold|api-mixed|scan|build> --seed N --seconds S --trace 0|1
//! ```
//!
//! Serve workloads boot an in-process `patchdb-serve` server from a
//! `patchdb-snapshot/v1` file of `BuildOptions::tiny(42)` (built in a
//! child process) and drive it over loopback HTTP with at most `nproc`
//! client threads and connections. Every reply is compared byte for
//! byte with a freshly booted reference server. The last line of
//! stdout is the result object; the line before it carries the host
//! record and the request accounting. See README.md for the metrics.

mod build;
mod client;
mod expo;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use patchdb_rt::json::Json;
use patchdb_serve::Snapshot;

use client::{closed_loop, open_loop, Sample};
use expo::Scrape;
use inputs::{Kind, Plan};
use layers::Metrics;
use stats::{beyond, median, quantile, sorted};

/// Serve workloads all serve `BuildOptions::tiny(SERVED_SEED)`, the
/// dataset `patchdb build --tiny` writes. The workload seed shapes every
/// request but not the served dataset: between tiny seeds the signature
/// count and snapshot size move by 15-20 %, which alone would spread the
/// serve metrics across seeds by more than their bounds.
const SERVED_SEED: u64 = 42;
/// Boots per untraced serve run; `setup_s` is their median. A traced
/// run boots once, so few requests reach the server's histograms
/// before the window.
const SETUP_BOOTS: usize = 31;
/// Workloads whose plan reloads during the window. The others keep
/// every worker busy (identify-cold, and the build workload's deploy
/// phase, where a reload holds a worker for ~0.3 s) and reload an idle
/// server instead, `RELOAD_PROBES` times in all: half on the timed
/// server before the inputs are made, half on a fresh boot after the
/// reference run.
const RELOADS_IN_WINDOW: [&str; 2] = ["api-mixed", "scan"];
const RELOAD_PROBES: usize = 24;
/// `reload_ms` is this quantile of the round trips, not their median.
/// The round trips fall in two modes about 4 ms apart (~11-13 ms and
/// ~15-18 ms on a 2-vCPU host). The slow one follows the host: it took
/// 0-65 % of a run's reloads, and the run with none was faster on every
/// metric. The median jumps between the modes from run to run; the
/// lower quartile stays in the fast one, the reload's own cost. The
/// detail line gives the median and every round trip.
const RELOAD_QUANTILE: f64 = 0.25;
/// Workloads driven by the identify-cold loop; the identify cache must
/// answer none of their requests.
const COLD_IDENTIFY: [&str; 2] = ["identify-cold", "build"];
/// Child-process builds of the served snapshot per serve run.
const SNAPSHOT_BUILDS: usize = 5;
/// Builds per untraced build run, of seeds `seed`, `seed + 1`, ...: a
/// fixed count, not one set by `--seconds` or the host's speed, so a
/// faster build is measured on the same datasets.
const BUILDS: u64 = 4;
/// Unique identify bodies generated per second of run: well above what
/// two workers sustain, so the bodies outlast the window.
const IDENTIFY_BODIES_PER_S: usize = 27000;
/// Length of the build workload's deploy phase, which serves the built
/// snapshot under the identify-cold loop.
const DEPLOY_SECONDS: f64 = 2.0;
/// Parts of the window the read metrics are medians over, and the
/// fewest reads a part must hold for its p99 to have 10 samples beyond.
const SLICES: usize = 5;
const MIN_SLICE_READS: usize = 1000;
/// A failed or refused request misses every latency limit; it enters
/// the percentiles at this value.
const FAILED_MS: f64 = 20_000.0;

const WORKLOADS: [&str; 4] = ["identify-cold", "api-mixed", "scan", "build"];

const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("reload_ms", "ms"),
    ("build_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit; a traced run that misses one
/// fails.
const PER_LAYER: [(&str, &str); 48] = [
    ("serve.event_loop.busy_frac", "ratio"),
    ("serve.stage.queue_p50_us", "us"),
    ("serve.stage.queue_p99_us", "us"),
    ("serve.stage.queue_mean_us", "us"),
    ("serve.rejected_503", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.stage.parse_p50_us", "us"),
    ("serve.stage.parse_mean_us", "us"),
    ("serve.stage.write_p50_us", "us"),
    ("serve.stage.write_mean_us", "us"),
    ("serve.stage.batch_p50_us", "us"),
    ("serve.stage.batch_mean_us", "us"),
    ("serve.batch.len_mean", "rows"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.flushes", "count"),
    ("patch-core.parse_us", "us"),
    ("patchdb-features.extract_us", "us"),
    ("patchdb-features.extract_ms", "ms"),
    ("patchdb-ml.score_us_per_row.b1", "us"),
    ("patchdb-ml.score_us_per_row.bmean", "us"),
    ("patchdb-ml.index_build_ms", "ms"),
    ("patchdb.classify_us", "us"),
    ("patchdb.scan_ms_p50", "ms"),
    ("patchdb.scan_ms_p90", "ms"),
    ("patchdb.scan.vulnerable", "count"),
    ("patchdb.scan.patched", "count"),
    ("patchdb.scan.not_applicable", "count"),
    ("patchdb.scan.expected_verdict", "count"),
    ("serve.shard.score_ratio_2v1", "ratio"),
    ("serve.shard.scan_ratio_2v1", "ratio"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.snapshot.read_ms", "ms"),
    ("serve.snapshot.decode_ms", "ms"),
    ("serve.snapshot.encode_ms", "ms"),
    ("serve.index.swap_p50_ms", "ms"),
    ("patchdb-corpus.generate_s", "s"),
    ("patchdb-corpus.materialize_ms", "ms"),
    ("patchdb-mine.mine_nvd_ms", "ms"),
    ("patchdb-mine.collect_wild_ms", "ms"),
    ("patchdb-nls.augment_ms", "ms"),
    ("patchdb-nls.distances_evaluated", "count"),
    ("patchdb-nls.distances_skipped", "count"),
    ("patchdb-synth.synthesize_ms", "ms"),
    ("patchdb-synth.records", "count"),
    ("patchdb.assemble_ms", "ms"),
    ("patchdb.build_traced_ms", "ms"),
    ("serve.compute_scan_share", "ratio"),
    ("client.generator_late_p99_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    detail: Vec<(String, Json)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("build-child") {
        std::process::exit(build_child(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|o| Ok((result_line(&args, &o)?, o.detail)));
    match outcome {
        Ok((line, outcome_detail)) => {
            let mut detail = vec![
                ("workload".to_owned(), Json::Str(args.workload.clone())),
                ("seed".to_owned(), Json::Num(args.seed as f64)),
                ("trace".to_owned(), Json::Bool(args.trace)),
                ("host".to_owned(), host()),
            ];
            detail.extend(outcome_detail);
            println!(
                "{}",
                Json::Obj(vec![("perfbench".to_owned(), Json::Obj(detail))])
            );
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag or value: {other} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result object: every metric of the mode's table, with its unit.
fn result_line(args: &Args, o: &Outcome) -> Result<Json, String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = o
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .ok_or(format!("no value for metric {name}"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number"));
            }
            let fields = vec![
                ("value".into(), Json::Num(*value)),
                ("unit".into(), Json::Str(unit.into())),
            ];
            Ok((name.to_owned(), Json::Obj(fields)))
        })
        .collect::<Result<_, String>>()?;
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(o.correct)),
        ("attempted".into(), Json::Num(o.attempted as f64)),
        ("failed".into(), Json::Num(o.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// Core count, OS and kernel, compiler, and build profile.
fn host() -> Json {
    let nproc = nproc();
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into())
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "os".into(),
            Json::Str(format!(
                "{} {}",
                std::env::consts::OS,
                read("/proc/sys/kernel/ostype")
            )),
        ),
        (
            "kernel".into(),
            Json::Str(read("/proc/sys/kernel/osrelease")),
        ),
        ("rustc".into(), Json::Str(rustc)),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch space inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new()?;
    match args.workload.as_str() {
        "build" => build_workload(args, &work),
        _ => serve_workload(args, &work),
    }
}

// ───────────────────────── builds in child processes ─────────────────────────

fn build_child(argv: &[String]) -> i32 {
    let [scale, seed, threads, out, trace] = argv else {
        eprintln!("usage: perfbench build-child <tiny|default> <seed> <threads> <out> <0|1>");
        return 2;
    };
    let parsed = seed.parse::<u64>().ok().zip(threads.parse::<usize>().ok());
    let Some((seed, threads)) = parsed else {
        eprintln!("perfbench build-child: bad seed or thread count");
        return 2;
    };
    match build::child(scale, seed, threads, out, trace == "1") {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("perfbench build-child: {e}");
            1
        }
    }
}

/// One build in a fresh child process; its JSON line.
fn spawn_build(scale: &str, seed: u64, out: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "build-child",
            scale,
            &seed.to_string(),
            &nproc().to_string(),
            out,
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn build child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "build child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Json::parse(text.lines().last().unwrap_or("")).map_err(|e| format!("build child output: {e}"))
}

/// Medians of `builds`: `build_s` and `peak_rss_mb` (`setup_s` is the
/// caller's).
fn build_medians(builds: &[Json], out: &mut Metrics) -> Result<(), String> {
    for metric in ["build_s", "peak_rss_mb"] {
        let v: Vec<f64> = builds
            .iter()
            .map(|b| {
                b.get(metric)
                    .and_then(Json::as_f64)
                    .ok_or(format!("build child omitted {metric}"))
            })
            .collect::<Result<_, _>>()?;
        out.push((metric.to_owned(), median(&v)));
    }
    Ok(())
}

fn child_layers(build: &Json, out: &mut Metrics) -> Result<(), String> {
    let Some(Json::Obj(fields)) = build.get("layers") else {
        return Err("traced build child reported no layers".into());
    };
    for (name, v) in fields {
        out.push((name.clone(), v.as_f64().ok_or("non-numeric layer value")?));
    }
    Ok(())
}

// ───────────────────────────── serve workloads ─────────────────────────────

/// What the timed window left behind.
struct Window {
    /// Per connection, the samples in send order.
    samples: Vec<Vec<Sample>>,
    elapsed: Duration,
}

fn drive(addr: SocketAddr, plan: &Plan, seconds: f64) -> Window {
    let start = Instant::now();
    let samples: Vec<Vec<Sample>> = if plan.due.is_empty() {
        let stop = start + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .per_conn
                .iter()
                .zip(&plan.timed)
                .map(|(order, timed)| {
                    s.spawn(move || {
                        closed_loop(addr, &plan.reqs, order, timed, plan.depth, start, stop)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    } else {
        let holds: Vec<bool> = plan.kinds.iter().map(|&k| k == Kind::Reload).collect();
        open_loop(addr, &plan.reqs, &plan.per_conn, &plan.due, &holds, start)
    };
    let elapsed = samples
        .iter()
        .flatten()
        .map(|s| s.done_at)
        .max()
        .unwrap_or_default();
    Window { samples, elapsed }
}

/// Request accounting and reply checks of one window.
#[derive(Default)]
struct Checked {
    attempted: usize,
    ok: usize,
    /// Failed: no reply (timeout or dead connection), a 503 rejection,
    /// or any other non-2xx besides the expected `/v1/patch` 404s.
    no_reply: usize,
    rejected: usize,
    other_status: usize,
    /// A reply whose bytes differ from the reference's.
    mismatched: usize,
    expected_404: usize,
    /// Reads (every request but reloads): completion time in s since
    /// the window opened, latency in ms (failed ones at `FAILED_MS`),
    /// and whether it succeeded.
    reads: Vec<(f64, f64, bool)>,
    reload_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Scan replies by the verdict their target should give (row) and
    /// the verdict they gave (column).
    scan_confusion: [[usize; 3]; 3],
}

impl Checked {
    fn failed(&self) -> usize {
        self.no_reply + self.rejected + self.other_status
    }

    /// Whether every kind of scan target that was sent got its own
    /// verdict at least once: a scanner that calls every window not
    /// applicable fails the run even though the reference agrees.
    fn scan_kinds_recognised(&self) -> bool {
        (0..3).all(|k| {
            self.scan_confusion[k].iter().sum::<usize>() == 0 || self.scan_confusion[k][k] > 0
        })
    }

    /// Scan replies whose verdict differs from their target's kind.
    fn scan_disagreeing(&self) -> usize {
        let all: usize = self.scan_confusion.iter().flatten().sum();
        all - (0..3).map(|k| self.scan_confusion[k][k]).sum::<usize>()
    }
}

fn check(plan: &Plan, window: &Window, reference: &[(usize, client::Reply)]) -> Checked {
    let lookup: std::collections::HashMap<usize, &client::Reply> =
        reference.iter().map(|(k, r)| (*k, r)).collect();
    let mut c = Checked::default();
    for s in window.samples.iter().flatten() {
        let kind = plan.kinds[s.key];
        c.attempted += 1;
        c.late_ms.push(s.late.as_secs_f64() * 1e3);
        let good = match &s.reply {
            None => {
                c.no_reply += 1;
                false
            }
            Some(r) if r.status == 503 => {
                c.rejected += 1;
                false
            }
            Some(r) => {
                let matches = match (kind, lookup.get(&s.key)) {
                    (Kind::Healthz, _) => r.status == 200 && healthz_ok(&r.body),
                    (Kind::Reload, _) => {
                        r.status == 200 && r.body.starts_with(br#"{"ok":true,"generation":"#)
                    }
                    (_, Some(expect)) => {
                        if let (Some(want), 200) = (plan.expect[s.key], r.status) {
                            c.scan_confusion[want][scan_verdict(&r.body)] += 1;
                        }
                        r == *expect
                    }
                    (_, None) => false,
                };
                c.mismatched += usize::from(!matches);
                let expected_404 = kind == Kind::Patch && r.status == 404;
                c.expected_404 += usize::from(expected_404);
                let good = (200..300).contains(&r.status) || expected_404;
                c.other_status += usize::from(!good);
                good
            }
        };
        c.ok += usize::from(good);
        let ms = if good {
            s.latency.as_secs_f64() * 1e3
        } else {
            FAILED_MS
        };
        if kind == Kind::Reload {
            c.reload_ms.push(ms);
        } else {
            c.reads.push((s.done_at.as_secs_f64(), ms, good));
        }
    }
    c
}

/// Throughput and read-latency p50/p90/p99, each per part of the window
/// (`SLICES` equal parts by completion time when every part holds at
/// least `MIN_SLICE_READS` reads, else one part), so a burst of outside
/// load moves at most one part of the median.
fn sliced(reads: &[(f64, f64, bool)], elapsed: f64) -> [Vec<f64>; 4] {
    let parts = if reads.len() >= SLICES * MIN_SLICE_READS {
        SLICES
    } else {
        1
    };
    let width = elapsed.max(1e-9) / parts as f64;
    let mut out: [Vec<f64>; 4] = Default::default();
    for part in 0..parts {
        let (lo, hi) = (width * part as f64, width * (part + 1) as f64);
        let last = part + 1 == parts;
        let inside: Vec<&(f64, f64, bool)> = reads
            .iter()
            .filter(|r| r.0 >= lo && (r.0 < hi || last))
            .collect();
        let good = inside.iter().filter(|r| r.2).count();
        let lat = sorted(&inside.iter().map(|r| r.1).collect::<Vec<_>>());
        out[0].push(good as f64 / width);
        out[1].push(quantile(&lat, 0.5));
        out[2].push(quantile(&lat, 0.9));
        out[3].push(quantile(&lat, 0.99));
    }
    out
}

/// `/healthz` answers `ok gen=<n> up=<secs>`: the generation moves with
/// reloads and the uptime with the clock, so it is checked by shape.
fn healthz_ok(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    let Some(rest) = text
        .strip_prefix("ok gen=")
        .and_then(|r| r.strip_suffix('\n'))
    else {
        return false;
    };
    let Some((generation, up)) = rest.split_once(" up=") else {
        return false;
    };
    generation.parse::<u64>().is_ok_and(|g| g >= 1) && up.parse::<u64>().is_ok()
}

fn scan_verdict(body: &[u8]) -> usize {
    let json = Json::parse(&String::from_utf8_lossy(body)).ok();
    let field = |k: &str| {
        json.as_ref()
            .and_then(|j| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize
    };
    layers::verdict(field("vulnerable"), field("patched"))
}

/// A scrape: over HTTP in a traced run, straight from the process's
/// metrics registry otherwise, so untraced runs send only workload
/// requests.
fn read_metrics(addr: SocketAddr, trace: bool) -> Result<Scrape, String> {
    if trace {
        serve::scrape(addr)
    } else {
        Scrape::parse(&patchdb_rt::obs::metrics_snapshot().to_metrics_text())
    }
}

/// Named wall-clock phases of a run, for the detail line.
struct Phases {
    done: Vec<(String, Json)>,
    since: Instant,
}

impl Phases {
    fn new() -> Phases {
        Phases {
            done: Vec::new(),
            since: Instant::now(),
        }
    }

    fn end(&mut self, name: &str) {
        self.done.push((
            name.to_owned(),
            Json::Num(self.since.elapsed().as_secs_f64()),
        ));
        self.since = Instant::now();
    }
}

fn serve_workload(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let threads = nproc();
    let snap_path = work.file("tiny.snapshot");
    let mut out = Outcome::default();
    let mut phases = Phases::new();

    // The served snapshot, built in child processes: some before the
    // window, the rest after the reference run (to a scratch file), so
    // a slow spell of the host moves fewer of them.
    let built = |count: usize, path: &str| -> Result<Vec<Json>, String> {
        (0..count)
            .map(|_| spawn_build("tiny", SERVED_SEED, path, false))
            .collect()
    };
    let mut builds: Vec<Json> = if args.trace {
        let traced = spawn_build("tiny", SERVED_SEED, &snap_path, true)?;
        child_layers(&traced, &mut out.metrics)?;
        vec![traced]
    } else {
        built(SNAPSHOT_BUILDS / 2, &snap_path)?
    };
    phases.end("snapshot_builds");

    // Inputs are made after the boots and reload probes, so those run
    // before the process holds the workload's bodies.
    let make_plan = |out: &mut Outcome| -> Result<Plan, String> {
        let index = Snapshot::read_from(&snap_path)
            .and_then(|s| s.decode())
            .map_err(|e| e.to_string())?;
        let conns = threads;
        Ok(match args.workload.as_str() {
            "identify-cold" => {
                let want = (args.seconds * IDENTIFY_BODIES_PER_S as f64) as usize;
                let (bodies, security) = inputs::wild_bodies(args.seed, want, threads);
                out.detail.push((
                    "security_share".into(),
                    Json::Num(security as f64 / bodies.len().max(1) as f64),
                ));
                inputs::identify_cold(bodies, conns)
            }
            "api-mixed" => {
                // Unseen bodies: their expected count with 20 % slack.
                let fresh_want =
                    (args.seconds * inputs::MIXED_RATE / inputs::KINDS as f64 * 1.2) as usize;
                let (bodies, _) =
                    inputs::wild_bodies(args.seed, inputs::HOT_SET + fresh_want, threads);
                let (hot, fresh) = bodies.split_at(inputs::HOT_SET.min(bodies.len()));
                inputs::api_mixed(args.seed, args.seconds, conns, hot, fresh, &index)
            }
            "scan" => {
                let count = (args.seconds * 200.0) as usize + 64;
                inputs::scan(args.seed, SERVED_SEED, &index, conns, count).with_reloads(
                    inputs::reload_count(inputs::RELOADS_PER_S, args.seconds),
                    args.seconds,
                )
            }
            other => return Err(format!("not a serve workload: {other}")),
        })
    };
    let setup = serve_phase(
        args,
        &snap_path,
        make_plan,
        args.seconds,
        SETUP_BOOTS,
        &mut out,
        &mut phases,
    )?;
    out.metrics.push(("setup_s".into(), setup));
    if !args.trace {
        let rest = SNAPSHOT_BUILDS - builds.len();
        builds.extend(built(rest, &work.file("tiny-rest.snapshot"))?);
        phases.end("snapshot_builds_after");
    }
    build_medians(&builds, &mut out.metrics)?;
    let hashes: BTreeSet<&str> = builds
        .iter()
        .filter_map(|b| b.get("dataset_hash").and_then(Json::as_str))
        .collect();
    if hashes.len() != 1 {
        return Err(format!(
            "builds of one seed disagree on the dataset: {hashes:?}"
        ));
    }
    out.detail.push(("phase_s".into(), Json::Obj(phases.done)));
    Ok(out)
}

/// Primes the event counters, boots `boots` times (one boot serves),
/// probes reloads, makes the plan and drives it for `seconds`, checks every
/// reply against a fresh reference server, and records the serve
/// metrics (and, traced, the serve layers). Returns the median boot
/// time.
fn serve_phase(
    args: &Args,
    snap_path: &str,
    make_plan: impl FnOnce(&mut Outcome) -> Result<Plan, String>,
    seconds: f64,
    boots: usize,
    out: &mut Outcome,
    phases: &mut Phases,
) -> Result<f64, String> {
    let threads = nproc();
    let primer = inputs::wild_bodies(args.seed ^ 0x9e1d, 1, 1)
        .0
        .pop()
        .ok_or("no primer body")?;
    serve::prime(snap_path, threads, &primer)?;

    // One server at a time, each boot timed: half of them now (the last
    // one serves), the rest after the reference run, so a slow spell
    // of the host moves fewer of them. Reload probes are split the
    // same way.
    let mut setups = Vec::new();
    let mut boot = || -> Result<serve::Boot, String> {
        let booted = serve::boot(snap_path, threads)?;
        setups.push(booted.setup.as_secs_f64());
        Ok(booted)
    };
    let (pre_boots, post_boots) = if args.trace {
        (1, 0)
    } else {
        (boots.div_ceil(2), boots / 2)
    };
    for _ in 1..pre_boots {
        boot()?.server.shutdown();
    }
    let timed = boot()?;
    let addr = timed.server.addr();
    let reloads_in_window = RELOADS_IN_WINDOW.contains(&args.workload.as_str());
    let mut probe = Vec::new();
    if !reloads_in_window {
        probe.extend(serve::reload_probe(addr, RELOAD_PROBES / 2)?);
    }
    phases.end("prime_boots_and_probe");
    let plan = &make_plan(out)?;
    phases.end("inputs");

    let before = read_metrics(addr, args.trace)?;
    let window = drive(addr, plan, seconds);
    let after = read_metrics(addr, args.trace)?;
    timed.server.shutdown();
    phases.end("window");

    let sent: BTreeSet<usize> = window.samples.iter().flatten().map(|s| s.key).collect();
    let keys: Vec<usize> = sent
        .iter()
        .copied()
        .filter(|&k| !matches!(plan.kinds[k], Kind::Healthz | Kind::Reload))
        .collect();
    let reference: Vec<(usize, client::Reply)> = keys
        .iter()
        .copied()
        .zip(serve::reference(snap_path, threads, &plan.reqs, &keys)?)
        .collect();
    let checked = check(plan, &window, &reference);
    for _ in 0..post_boots {
        boot()?.server.shutdown();
    }
    if !reloads_in_window && !args.trace {
        let idle = serve::boot(snap_path, threads)?;
        let second = serve::reload_probe(idle.server.addr(), RELOAD_PROBES - RELOAD_PROBES / 2);
        idle.server.shutdown();
        probe.extend(second?);
    }
    phases.end("reference_and_boots");

    // A cold identify loop must never be answered from the cache.
    let hits = expo::counter_delta(&before, &after, "serve.identify.cache_hits")?;
    let cold_ok = !COLD_IDENTIFY.contains(&args.workload.as_str()) || hits == 0;
    // Byte equality with the reference already implies equal verdict
    // counts; this guards what the targets are for.
    let scan_ok = checked.scan_kinds_recognised();
    out.correct = checked.mismatched == 0 && cold_ok && scan_ok;
    out.attempted = checked.attempted;
    out.failed = checked.failed();

    let slices = sliced(&checked.reads, window.elapsed.as_secs_f64());
    for (name, values) in [
        "throughput_rps",
        "latency_p50_ms",
        "latency_p90_ms",
        "latency_p99_ms",
    ]
    .iter()
    .zip(&slices)
    {
        out.metrics.push((name.to_string(), median(values)));
    }
    let lat = sorted(&checked.reads.iter().map(|r| r.1).collect::<Vec<_>>());
    let reload = if reloads_in_window {
        &checked.reload_ms
    } else {
        &probe
    };
    out.metrics.push((
        "reload_ms".into(),
        quantile(&sorted(reload), RELOAD_QUANTILE),
    ));

    let late = sorted(&checked.late_ms);
    let num = |v: f64| Json::Num(v);
    out.detail.extend([
        ("sent".into(), num(checked.attempted as f64)),
        ("ok".into(), num(checked.ok as f64)),
        ("failed".into(), num(checked.failed() as f64)),
        ("failed_no_reply".into(), num(checked.no_reply as f64)),
        ("failed_503".into(), num(checked.rejected as f64)),
        (
            "failed_other_status".into(),
            num(checked.other_status as f64),
        ),
        ("mismatched".into(), num(checked.mismatched as f64)),
        ("expected_404".into(), num(checked.expected_404 as f64)),
        ("identify_cache_hits".into(), num(hits as f64)),
        ("window_s".into(), num(window.elapsed.as_secs_f64())),
        ("latency_samples".into(), num(lat.len() as f64)),
        (
            "window_latency_ms".into(),
            Json::Obj(
                [
                    ("p50", 0.5),
                    ("p90", 0.9),
                    ("p95", 0.95),
                    ("p98", 0.98),
                    ("p99", 0.99),
                    ("p99.5", 0.995),
                    ("p99.9", 0.999),
                ]
                .iter()
                .map(|&(name, q)| (name.to_owned(), num(quantile(&lat, q))))
                .collect(),
            ),
        ),
        ("slices".into(), num(slices[0].len() as f64)),
        (
            "samples_beyond_p99".into(),
            num(beyond(lat.len(), 0.99) as f64),
        ),
        (
            "samples_beyond_p90".into(),
            num(beyond(lat.len(), 0.9) as f64),
        ),
        ("reload_ms_median".into(), num(median(reload))),
        (
            "reload_ms_samples".into(),
            Json::Arr(reload.iter().map(|&v| num(v)).collect()),
        ),
        (
            "setup_s_samples".into(),
            Json::Arr(setups.iter().map(|&v| num(v)).collect()),
        ),
        ("generator_late_p50_ms".into(), num(quantile(&late, 0.5))),
        ("generator_late_p99_ms".into(), num(quantile(&late, 0.99))),
        (
            "generator_late_max_ms".into(),
            num(late.last().copied().unwrap_or(0.0)),
        ),
        (
            "scan_confusion".into(),
            Json::Arr(
                checked
                    .scan_confusion
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&v| num(v as f64)).collect()))
                    .collect(),
            ),
        ),
        (
            "scan_disagreeing".into(),
            num(checked.scan_disagreeing() as f64),
        ),
        ("bench_peak_rss_mb".into(), num(build::peak_rss_mb()?)),
    ]);

    if args.trace {
        let flags = layers::from_scrapes(&before, &after, &mut out.metrics)?;
        out.detail.extend(flags);
        let len_mean = out
            .metrics
            .iter()
            .find(|(n, _)| n == "serve.batch.len_mean")
            .map_or(1.0, |m| m.1);
        let sent: Vec<usize> = sent.into_iter().collect();
        layers::replay(snap_path, plan, &sent, len_mean, &mut out.metrics)?;
        let scan_share = if plan.kinds.contains(&Kind::Scan) {
            let (_, compute) = expo::hist_delta(&before, &after, "serve.stage.compute_ns")?;
            let (_, scan) = expo::hist_delta(&before, &after, "serve.scan.ns")?;
            scan as f64 / compute.max(1) as f64
        } else {
            0.0
        };
        out.metrics
            .push(("serve.compute_scan_share".into(), scan_share));
        out.metrics
            .push(("client.generator_late_p99_ms".into(), quantile(&late, 0.99)));
    }
    phases.end("checks_and_layers");
    Ok(median(&setups))
}

// ───────────────────────────── build workload ─────────────────────────────

fn build_workload(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    // The deploy phase serves the build of `seed` from a file of its
    // own; the other builds share one scratch file.
    let snap_path = work.file("default.snapshot");
    let rest_path = work.file("default-rest.snapshot");
    let mut out = Outcome::default();
    let mut phases = Phases::new();
    let mut builds = Vec::new();
    if args.trace {
        builds.push(spawn_build("default", args.seed, &snap_path, true)?);
    } else {
        // Build i is of `default_scale(seed + i)`: the medians then rest
        // on several datasets, which narrows their spread across seeds.
        for i in 0..BUILDS {
            let path = if i == 0 { &snap_path } else { &rest_path };
            builds.push(spawn_build(
                "default",
                args.seed.wrapping_add(i),
                path,
                false,
            )?);
        }
    }
    build_medians(&builds, &mut out.metrics)?;
    let generate: Vec<f64> = builds
        .iter()
        .filter_map(|b| b.get("generate_s").and_then(Json::as_f64))
        .collect();
    out.metrics.push(("setup_s".into(), median(&generate)));
    if args.trace {
        child_layers(&builds[0], &mut out.metrics)?;
    }
    out.detail
        .push(("builds".into(), Json::Num(builds.len() as f64)));
    phases.end("builds");

    // Deploy: serve the built snapshot under the identify-cold loop.
    let make_plan = |_: &mut Outcome| {
        let want = (DEPLOY_SECONDS * IDENTIFY_BODIES_PER_S as f64) as usize;
        let (bodies, _) = inputs::wild_bodies(args.seed, want, nproc());
        Ok(inputs::identify_cold(bodies, nproc()))
    };
    serve_phase(
        args,
        &snap_path,
        make_plan,
        DEPLOY_SECONDS,
        1,
        &mut out,
        &mut phases,
    )?;
    out.detail.push(("phase_s".into(), Json::Obj(phases.done)));
    Ok(out)
}
