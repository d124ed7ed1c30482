//! Per-layer numbers of a traced run: deltas of the server's own
//! `/metrics` counters over the timed window, and the workload's own
//! inputs replayed through each crate's public functions with a timer
//! around every call. A layer the workload does not exercise reads 0.

use std::time::Instant;

use patch_core::Patch;
use patchdb_rt::json::Json;
use patchdb_serve::{ServeIndex, ShardedIndex, Snapshot};

use crate::expo::{counter_delta, hist_delta, Scrape};
use crate::inputs::{parse, Kind, Plan};
use crate::stats::{median, quantile, sorted};

/// Cap on replayed identify/classify bodies: enough for stable means.
const REPLAY_MAX: usize = 2000;
/// Scan targets timed on each side of the shard comparison.
const SHARD_SCAN_TARGETS: usize = 4;

pub type Metrics = Vec<(String, f64)>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A stage percentile is flagged when the samples its histogram held
/// before the window exceed this share of the window's own samples.
const PRE_WINDOW_MAX_SHARE: f64 = 0.05;

/// Server-side layers from the scrapes bracketing the timed window.
/// Stage percentiles are the cumulative histograms at the end of the
/// window: the server keeps no per-window quantiles, and before the
/// window it has answered the primer, one boot's `/healthz` polls and (on the
/// workloads without reloads in the window) the first reload probes.
/// Each stage's window mean (Δsum ÷ Δcount) is exact for the window;
/// the returned detail gives each stage's pre-window share and the
/// percentiles it flags.
pub fn from_scrapes(
    before: &Scrape,
    after: &Scrape,
    out: &mut Metrics,
) -> Result<Vec<(String, Json)>, String> {
    let mut put = |name: &str, v: f64| out.push((name.to_owned(), v));
    let (_, work) = hist_delta(before, after, "serve.loop.work_ns")?;
    let (_, wait) = hist_delta(before, after, "serve.loop.poll_wait_ns")?;
    put(
        "serve.event_loop.busy_frac",
        work as f64 / (work + wait).max(1) as f64,
    );
    let mut shares = Vec::new();
    let mut flagged = Vec::new();
    for stage in ["queue", "parse", "write", "batch"] {
        let series = format!("serve.stage.{stage}_ns");
        let (count, sum) = hist_delta(before, after, &series)?;
        put(
            &format!("serve.stage.{stage}_mean_us"),
            sum as f64 / count.max(1) as f64 / 1e3,
        );
        let pre = before.hist(&series)?.count as f64;
        let share = if count > 0 { pre / count as f64 } else { 0.0 };
        shares.push((stage.to_owned(), Json::Num(share)));
        if share > PRE_WINDOW_MAX_SHARE {
            flagged.push(Json::Str(format!("serve.stage.{stage}_p*")));
        }
    }
    let queue = after.hist("serve.stage.queue_ns")?;
    put("serve.stage.queue_p50_us", queue.p50 as f64 / 1e3);
    put("serve.stage.queue_p99_us", queue.p99 as f64 / 1e3);
    put(
        "serve.rejected_503",
        counter_delta(before, after, "serve.rejected_503")? as f64,
    );
    put(
        "serve.deadline_expired",
        counter_delta(before, after, "serve.deadline_expired")? as f64,
    );
    put(
        "serve.stage.parse_p50_us",
        after.hist("serve.stage.parse_ns")?.p50 as f64 / 1e3,
    );
    put(
        "serve.stage.write_p50_us",
        after.hist("serve.stage.write_ns")?.p50 as f64 / 1e3,
    );
    put(
        "serve.stage.batch_p50_us",
        after.hist("serve.stage.batch_ns")?.p50 as f64 / 1e3,
    );
    let (batches, rows) = hist_delta(before, after, "serve.identify.batch_len")?;
    put("serve.batch.len_mean", rows as f64 / batches.max(1) as f64);
    let hits = counter_delta(before, after, "serve.identify.cache_hits")?;
    let identifies = counter_delta(before, after, "serve.identify.requests")?;
    put(
        "serve.cache.hit_ratio",
        hits as f64 / identifies.max(1) as f64,
    );
    put(
        "serve.cache.flushes",
        counter_delta(before, after, "serve.identify.cache_flushes")? as f64,
    );
    put(
        "serve.index.swap_p50_ms",
        after.hist("serve.index.reload_ns")?.p50 as f64 / 1e6,
    );
    Ok(vec![
        ("stage_pre_window_share".into(), Json::Obj(shares)),
        ("stage_percentiles_flagged".into(), Json::Arr(flagged)),
    ])
}

/// Replays the distinct requests the window sent through the crates'
/// public functions; `len_mean` is the server's observed batch length.
pub fn replay(
    snapshot: &str,
    plan: &Plan,
    sent: &[usize],
    len_mean: f64,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut put = |name: &str, v: f64| out.push((name.to_owned(), v));
    let mut reads = Vec::new();
    let mut decodes = Vec::new();
    let mut bytes = 0;
    let mut decode = || -> Result<ServeIndex, String> {
        let t = Instant::now();
        let snap = Snapshot::read_from(snapshot).map_err(|e| e.to_string())?;
        reads.push(us(t) / 1e3);
        let t = Instant::now();
        let index = snap.decode().map_err(|e| e.to_string())?;
        decodes.push(us(t) / 1e3);
        bytes = snap.len();
        Ok(index)
    };
    drop(decode()?);
    drop(decode()?);
    let index = decode()?;
    put("serve.snapshot.bytes", bytes as f64);
    put("serve.snapshot.read_ms", median(&reads));
    put("serve.snapshot.decode_ms", median(&decodes));

    let of_kind = |kind: Kind| -> Vec<&[u8]> {
        sent.iter()
            .filter(|&&k| plan.kinds[k] == kind)
            .take(REPLAY_MAX)
            .map(|&k| plan.reqs[k].body.as_slice())
            .collect()
    };

    // Identify: parse → extract → score.
    let bodies = of_kind(Kind::Identify);
    let (mut parse_us, mut extract_us, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for body in &bodies {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let patch = Patch::parse(text).map_err(|e| e.to_string())?;
        parse_us.push(us(t));
        let t = Instant::now();
        rows.push(index.weighted_features(&patch));
        extract_us.push(us(t));
    }
    put("patch-core.parse_us", crate::stats::mean(&parse_us));
    put(
        "patchdb-features.extract_us",
        crate::stats::mean(&extract_us),
    );
    let batch = (len_mean.round() as usize).max(1);
    put(
        "patchdb-ml.score_us_per_row.b1",
        score_us_per_row(&rows, 1, |r| index.score_rows(r)),
    );
    put(
        "patchdb-ml.score_us_per_row.bmean",
        score_us_per_row(&rows, batch, |r| index.score_rows(r)),
    );

    // Classify.
    let classify: Vec<Patch> = of_kind(Kind::Classify).into_iter().map(parse).collect();
    let mut classify_us = Vec::new();
    for patch in &classify {
        let t = Instant::now();
        std::hint::black_box(index.classify_json(patch));
        classify_us.push(us(t));
    }
    put("patchdb.classify_us", crate::stats::mean(&classify_us));

    // Scan: every distinct target sent, once.
    let scan_keys: Vec<usize> = sent
        .iter()
        .copied()
        .filter(|&k| plan.kinds[k] == Kind::Scan)
        .collect();
    let targets: Vec<&str> = scan_keys
        .iter()
        .map(|&k| std::str::from_utf8(&plan.reqs[k].body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut scan_ms = Vec::new();
    let mut verdicts = [0usize; 3];
    let mut agree = 0;
    for (target, &key) in targets.iter().zip(&scan_keys) {
        let t = Instant::now();
        let outcome = index.scan(target);
        scan_ms.push(us(t) / 1e3);
        let got = verdict(outcome.matches.len(), outcome.patched);
        verdicts[got] += 1;
        agree += usize::from(plan.expect[key] == Some(got));
    }
    let scan_sorted = sorted(&scan_ms);
    put("patchdb.scan_ms_p50", quantile(&scan_sorted, 0.5));
    put("patchdb.scan_ms_p90", quantile(&scan_sorted, 0.9));
    put("patchdb.scan.vulnerable", verdicts[0] as f64);
    put("patchdb.scan.patched", verdicts[1] as f64);
    put("patchdb.scan.not_applicable", verdicts[2] as f64);
    put("patchdb.scan.expected_verdict", agree as f64);

    // Shards: 2-way scatter-gather against the single index, one index
    // in memory at a time.
    let scan_time = |ix: &ShardedIndex| {
        let t = Instant::now();
        for target in targets.iter().take(SHARD_SCAN_TARGETS) {
            std::hint::black_box(ix.scan(target));
        }
        us(t)
    };
    let single = ShardedIndex::single(index);
    let single_times = (
        score_us_per_row(&rows, batch, |r| single.score_rows(r)),
        scan_time(&single),
    );
    drop(single);
    let snap = Snapshot::read_from(snapshot)
        .and_then(|s| s.decode())
        .map_err(|e| e.to_string())?;
    let split = ShardedIndex::from_index(snap, 2);
    let split_times = (
        score_us_per_row(&rows, batch, |r| split.score_rows(r)),
        scan_time(&split),
    );
    let ratio = |split: f64, single: f64| if single > 0.0 { split / single } else { 0.0 };
    put(
        "serve.shard.score_ratio_2v1",
        ratio(split_times.0, single_times.0),
    );
    let scan_ratio = if targets.is_empty() {
        0.0
    } else {
        ratio(split_times.1, single_times.1)
    };
    put("serve.shard.scan_ratio_2v1", scan_ratio);
    Ok(())
}

/// Target-level verdict indices.
pub const VULNERABLE: usize = 0;
pub const PATCHED: usize = 1;
pub const NOT_APPLICABLE: usize = 2;

/// Target-level verdict: vulnerable (any vulnerable-shape hit), patched
/// (a fix shape and no vulnerable hit), else not applicable.
pub fn verdict(vulnerable: usize, patched: usize) -> usize {
    match (vulnerable, patched) {
        (v, _) if v > 0 => VULNERABLE,
        (_, p) if p > 0 => PATCHED,
        _ => NOT_APPLICABLE,
    }
}

/// Mean µs per row of scoring `rows` in batches of `batch`, over
/// enough passes to run ~50 ms.
fn score_us_per_row(
    rows: &[Vec<f64>],
    batch: usize,
    score: impl Fn(&[Vec<f64>]) -> Vec<f64>,
) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut scored = 0usize;
    while scored == 0 || start.elapsed().as_millis() < 50 {
        for chunk in rows.chunks(batch) {
            std::hint::black_box(score(chunk));
        }
        scored += rows.len();
    }
    us(start) / scored as f64
}
