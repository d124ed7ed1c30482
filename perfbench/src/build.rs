//! The offline path from forge to a bootable snapshot, run in a child
//! process of its own so its peak RSS is the build's alone.
//!
//! The parent re-executes this binary as
//! `perfbench build-child <tiny|default> <seed> <threads> <out> <trace>`;
//! the child prints one JSON line.

use std::time::Instant;

use patchdb::{BuildOptions, PatchDb};
use patchdb_corpus::GitHubForge;
use patchdb_features::extract;
use patchdb_mine::{collect_wild, mine_nvd, sample_wild};
use patchdb_rt::json::Json;
use patchdb_rt::obs;
use patchdb_rt::par;
use patchdb_serve::{ServeIndex, Snapshot};

/// The pipeline stages `PatchDb::build` records as child spans of
/// `build` when tracing is on, with the per-layer metric each feeds.
const STAGES: [(&str, &str); 5] = [
    ("mine_nvd", "patchdb-mine.mine_nvd_ms"),
    ("collect_wild", "patchdb-mine.collect_wild_ms"),
    ("augment", "patchdb-nls.augment_ms"),
    ("assemble", "patchdb.assemble_ms"),
    ("synthesize", "patchdb-synth.synthesize_ms"),
];

/// Timed forge generations per child; `setup_s` of the build workload
/// is their median.
const GENERATE_REPS: usize = 31;

/// The build options of a scale, and how many times one child builds
/// it (`build_s` is the median): a tiny build takes ~0.15 s, so one
/// child makes three.
pub fn options(scale: &str, seed: u64, threads: usize) -> Result<(BuildOptions, usize), String> {
    let (options, reps) = match scale {
        "tiny" => (BuildOptions::tiny(seed), 3),
        "default" => (BuildOptions::default_scale(seed), 1),
        other => return Err(format!("unknown build scale {other:?}")),
    };
    Ok((options.threads(threads), reps))
}

/// FNV-1a 64 of a dataset's canonical JSON.
fn dataset_hash(db: &PatchDb) -> Result<String, String> {
    let text = db.to_json().map_err(|e| e.to_string())?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Ok(format!("{h:016x}"))
}

/// VmHWM of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Untraced builds (`GitHubForge::generate` timed alone as set-up,
/// then `PatchDb::build` + `ServeIndex::build` + `Snapshot::encode`),
/// the last snapshot written to `out`; with `trace`, then one traced
/// build whose dataset must hash the same, timed per stage.
pub fn child(
    scale: &str,
    seed: u64,
    threads: usize,
    out: &str,
    trace: bool,
) -> Result<Json, String> {
    let (options, reps) = options(scale, seed, threads)?;
    obs::set_enabled(false);

    // The forge alone is milliseconds: time it several times.
    let generate: Vec<f64> = (0..GENERATE_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(GitHubForge::generate(&options.corpus));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let generate_s = crate::stats::median(&generate);

    // The peak is read after the first build: later ones only add the
    // allocator's fragmentation.
    let mut builds = Vec::new();
    let mut peak = 0.0;
    let (index, snapshot) = loop {
        let t = Instant::now();
        let report = PatchDb::build(&options);
        let index = ServeIndex::build(report.db);
        let snapshot = Snapshot::encode(&index);
        builds.push(t.elapsed().as_secs_f64());
        if builds.len() == 1 {
            peak = peak_rss_mb()?;
        }
        if builds.len() == reps {
            break (index, snapshot);
        }
    };
    let build_s = crate::stats::median(&builds);
    let hash = dataset_hash(index.db())?;
    snapshot
        .write_to(out)
        .map_err(|e| format!("write {out}: {e}"))?;
    let mut fields = vec![
        ("generate_s".to_owned(), Json::Num(generate_s)),
        ("build_s".to_owned(), Json::Num(build_s)),
        ("peak_rss_mb".to_owned(), Json::Num(peak)),
        ("dataset_hash".to_owned(), Json::Str(hash.clone())),
    ];
    drop((index, snapshot));
    if trace {
        fields.push(("layers".to_owned(), traced(&options, &hash)?));
    }
    Ok(Json::Obj(fields))
}

fn traced(options: &BuildOptions, untraced_hash: &str) -> Result<Json, String> {
    let mut layers: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, v: f64| layers.push((name.to_owned(), Json::Num(v)));

    obs::set_enabled(true);
    let t = Instant::now();
    let report = PatchDb::build(options);
    let wall_ms = ms(t);
    obs::set_enabled(false);
    let telemetry = report
        .telemetry
        .as_ref()
        .ok_or("traced build recorded no telemetry")?;
    let hash = dataset_hash(&report.db)?;
    if hash != untraced_hash {
        return Err(format!(
            "traced dataset hash {hash} != untraced {untraced_hash}"
        ));
    }
    let trace = &telemetry.trace;
    let mut stage_sum = 0.0;
    for (span, metric) in STAGES {
        let s = trace
            .find_span(span)
            .ok_or_else(|| format!("build trace has no {span} span"))?;
        let v = s.ns as f64 / 1e6;
        stage_sum += v;
        put(metric, v);
    }
    if stage_sum > wall_ms {
        return Err(format!(
            "stage times sum to {stage_sum:.1} ms, over the traced build's {wall_ms:.1} ms"
        ));
    }
    put("patchdb.build_traced_ms", wall_ms);
    let counter = |name: &str| {
        trace
            .counter(name)
            .ok_or_else(|| format!("build trace has no counter {name}"))
    };
    put(
        "patchdb-nls.distances_evaluated",
        counter("nls.dist_evaluated")? as f64,
    );
    let skipped = counter("nls.pruned_norm")?
        + counter("nls.masked_skipped")?
        + counter("nls.cells_skipped")?;
    put("patchdb-nls.distances_skipped", skipped as f64);
    put(
        "patchdb-synth.records",
        counter("build.synthetic_records")? as f64,
    );

    let t = Instant::now();
    let index = ServeIndex::build(report.db);
    put("patchdb-ml.index_build_ms", ms(t));
    let t = Instant::now();
    let snapshot = Snapshot::encode(&index);
    put("serve.snapshot.encode_ms", ms(t));
    drop((index, snapshot));

    // Bulk materialize + extract over the pool the pipeline samples.
    let t = Instant::now();
    let forge = GitHubForge::generate(&options.corpus);
    put("patchdb-corpus.generate_s", t.elapsed().as_secs_f64());
    let mined = mine_nvd(&forge);
    let wild = collect_wild(&forge, &mined.claimed_ids());
    let pool: usize = options.pools.iter().map(|p| p.size).sum();
    let sampled = sample_wild(&wild, pool.min(wild.len()), options.seed);
    let threads = options.threads.unwrap_or(1);
    let t = Instant::now();
    let patches = par::map_chunked(&sampled, threads, |w| forge.materialize(w.commit).patch);
    put("patchdb-corpus.materialize_ms", ms(t));
    let t = Instant::now();
    let features = par::map_chunked(&patches, threads, |p| extract(p, None));
    put("patchdb-features.extract_ms", ms(t));
    std::hint::black_box(features);
    Ok(Json::Obj(layers))
}
