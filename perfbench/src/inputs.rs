//! Workload inputs, all derived from the workload seed: unique wild
//! diffs for identify, the api-mixed request table and schedule, and
//! function-sized scan targets cut from the served dataset.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use patch_core::Patch;
use patchdb::{BuildOptions, PatchRecord};
use patchdb_corpus::{CorpusConfig, GitHubForge};
use patchdb_rt::par;
use patchdb_rt::rng::{SliceRandom, Xoshiro256pp};
use patchdb_serve::ServeIndex;

use crate::client::Req;
use crate::layers::{NOT_APPLICABLE, PATCHED, VULNERABLE};

/// Keeps the body forge apart from the forge the served index was
/// built from, so identify sees commits the model never trained on.
const BODY_FORGE_SALT: u64 = 0x1de7_1f7c_01d5;

/// Unique unified diffs of wild commits (those the NVD does not index),
/// materialized from a forge generated with the workload seed, and how
/// many of them are silent security fixes.
pub fn wild_bodies(seed: u64, want: usize, threads: usize) -> (Vec<String>, usize) {
    // ~2 % of commits are NVD-reported and a few collide; 10 % slack.
    let total = want + want / 10 + 64;
    let forge = GitHubForge::generate(&CorpusConfig::with_total_commits(
        total,
        seed ^ BODY_FORGE_SALT,
    ));
    let wild: Vec<_> = forge
        .all_commits()
        .filter(|(_, c)| !c.truth.reported_to_nvd)
        .collect();
    let texts = par::map_chunked(&wild, threads, |(_, c)| {
        forge.materialize(c).patch.to_unified_string()
    });
    // Deduplicate on a 64-bit digest: a collision can only drop a body.
    let mut seen = HashSet::with_capacity(texts.len());
    let mut bodies = Vec::with_capacity(want);
    let mut security = 0;
    for ((_, c), text) in wild.iter().zip(texts) {
        if bodies.len() == want {
            break;
        }
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        if seen.insert(h.finish()) {
            security += usize::from(c.truth.is_security);
            bodies.push(text);
        }
    }
    (bodies, security)
}

pub fn identify(body: &str) -> Req {
    Req::post("/v1/identify", body)
}

/// What a distinct request exercises, for checking and per-layer replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Identify,
    Classify,
    Stats,
    Patch,
    Healthz,
    Reload,
    Scan,
}

/// The distinct requests of a workload and, per connection, the order
/// (and for an open loop the due times) in which they are sent.
pub struct Plan {
    pub kinds: Vec<Kind>,
    pub reqs: Vec<Req>,
    /// Per request, the target-level verdict its scan should give (see
    /// `layers::verdict`); `None` for every other request.
    pub expect: Vec<Option<usize>>,
    pub per_conn: Vec<Vec<usize>>,
    /// Per connection, when each request is due; empty for a closed loop.
    pub due: Vec<Vec<Duration>>,
    /// Closed loop only: per connection, requests sent at fixed offsets
    /// into the window, in between the closed-loop ones.
    pub timed: Vec<Vec<(Duration, usize)>>,
    /// Closed loop only: requests in flight per connection.
    pub depth: usize,
}

impl Plan {
    fn new(conns: usize, open: bool) -> Plan {
        let due = if open {
            vec![Vec::new(); conns]
        } else {
            Vec::new()
        };
        let timed = vec![Vec::new(); conns];
        Plan {
            kinds: Vec::new(),
            reqs: Vec::new(),
            expect: Vec::new(),
            per_conn: vec![Vec::new(); conns],
            due,
            timed,
            depth: 1,
        }
    }

    /// `n` evenly spaced `POST /admin/reload`s over `seconds` of a closed
    /// loop, alternating connections.
    pub fn with_reloads(mut self, n: usize, seconds: f64) -> Plan {
        let reload = self.push(Kind::Reload, Req::post("/admin/reload", ""));
        let conns = self.per_conn.len();
        for k in 0..n {
            let at = Duration::from_secs_f64(seconds * (2 * k + 1) as f64 / (2 * n) as f64);
            self.timed[k % conns].push((at, reload));
        }
        self
    }

    fn push(&mut self, kind: Kind, req: Req) -> usize {
        self.kinds.push(kind);
        self.reqs.push(req);
        self.expect.push(None);
        self.reqs.len() - 1
    }

    fn push_scan(&mut self, target: String, verdict: usize) -> usize {
        let key = self.push(Kind::Scan, Req::post("/v1/scan", target));
        self.expect[key] = Some(verdict);
        key
    }
}

/// Pipelined identify requests in flight per connection: enough that
/// compute, not the 2 ms batch window, sets throughput.
const IDENTIFY_DEPTH: usize = 32;

/// identify-cold: every body once, dealt round-robin to the connections.
pub fn identify_cold(bodies: Vec<String>, conns: usize) -> Plan {
    let mut plan = Plan::new(conns, false);
    plan.depth = IDENTIFY_DEPTH;
    for (i, body) in bodies.into_iter().enumerate() {
        let key = plan.push(Kind::Identify, Req::post("/v1/identify", body));
        plan.per_conn[i % conns].push(key);
    }
    plan
}

/// api-mixed arrival rate (requests per second over all connections),
/// fixed so a faster server shows as lower latency. On a 2-core host
/// an identify-heavier mix sustained ~27 000 req/s in a closed loop,
/// but above ~8000 req/s a reload stall overflows the admission queue
/// (503s), and on a host slowed by its neighbours latency climbs
/// steeply above ~5000. At 2500 req/s p50 was ~0.2 ms and spread ~0.3
/// over seeds in slow spells of the host; at 4000 it is ~0.5 ms and
/// spread under 0.2 in the same spells.
pub const MIXED_RATE: f64 = 4000.0;
/// Evenly spaced `POST /admin/reload`s per second of a scan run (45 in
/// a 15 s run).
pub const RELOADS_PER_S: f64 = 3.0;
/// Evenly spaced `POST /admin/reload`s per second of an api-mixed run
/// (60 in a 15 s run). Each takes a worker and starts a fresh cache, so
/// this density sets where p50 falls: at 7-10 per second p50 spread
/// 0.36-0.48 over seeds in an earlier version of the mix, and at 1 or 2
/// per second it fell to ~0.25 ms and spread 0.15-0.23.
pub const MIXED_RELOADS_PER_S: f64 = 4.0;

/// Reloads in `seconds` at `per_s` a second.
pub fn reload_count(per_s: f64, seconds: f64) -> usize {
    (per_s * seconds).round() as usize
}
// The api-mixed mix. No request trace of a patch-identification
// service is public, so none was copied: the shares are assumptions,
// not measured traffic. Each of the six request kinds the workload
// covers (identify over the hot set, identify of an unseen body,
// classify, stats, patch lookup, healthz) gets the same share, so no
// kind is weighted by a guess. About a quarter of the reads (the unseen
// bodies and the hot-set misses after each reload) then wait in the
// 2 ms batch window, so p50 lies among the cheap reads and p90 among the
// batched ones, neither near the edge between them.
/// Request kinds drawn uniformly per request.
pub const KINDS: usize = 6;
/// Identify hot set: far below the 4096-entry identify cache, so it
/// fits, as the mix requires.
pub const HOT_SET: usize = 192;
/// Zipf exponent over the hot set: Zipf's law proper (assumed).
const ZIPF_S: f64 = 1.0;
/// `/v1/patch/<prefix>` lookups: known ids, and unknown ones that
/// answer the expected 404 (one in five lookups, assumed).
const KNOWN_PATCH_IDS: usize = 160;
const UNKNOWN_PATCH_IDS: usize = 40;

/// The api-mixed request table and schedule for `seconds` of traffic.
/// `fresh` supplies never-repeated identify bodies (the unseen share),
/// `hot` the Zipf-skewed identify/classify working set.
pub fn api_mixed(
    seed: u64,
    seconds: f64,
    conns: usize,
    hot: &[String],
    fresh: &[String],
    index: &ServeIndex,
) -> Plan {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xa913d);
    let mut plan = Plan::new(conns, true);
    let hot_keys: Vec<usize> = hot
        .iter()
        .take(HOT_SET)
        .map(|b| plan.push(Kind::Identify, identify(b)))
        .collect();
    let classify_keys: Vec<usize> = hot
        .iter()
        .take(HOT_SET)
        .map(|b| plan.push(Kind::Classify, Req::post("/v1/classify", b.as_str())))
        .collect();
    let stats = plan.push(Kind::Stats, Req::get("/v1/stats"));
    let healthz = plan.push(Kind::Healthz, Req::get("/healthz"));
    let reload = plan.push(Kind::Reload, Req::post("/admin/reload", ""));
    let mut records: Vec<&PatchRecord> = index.db().records().collect();
    records.shuffle(&mut rng);
    let mut patch_keys: Vec<usize> = records
        .iter()
        .take(KNOWN_PATCH_IDS)
        .map(|r| {
            plan.push(
                Kind::Patch,
                Req::get(format!("/v1/patch/{}", &r.commit.to_string()[..12])),
            )
        })
        .collect();
    // Unknown ids: the expected 404s.
    for _ in 0..UNKNOWN_PATCH_IDS {
        let id = format!("{:012x}", rng.next_u64() >> 16);
        patch_keys.push(plan.push(Kind::Patch, Req::get(format!("/v1/patch/{id}"))));
    }
    let zipf: Vec<f64> = {
        let w: Vec<f64> = (1..=hot_keys.len())
            .map(|r| (r as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = w.iter().sum();
        w.iter()
            .scan(0.0, |acc, x| {
                *acc += x / total;
                Some(*acc)
            })
            .collect()
    };
    let n = (MIXED_RATE * seconds) as usize;
    let reloads = reload_count(MIXED_RELOADS_PER_S, seconds);
    let mut fresh_iter = fresh.iter();
    let mut seq: Vec<usize> = Vec::with_capacity(n + reloads);
    for _ in 0..n {
        let key = match rng.gen_range(0..KINDS) {
            0 => {
                let r = rng.next_f64();
                hot_keys[zipf.partition_point(|&c| c < r).min(hot_keys.len() - 1)]
            }
            1 => match fresh_iter.next() {
                Some(b) => plan.push(Kind::Identify, identify(b)),
                None => stats,
            },
            2 => classify_keys[rng.gen_range(0..classify_keys.len())],
            3 => stats,
            4 => patch_keys[rng.gen_range(0..patch_keys.len())],
            _ => healthz,
        };
        seq.push(key);
    }
    let period = Duration::from_secs_f64(1.0 / MIXED_RATE);
    let reload_at: Vec<usize> = (0..reloads)
        .map(|k| (2 * k + 1) * n / (2 * reloads))
        .collect();
    for (i, &key) in seq.iter().enumerate() {
        let c = i % conns;
        plan.per_conn[c].push(key);
        plan.due[c].push(period * i as u32);
        if let Some(k) = reload_at.iter().position(|&at| at == i) {
            // Alternate connections so each carries its share of swaps.
            let c = k % conns;
            plan.per_conn[c].push(reload);
            plan.due[c].push(period * i as u32);
        }
    }
    plan
}

/// Scan targets are exactly this many lines: function-sized, and fixed
/// so target length (which scan cost is superlinear in) does not vary
/// with the seed.
pub const SCAN_LINES: usize = 20;
/// scan: before-images (vulnerable) and after-images (patched) of every
/// security hunk of the served dataset that fits a window, plus as many
/// non-security ones (not applicable), each a `SCAN_LINES`-line window
/// of the touched file around the hunk (the dataset is
/// `BuildOptions::tiny(served_seed)`, whose forge holds the files). Each
/// target carries the verdict its kind should give. The seed orders
/// them: the plan sends the whole set in one shuffled pass after
/// another, so every run scans nearly the same multiset of targets.
pub fn scan(seed: u64, served_seed: u64, index: &ServeIndex, conns: usize, count: usize) -> Plan {
    let forge = GitHubForge::generate(&BuildOptions::tiny(served_seed).corpus);
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5ca7);
    let mut plan = Plan::new(conns, false);
    let db = index.db();
    let mut keys = Vec::new();
    for r in db.security_patches() {
        if let (Some(before), Some(after)) = (window(&forge, r, false), window(&forge, r, true)) {
            keys.push(plan.push_scan(before, VULNERABLE));
            keys.push(plan.push_scan(after, PATCHED));
        }
    }
    let security = keys.len() / 2;
    for t in db
        .non_security
        .iter()
        .filter_map(|r| window(&forge, r, false))
        .take(security)
    {
        keys.push(plan.push_scan(t, NOT_APPLICABLE));
    }
    assert!(!keys.is_empty(), "the served dataset yields scan targets");
    let mut sent = 0;
    while sent < count {
        keys.shuffle(&mut rng);
        for &key in &keys {
            plan.per_conn[sent % conns].push(key);
            sent += 1;
        }
    }
    plan
}

/// A `SCAN_LINES`-line window of the record's first C file, before or
/// after the commit, that contains the image of its first hunk.
fn window(forge: &GitHubForge, record: &PatchRecord, after: bool) -> Option<String> {
    let (_, commit) = forge.find_commit(&record.repo, &record.commit)?;
    let change = forge.materialize(commit);
    let file = record
        .patch
        .files
        .iter()
        .find(|f| f.is_c_family() && !f.hunks.is_empty())?;
    let hunk = &file.hunks[0];
    let (files, path, start, len) = if after {
        (
            &change.after_files,
            &file.new_path,
            hunk.new_start,
            hunk.new_count,
        )
    } else {
        (
            &change.before_files,
            &file.old_path,
            hunk.old_start,
            hunk.old_count,
        )
    };
    let text = files.get(path.as_str())?;
    let lines: Vec<&str> = text.lines().collect();
    if len > SCAN_LINES || lines.len() < SCAN_LINES {
        return None;
    }
    // Centre the hunk image in the window, clamped to the file.
    let first = start
        .saturating_sub(1)
        .saturating_sub((SCAN_LINES - len) / 2);
    let first = first.min(lines.len() - SCAN_LINES);
    Some(lines[first..first + SCAN_LINES].join("\n") + "\n")
}

/// The patch a diff body parses to (inputs are generated, so they parse).
pub fn parse(body: &[u8]) -> Patch {
    Patch::parse(std::str::from_utf8(body).expect("generated bodies are UTF-8"))
        .expect("generated bodies are unified diffs")
}
