//! The server side of a serve workload: boots from a snapshot file,
//! replies from a freshly booted reference server, `/metrics` scrapes,
//! the reload probe, and the priming of event counters.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use patchdb_serve::{ServeConfig, Server, Snapshot};

use crate::client::{closed_loop, Conn, Reply, Req};
use crate::expo::Scrape;

/// Pipelined requests per reference connection.
const REFERENCE_DEPTH: usize = 32;

/// What users run, plus an ephemeral port, `threads = nproc`, and the
/// snapshot as the reload source (`patchdb serve --snapshot`).
pub fn config(snapshot: &str, threads: usize) -> ServeConfig {
    ServeConfig::default()
        .addr("127.0.0.1:0")
        .threads(threads)
        .snapshot(snapshot)
}

/// Timings of one boot.
pub struct Boot {
    pub server: Server,
    /// Snapshot read + decode + `Server::start` + first 200 on `/healthz`.
    pub setup: Duration,
}

pub fn boot(snapshot: &str, threads: usize) -> Result<Boot, String> {
    let t0 = Instant::now();
    let snap = Snapshot::read_from(snapshot).map_err(|e| format!("read {snapshot}: {e}"))?;
    let index = snap
        .decode()
        .map_err(|e| format!("decode {snapshot}: {e}"))?;
    let server =
        Server::start(index, &config(snapshot, threads)).map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();
    loop {
        if let Ok(r) = get(addr, "/healthz") {
            if r.status == 200 {
                break;
            }
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("server never answered /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Boot {
        server,
        setup: t0.elapsed(),
    })
}

pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    call(addr, &Req::get(path))
}

pub fn call(addr: SocketAddr, req: &Req) -> Result<Reply, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.call(req)
        .map_err(|e| format!("{} {}: {e}", req.method, req.path))
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = get(addr, "/metrics")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Scrape::parse(&String::from_utf8_lossy(&r.body))
}

/// The server creates a counter or histogram only when it first
/// records into it. Fire each series the benchmark reads once, on
/// throwaway servers (the metrics registry is per process), so all of
/// them exist in the first scrape and a missing one means the
/// exposition changed.
pub fn prime(snapshot: &str, threads: usize, body: &str) -> Result<(), String> {
    let start = |cfg: ServeConfig| {
        let index = Snapshot::read_from(snapshot)
            .and_then(|s| s.decode())
            .map_err(|e| e.to_string())?;
        Server::start(index, &cfg).map_err(|e| e.to_string())
    };
    let req = crate::inputs::identify(body);
    let io = |e: std::io::Error| e.to_string();

    let server = start(config(snapshot, threads).max_conns(1))?;
    let addr = server.addr();
    let hits_and_refusal = (|| {
        // `serve.identify.cache_hits`: the same body twice.
        let mut conn = Conn::connect(addr).map_err(io)?;
        conn.call(&req).map_err(io)?;
        conn.call(&req).map_err(io)?;
        // `serve.identify.cache_flushes`: overflow the cache's 64 MiB
        // byte bound with 17 distinct ~4 MB bodies (the message is
        // padding; features read only the diff).
        let (head, diff) = body
            .split_once('\n')
            .ok_or("primer body has no commit line")?;
        for i in 0..17 {
            let pad = format!("pad {i:02} {}\n", "x".repeat(95)).repeat(40_000);
            let big = format!("{head}\n{pad}\n{diff}");
            let r = conn.call(&crate::inputs::identify(&big)).map_err(io)?;
            if r.status != 200 {
                return Err(format!("padded identify answered {}", r.status));
            }
        }
        // `serve.scan.ns`: one small scan.
        conn.call(&Req::post("/v1/scan", "int main(void) { return 0; }\n"))
            .map_err(io)?;
        // `serve.rejected_503`: a second connection over `max_conns(1)`.
        let refused = Conn::connect(addr)
            .and_then(|mut c| c.read_reply())
            .map_err(io)?;
        match refused.status {
            503 => Ok(()),
            other => Err(format!("over-cap connection answered {other}")),
        }
    })();
    server.shutdown();
    hits_and_refusal?;

    // `serve.deadline_expired`: a request that trickles in past a 1 ms
    // budget.
    let server = start(config(snapshot, threads).deadline_ms(1))?;
    let wire = req.wire();
    let trickled = Conn::connect(server.addr()).and_then(|mut conn| {
        conn.send(&wire[..8])?;
        std::thread::sleep(Duration::from_millis(30));
        let _ = conn.send(&wire[8..]);
        conn.read_reply()
    });
    server.shutdown();
    trickled.map(drop).map_err(io)
}

/// Replies of a freshly booted server to `table[k]` for each of `keys`,
/// in order, so the timed server's cache stays cold.
pub fn reference(
    snapshot: &str,
    threads: usize,
    table: &[Req],
    keys: &[usize],
) -> Result<Vec<Reply>, String> {
    let booted = boot(snapshot, threads)?;
    let addr = booted.server.addr();
    let far = Instant::now() + Duration::from_secs(3600);
    let per_conn: Vec<Vec<usize>> = (0..threads)
        .map(|c| keys.iter().skip(c).step_by(threads).copied().collect())
        .collect();
    let start = Instant::now();
    let results: Vec<Vec<crate::client::Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|order| {
                s.spawn(move || closed_loop(addr, table, order, &[], REFERENCE_DEPTH, start, far))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference client thread"))
            .collect()
    });
    booted.server.shutdown();
    let mut replies: std::collections::HashMap<usize, Reply> = results
        .into_iter()
        .flatten()
        .filter_map(|s| Some((s.key, s.reply?)))
        .collect();
    keys.iter()
        .map(|k| {
            replies
                .remove(k)
                .ok_or_else(|| format!("reference server gave no reply to {}", table[*k].path))
        })
        .collect()
}

/// Round trips of `count` `POST /admin/reload`s 20 ms apart, in ms.
pub fn reload_probe(addr: SocketAddr, count: usize) -> Result<Vec<f64>, String> {
    let req = Req::post("/admin/reload", "");
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    while samples.len() < count {
        std::thread::sleep(Duration::from_millis(20));
        let t = Instant::now();
        let r = conn.call(&req).map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/admin/reload answered {}", r.status));
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(samples)
}
