//! Keep-alive HTTP/1.1 load generation: a closed loop with a fixed
//! number of pipelined requests in flight per connection (one client
//! thread per connection), and an open loop that sends on a fixed
//! schedule (one writer and one reader thread for all connections).
//! Responses are framed by `Content-Length`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use patchdb_rt::net::{poll, PollFd, POLLIN};

/// How long any single read or write may stall before the request
/// counts as timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// One request.
#[derive(Debug, Clone)]
pub struct Req {
    pub method: &'static str,
    pub path: String,
    pub body: Vec<u8>,
}

impl Req {
    pub fn get(path: impl Into<String>) -> Req {
        Req {
            method: "GET",
            path: path.into(),
            body: Vec::new(),
        }
    }

    pub fn post(path: impl Into<String>, body: impl Into<Vec<u8>>) -> Req {
        Req {
            method: "POST",
            path: path.into(),
            body: body.into(),
        }
    }

    pub fn wire(&self) -> Vec<u8> {
        let mut w = format!(
            "{} {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            self.method,
            self.path,
            self.body.len()
        )
        .into_bytes();
        w.extend_from_slice(&self.body);
        w
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One finished exchange.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the caller's table.
    pub key: usize,
    /// Send time (open loop: due time) to the end of the reply.
    pub latency: Duration,
    /// Open loop only: how late the generator actually sent it.
    pub late: Duration,
    /// When the reply finished, relative to the loop's start.
    pub done_at: Duration,
    /// `None` when the connection failed or timed out.
    pub reply: Option<Reply>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(wire)
    }

    /// One request, one reply.
    pub fn call(&mut self, req: &Req) -> std::io::Result<Reply> {
        self.send(&req.wire())?;
        self.read_reply()
    }

    /// Blocks for the next reply.
    pub fn read_reply(&mut self) -> std::io::Result<Reply> {
        loop {
            if let Some(reply) = self.take_framed()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 32 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn take_framed(&mut self) -> std::io::Result<Option<Reply>> {
        let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |why: &str| std::io::Error::new(ErrorKind::InvalidData, why.to_owned());
        let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        let total = end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply { status, body }))
    }
}

/// Closed loop on one connection: keeps `depth` requests in flight,
/// sends `order` until `stop` or until it runs out, then drains. Each
/// `(offset, key)` of `timed` takes the next free slot once
/// `start + offset` has passed. A failed connection turns every
/// outstanding request into a failed sample.
pub fn closed_loop(
    addr: SocketAddr,
    table: &[Req],
    order: &[usize],
    timed: &[(Duration, usize)],
    depth: usize,
    start: Instant,
    stop: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(order.len());
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            return order
                .iter()
                .map(|&k| failed(k, Duration::ZERO, start))
                .collect()
        }
    };
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(depth);
    let (mut next, mut next_timed) = (0, 0);
    loop {
        while inflight.len() < depth && next < order.len() && Instant::now() < stop {
            let sent = Instant::now();
            let key = match timed.get(next_timed) {
                Some(&(offset, key)) if start + offset <= sent => {
                    next_timed += 1;
                    key
                }
                _ => {
                    next += 1;
                    order[next - 1]
                }
            };
            inflight.push_back((key, sent));
            if conn.send(&table[key].wire()).is_err() {
                return fail_all(samples, inflight, start);
            }
        }
        let Some(&(i, sent)) = inflight.front() else {
            break;
        };
        match conn.read_reply() {
            Ok(reply) => {
                inflight.pop_front();
                let now = Instant::now();
                samples.push(Sample {
                    key: i,
                    latency: now - sent,
                    late: Duration::ZERO,
                    done_at: now - start,
                    reply: Some(reply),
                });
            }
            Err(_) => return fail_all(samples, inflight, start),
        }
    }
    samples
}

/// Open loop over all connections with two client threads: a writer
/// that sleeps until each request is due and sends it on its
/// connection whatever is still outstanding, and a reader that polls
/// every connection and timestamps each reply as it lands. Latency runs
/// from the due time, so a stall charges every request it delays.
///
/// A request whose `holds` entry is set (a reload) holds its connection
/// as a pooled client would see it: until it is answered, requests due
/// on that connection go out on another one that holds nothing, rather
/// than queue behind it in the HTTP/1.1 pipeline.
pub fn open_loop(
    addr: SocketAddr,
    table: &[Req],
    orders: &[Vec<usize>],
    dues: &[Vec<Duration>],
    holds: &[bool],
    start: Instant,
) -> Vec<Vec<Sample>> {
    let all_failed = || {
        let fail = |o: &Vec<usize>| {
            o.iter()
                .map(|&k| failed(k, Duration::ZERO, start))
                .collect()
        };
        orders.iter().map(fail).collect()
    };
    let Ok(conns) = orders
        .iter()
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<Conn>>>()
    else {
        return all_failed();
    };
    let Ok(writers) = conns
        .iter()
        .map(|c| c.stream.try_clone())
        .collect::<std::io::Result<Vec<TcpStream>>>()
    else {
        return all_failed();
    };
    // Per connection: (key, due, late) of every request sent and not yet
    // answered. The writer pushes before it writes, so a reply always
    // finds its entry.
    let inflight: Vec<Mutex<VecDeque<(usize, Instant, Duration)>>> =
        orders.iter().map(|_| Mutex::new(VecDeque::new())).collect();
    let writer_done = AtomicBool::new(false);
    let mut schedule: Vec<(Duration, usize, usize)> = dues
        .iter()
        .enumerate()
        .flat_map(|(c, due)| due.iter().enumerate().map(move |(i, &d)| (d, c, i)))
        .collect();
    schedule.sort_unstable();
    std::thread::scope(|s| {
        let (inflight, writer_done, schedule) = (&inflight, &writer_done, &schedule);
        let writer = s.spawn(move || {
            let mut writers = writers;
            let mut unsent = vec![Vec::new(); orders.len()];
            let mut dead = vec![false; orders.len()];
            let held = |c: usize| {
                inflight[c]
                    .lock()
                    .expect("inflight lock")
                    .iter()
                    .any(|&(key, _, _)| holds[key])
            };
            for &(due, c, i) in schedule {
                let key = orders[c][i];
                let c = if holds[key] || !held(c) {
                    c
                } else {
                    (0..orders.len())
                        .find(|&o| !dead[o] && !held(o))
                        .unwrap_or(c)
                };
                if dead[c] {
                    unsent[c].push(key);
                    continue;
                }
                let due_at = start + due;
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let late = Instant::now().saturating_duration_since(due_at);
                inflight[c]
                    .lock()
                    .expect("inflight lock")
                    .push_back((key, due_at, late));
                if writers[c].write_all(&table[key].wire()).is_err() {
                    dead[c] = true;
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            unsent
        });
        let mut conns = conns;
        let mut samples: Vec<Vec<Sample>> =
            orders.iter().map(|o| Vec::with_capacity(o.len())).collect();
        let mut alive: Vec<bool> = vec![true; conns.len()];
        let mut last_progress = Instant::now();
        loop {
            let pending = |c: usize| !inflight[c].lock().expect("inflight lock").is_empty();
            if writer_done.load(Ordering::SeqCst)
                && (0..conns.len()).all(|c| !alive[c] || !pending(c))
            {
                break;
            }
            if last_progress.elapsed() > READ_TIMEOUT {
                break;
            }
            let mut fds: Vec<PollFd> = conns
                .iter()
                .map(|c| PollFd::new(&c.stream, POLLIN))
                .collect();
            if poll(&mut fds, 10).is_err() {
                break;
            }
            for (c, fd) in fds.iter().enumerate() {
                if !alive[c] || !fd.readable() {
                    continue;
                }
                if conns[c].fill().is_err() {
                    alive[c] = false;
                    continue;
                }
                loop {
                    match conns[c].take_framed() {
                        Ok(Some(reply)) => {
                            let now = Instant::now();
                            last_progress = now;
                            let Some((key, due_at, late)) =
                                inflight[c].lock().expect("inflight lock").pop_front()
                            else {
                                alive[c] = false;
                                break;
                            };
                            samples[c].push(Sample {
                                key,
                                latency: now - due_at,
                                late,
                                done_at: now - start,
                                reply: Some(reply),
                            });
                        }
                        Ok(None) => break,
                        Err(_) => {
                            alive[c] = false;
                            break;
                        }
                    }
                }
            }
        }
        // Whatever is still outstanding or was never sent failed.
        let unsent = writer.join().expect("writer thread");
        for (c, keys) in unsent.into_iter().enumerate() {
            let mut left = inflight[c].lock().expect("inflight lock");
            samples[c].extend(
                left.drain(..)
                    .map(|(key, _, late)| failed(key, late, start)),
            );
            samples[c].extend(
                keys.into_iter()
                    .map(|key| failed(key, Duration::ZERO, start)),
            );
        }
        samples
    })
}

fn failed(key: usize, late: Duration, start: Instant) -> Sample {
    Sample {
        key,
        latency: Duration::MAX,
        late,
        done_at: start.elapsed(),
        reply: None,
    }
}

fn fail_all(
    mut samples: Vec<Sample>,
    inflight: VecDeque<(usize, Instant)>,
    start: Instant,
) -> Vec<Sample> {
    samples.extend(
        inflight
            .into_iter()
            .map(|(i, _)| failed(i, Duration::ZERO, start)),
    );
    samples
}
