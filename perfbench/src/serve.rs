//! `serve_hot` and `serve_cold`: the shipped daemon, started in this
//! process, answering schedule requests from two client connections.
//!
//! * `serve_hot` cycles over 16 graphs × 4 algorithms = 64 keys, far
//!   below the cache's 1024 entries, so after warm-up every request is a
//!   cache hit: time goes to frames, request parsing, graph decode and
//!   hashing (the daemon decodes and hashes even on a hit) and the cache
//!   lookup. Scheduling does almost nothing.
//! * `serve_cold` cycles over 512 graphs × the same 4 algorithms = 2048
//!   keys, twice the cache, so the LRU misses on every request: each one
//!   inserts and evicts, and scheduling and rendering dominate.
//!
//! Both alternate the TGF and binary wire forms. Each run measures an
//! open loop at a fixed rate below today's capacity (latency from each
//! request's due time), a closed loop (throughput), and a geometric SLO
//! ladder. Every response is byte-compared with the in-process rendering
//! of the same schedule.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dagsched_core::{registry, Env};
use dagsched_graph::{binio, io::from_tgf, io::to_tgf, TaskGraph};
use dagsched_serve::frame::{write_frame, FrameReader};
use dagsched_serve::proto::{
    encode_ok, encode_schedule_request, parse_request, render_schedule, GraphWire, Request,
};
use dagsched_serve::{server, CacheKey, Config, ShardedLru};
use dagsched_suites::{rgnos, RgnosParams};

use crate::client::{frame, Conn};
use crate::report::Report;
use crate::stats::{self, judge_rung, ladder, median, percentile, slo_rate, tail, Rung};
use crate::trace::Tracer;
use crate::{mix, Mode};

/// Tasks per request graph.
pub const V: usize = 200;
/// Algorithms requested, cycled per graph.
pub const ALGOS: [&str; 4] = ["MCP", "DSC", "ETF", "DCP"];
/// Platform of every request.
pub const PLATFORM: &str = "bnp:8";
/// Client connections (and client threads).
pub const CONNS: usize = 2;
/// The fixed open-loop rate, below today's ≈45 rps closed-loop capacity.
pub const OPEN_RATE: f64 = 20.0;
/// The latency limit the SLO ladder holds the tail to.
pub const LIMIT_MS: f64 = 10.0;
/// Requests per ladder rung: enough for ten beyond the 95th percentile.
pub const RUNG_REQUESTS: usize = 200;
/// How long a client waits for an overdue response before failing it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Which working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

impl Kind {
    fn graphs(self) -> usize {
        match self {
            Kind::Hot => 16,
            Kind::Cold => 512,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Cold => "serve_cold",
        }
    }
}

/// The generated graphs and both wire encodings of each.
pub struct Inputs {
    pub graphs: Vec<TaskGraph>,
    tgf: Vec<Vec<u8>>,
    bin: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let graphs: Vec<TaskGraph> = (0..kind.graphs())
            .map(|i| {
                let ccr = [0.1, 1.0, 10.0][i % 3];
                let width = 1 + (i / 3 % 3) as u32;
                rgnos::generate(RgnosParams::new(V, ccr, width, mix(seed, 1000 + i as u64)))
            })
            .collect();
        let tgf = graphs.iter().map(|g| to_tgf(g).into_bytes()).collect();
        let bin = graphs.iter().map(binio::to_bin).collect();
        Inputs { graphs, tgf, bin }
    }

    /// Distinct (graph, platform, algorithm) keys.
    pub fn keys(&self) -> usize {
        self.graphs.len() * ALGOS.len()
    }

    /// The key of the `seq`-th request.
    pub fn key(&self, seq: usize) -> usize {
        seq % self.keys()
    }

    /// The `seq`-th request of the cyclic stream: its key, wire form and
    /// payload. Consecutive requests alternate wire forms, and each key
    /// alternates between cycles.
    pub fn request(&self, seq: usize) -> (usize, GraphWire, Vec<u8>) {
        let key = self.key(seq);
        let wire = if (seq / self.keys() + seq) % 2 == 0 {
            GraphWire::Tgf
        } else {
            GraphWire::Bin
        };
        let g = key / ALGOS.len();
        let body = match wire {
            GraphWire::Tgf => &self.tgf[g],
            GraphWire::Bin => &self.bin[g],
        };
        let payload = encode_schedule_request(wire, PLATFORM, ALGOS[key % ALGOS.len()], body);
        (key, wire, payload)
    }
}

/// The response body the daemon must send for `key`, computed in process:
/// schedule, compact, render.
fn expected(inp: &Inputs, key: usize) -> Result<Vec<u8>, String> {
    let g = &inp.graphs[key / ALGOS.len()];
    let algo = registry::lookup(ALGOS[key % ALGOS.len()]).map_err(|e| e.to_string())?;
    let env = Env::parse_spec(PLATFORM)?;
    let out = algo.schedule(g, &env).map_err(|e| e.to_string())?;
    let compact = out.schedule.compact_procs();
    Ok(render_schedule(algo.name(), &compact, g.num_tasks()).into_bytes())
}

/// Every key's expected response block, computed on `threads` threads.
fn oracle(inp: &Inputs, threads: usize) -> Result<Vec<Vec<u8>>, String> {
    let n = inp.keys();
    let chunk = n.div_ceil(threads.max(1));
    let parts: Vec<Result<Vec<Vec<u8>>, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                s.spawn(move || {
                    (lo..(lo + chunk).min(n))
                        .map(|k| expected(inp, k))
                        .collect()
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    Ok(parts.into_iter().collect::<Result<Vec<_>, _>>()?.concat())
}

/// A running daemon, shut down (drained and joined) on drop.
struct Daemon(Option<server::Handle>);

impl Daemon {
    fn start() -> std::io::Result<Daemon> {
        server::start(Config::default()).map(|h| Daemon(Some(h)))
    }
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("daemon is running").addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    seq: usize,
    /// From due time (open loop) or send time (closed loop) to the last
    /// response byte.
    lat_ms: f64,
    /// How late the generator sent the request.
    late_ms: f64,
    ok: bool,
    hit: bool,
    depth: u64,
}

/// What the client threads share.
struct Ctx<'a> {
    inp: &'a Inputs,
    oracle: &'a [Vec<u8>],
    addr: SocketAddr,
    errors: Mutex<Vec<String>>,
}

impl Ctx<'_> {
    fn error(&self, why: String) {
        let mut e = self.errors.lock().expect("error list lock poisoned");
        if e.len() < 20 {
            e.push(why);
        }
    }

    /// Check a response against the oracle; `(ok, cache hit, queue depth)`.
    fn judge(&self, seq: usize, resp: &[u8]) -> (bool, bool, u64) {
        let want = &self.oracle[self.inp.key(seq)];
        let trailer = resp
            .strip_prefix(want.as_slice())
            .and_then(|rest| std::str::from_utf8(rest).ok())
            .and_then(|t| t.strip_prefix("end cache="))
            .and_then(|t| t.strip_suffix('\n'))
            .and_then(|t| t.split_once(" depth="))
            .and_then(|(c, d)| Some((c == "hit", d.parse::<u64>().ok()?)));
        match trailer {
            Some((hit, depth)) => (true, hit, depth),
            None => {
                let head = String::from_utf8_lossy(&resp[..resp.len().min(120)]).into_owned();
                self.error(format!(
                    "request {seq}: response differs from in-process schedule: {head:?}"
                ));
                (false, false, 0)
            }
        }
    }

    fn connect(&self) -> Option<Conn> {
        match Conn::connect(self.addr) {
            Ok(c) => Some(c),
            Err(e) => {
                self.error(format!("connect: {e}"));
                None
            }
        }
    }
}

/// Result of an open-loop run.
struct OpenRun {
    samples: Vec<Sample>,
    /// Requests scheduled to be sent.
    planned: usize,
    /// Seconds from the first due time to the last actual send.
    send_span_s: f64,
}

/// Send `n` requests (`seq0..seq0+n`) at `rate` per second, round-robin
/// over [`CONNS`] connections, each sent at its due time whether or not
/// earlier responses have arrived. With `abort_after`, sending stops once
/// that many responses have exceeded [`LIMIT_MS`].
fn open_loop(ctx: &Ctx, rate: f64, n: usize, seq0: usize, abort_after: Option<usize>) -> OpenRun {
    let over = AtomicUsize::new(0);
    let mut conns: Vec<Option<Conn>> = (0..CONNS).map(|_| ctx.connect()).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    let stop = || abort_after.is_some_and(|a| over.load(SeqCst) > a);
    let per_conn: Vec<(Vec<Sample>, Option<Instant>)> = std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                let over = &over;
                let stop = &stop;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_send = None;
                    let Some(conn) = conn.as_mut() else {
                        return (out, last_send);
                    };
                    let mut pending = std::collections::VecDeque::new();
                    let mut k = j;
                    loop {
                        let now = Instant::now();
                        let draining = k >= n || stop();
                        let response = if !draining {
                            let d = due(k);
                            if now >= d {
                                let (_, _, payload) = ctx.inp.request(seq0 + k);
                                let sent = Instant::now();
                                if let Err(e) = conn.send(&frame(&payload)) {
                                    ctx.error(format!("send: {e}"));
                                    break;
                                }
                                last_send = Some(sent);
                                pending.push_back((k, d, sent));
                                k += CONNS;
                                continue;
                            }
                            conn.recv_until(d)
                        } else if !pending.is_empty() {
                            conn.recv_until(now + RESPONSE_TIMEOUT)
                        } else {
                            break;
                        };
                        match response {
                            Ok(Some(resp)) => {
                                let done = Instant::now();
                                let Some((k, d, sent)) = pending.pop_front() else {
                                    ctx.error("response without a request".into());
                                    break;
                                };
                                let lat_ms = (done - d).as_secs_f64() * 1e3;
                                if lat_ms > LIMIT_MS {
                                    over.fetch_add(1, SeqCst);
                                }
                                let (ok, hit, depth) = ctx.judge(seq0 + k, &resp);
                                out.push(Sample {
                                    seq: seq0 + k,
                                    lat_ms,
                                    late_ms: sent.saturating_duration_since(d).as_secs_f64() * 1e3,
                                    ok,
                                    hit,
                                    depth,
                                });
                            }
                            Ok(None) if draining => {
                                ctx.error(format!("{} responses overdue", pending.len()));
                                break;
                            }
                            Ok(None) => {}
                            Err(e) => {
                                ctx.error(format!("receive: {e}"));
                                break;
                            }
                        }
                    }
                    (out, last_send)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let last = per_conn.iter().filter_map(|p| p.1).max();
    let mut samples: Vec<Sample> = per_conn.into_iter().flat_map(|p| p.0).collect();
    samples.sort_by_key(|s| s.seq);
    OpenRun {
        samples,
        planned: n,
        send_span_s: last.map_or(0.0, |l| l.saturating_duration_since(t0).as_secs_f64()),
    }
}

/// Both connections send their next request as soon as the previous
/// answer arrives, for `secs`. Returns the samples and the elapsed time.
fn closed_loop(ctx: &Ctx, secs: f64, seq: &AtomicUsize) -> (Vec<Sample>, f64) {
    let mut conns: Vec<Option<Conn>> = (0..CONNS).map(|_| ctx.connect()).collect();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let Some(conn) = conn.as_mut() else {
                        return out;
                    };
                    while Instant::now() < end {
                        let i = seq.fetch_add(1, SeqCst);
                        let (_, _, payload) = ctx.inp.request(i);
                        let sent = Instant::now();
                        if let Err(e) = conn.send(&frame(&payload)) {
                            ctx.error(format!("send: {e}"));
                            break;
                        }
                        match conn.recv_until(sent + RESPONSE_TIMEOUT) {
                            Ok(Some(resp)) => {
                                let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
                                let (ok, hit, depth) = ctx.judge(i, &resp);
                                out.push(Sample {
                                    seq: i,
                                    lat_ms,
                                    late_ms: 0.0,
                                    ok,
                                    hit,
                                    depth,
                                });
                            }
                            Ok(None) => {
                                ctx.error(format!("request {i}: no response"));
                                break;
                            }
                            Err(e) => {
                                ctx.error(format!("receive: {e}"));
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (samples, t0.elapsed().as_secs_f64())
}

/// Climb the ladder until a rung fails or `secs` run out.
fn slo_ladder(ctx: &Ctx, secs: f64, seq: &AtomicUsize) -> (Vec<Rung>, usize) {
    let t0 = Instant::now();
    let mut rungs = Vec::new();
    let mut sent = 0;
    for rate in ladder(100.0, 2.0, 8) {
        let need = RUNG_REQUESTS as f64 / rate;
        if t0.elapsed().as_secs_f64() + need > secs {
            break;
        }
        let seq0 = seq.fetch_add(RUNG_REQUESTS, SeqCst);
        let run = open_loop(ctx, rate, RUNG_REQUESTS, seq0, Some(stats::MIN_BEYOND));
        sent += run.samples.len();
        let lats: Vec<f64> = run.samples.iter().map(|s| s.lat_ms).collect();
        let all_ok = run.samples.iter().all(|s| s.ok);
        let rung = judge_rung(rate, &lats, run.planned, LIMIT_MS);
        rungs.push(Rung {
            passed: rung.passed && all_ok,
            ..rung
        });
        if !rungs.last().is_some_and(|r| r.passed) {
            break;
        }
    }
    (rungs, sent)
}

/// Open-loop honesty: the generator must have offered the stated rate.
/// Rejects the run when its sends spanned more than 5% longer than the
/// schedule, or when the 95th-percentile send lateness exceeds a tenth of
/// the gap between requests.
fn check_generator(run: &OpenRun, rate: f64, rep: &mut Report) -> f64 {
    let late: Vec<f64> = run.samples.iter().map(|s| s.late_ms).collect();
    let late_p95 = percentile(&late, 95.0);
    let scheduled_s = (run.planned.saturating_sub(1)) as f64 / rate;
    let offered = if run.send_span_s > 0.0 {
        (run.planned.saturating_sub(1)) as f64 / run.send_span_s
    } else {
        0.0
    };
    rep.note("open_offered_rps", offered);
    rep.note("open_late_p95_ms", late_p95);
    if run.send_span_s > scheduled_s * 1.05 + 0.001 || late_p95 > 1e3 / rate / 10.0 {
        rep.errors.push(format!(
            "open-loop generator fell behind: offered {offered:.2} of {rate} rps, p95 lateness {late_p95:.3} ms"
        ));
    }
    late_p95
}

/// Everything one pass of the phases measured.
struct Phases {
    open: OpenRun,
    closed: Vec<Sample>,
    closed_s: f64,
    rungs: Vec<Rung>,
}

fn phases(ctx: &Ctx, kind: Kind, seconds: f64, rep: &mut Report) -> Phases {
    let seq = AtomicUsize::new(0);
    // Warm-up: every hot key once fills the cache; the cold stream only
    // needs its connections and threads exercised.
    let warm = match kind {
        Kind::Hot => ctx.inp.keys(),
        Kind::Cold => 16,
    };
    let seq0 = seq.fetch_add(warm, SeqCst);
    let w = open_loop(ctx, 1e6, warm, seq0, None).samples;
    rep.attempted += warm as u64;
    rep.failed += (warm - w.iter().filter(|s| s.ok).count()) as u64;

    // Closed loop first: it gives the end-to-end numbers.
    let (closed, closed_s) = closed_loop(ctx, seconds * 0.5, &seq);
    let open_n = (seconds * 0.375 * OPEN_RATE).round().max(1.0) as usize;
    let open_seq0 = seq.fetch_add(open_n, SeqCst);
    let open = open_loop(ctx, OPEN_RATE, open_n, open_seq0, None);
    let (rungs, ladder_sent) = slo_ladder(ctx, seconds / 8.0, &seq);

    rep.attempted += (open.planned + closed.len() + ladder_sent) as u64;
    let bad = open.planned - open.samples.iter().filter(|s| s.ok).count()
        + closed.iter().filter(|s| !s.ok).count();
    rep.failed += bad as u64;
    rep.note("open_requests", open.planned);
    rep.note("closed_requests", closed.len());
    rep.note(
        "ladder",
        rungs
            .iter()
            .map(|r| format!("{}:{}", r.rate, if r.passed { "pass" } else { "fail" }))
            .collect::<Vec<_>>()
            .join(" "),
    );
    Phases {
        open,
        closed,
        closed_s,
        rungs,
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, mode: Mode, rep: &mut Report) {
    let setup = crate::timed_setup(|| {
        let inp = Inputs::generate(kind, seed);
        let daemon = Daemon::start();
        (inp, daemon)
    });
    let ((inp, daemon), setup_s) = setup;
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            rep.fail(format!("daemon failed to start: {e}"));
            return;
        }
    };
    rep.note("keys", inp.keys());
    rep.note("daemon_workers", dagsched_ws::worker_count());
    let oracle = match oracle(&inp, crate::report::nproc()) {
        Ok(o) => o,
        Err(e) => {
            rep.fail(format!("in-process oracle failed: {e}"));
            return;
        }
    };
    let ctx = Ctx {
        inp: &inp,
        oracle: &oracle,
        addr: daemon.addr(),
        errors: Mutex::new(Vec::new()),
    };
    let ph = phases(&ctx, kind, seconds, rep);
    drop(daemon);
    rep.errors
        .extend(ctx.errors.into_inner().expect("error list lock poisoned"));

    let open_ms: Vec<f64> = ph.open.samples.iter().map(|s| s.lat_ms).collect();
    let closed_ms: Vec<f64> = ph.closed.iter().map(|s| s.lat_ms).collect();
    let late_p95 = check_generator(&ph.open, OPEN_RATE, rep);
    let sat = ph.closed.len() as f64 / ph.closed_s;
    let (tail_p, tail_ms) = tail(&closed_ms, crate::TAIL_CAP);
    rep.note("latency_samples", closed_ms.len());
    rep.note("tail_percentile", tail_p);

    match mode {
        Mode::Untraced => {
            crate::end_to_end(rep, setup_s, sat, median(&closed_ms), tail_ms);
        }
        Mode::Traced => {
            let all: Vec<&Sample> = ph.open.samples.iter().chain(&ph.closed).collect();
            let hits = all.iter().filter(|s| s.hit).count();
            rep.metric(
                "serve.hit_ratio",
                hits as f64 / all.len().max(1) as f64,
                "ratio",
            );
            let depths: Vec<f64> = all.iter().map(|s| s.depth as f64).collect();
            rep.metric("serve.queue_depth_p95", percentile(&depths, 95.0), "count");
            rep.metric("serve.open_p50_ms", median(&open_ms), "ms");
            rep.metric("serve.open_p95_ms", percentile(&open_ms, 95.0), "ms");
            rep.metric("serve.slo_rps", slo_rate(&ph.rungs), "1/s");
            rep.metric("serve.gen_late_ms", late_p95, "ms");
            let seqs: Vec<usize> = ph.closed.iter().map(|s| s.seq).collect();
            replay(kind, &inp, &oracle, &seqs, median(&closed_ms), seed, rep);
        }
    }
}

/// The daemon's request path, replayed in process over the open loop's
/// requests, one span per stage.
fn replay(
    kind: Kind,
    inp: &Inputs,
    oracle: &[Vec<u8>],
    seqs: &[usize],
    rtt_p50_ms: f64,
    seed: u64,
    rep: &mut Report,
) {
    let prime = |cache: &ShardedLru| {
        if kind == Kind::Hot {
            let mut tr = Tracer::disabled();
            for s in 0..inp.keys() {
                let _ = pipeline(inp, s, s as u64, cache, &mut tr);
            }
        }
    };
    // Untraced replays first, for the overhead ratio; the first one only
    // warms code and allocator.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let cache = ShardedLru::new(Config::default().cache_cap);
        prime(&cache);
        let mut off = Tracer::disabled();
        let t = Instant::now();
        for (i, &s) in seqs.iter().enumerate() {
            let _ = pipeline(inp, s, i as u64, &cache, &mut off);
        }
        untraced_s = t.elapsed().as_secs_f64();
    }

    let cache = ShardedLru::new(Config::default().cache_cap);
    prime(&cache);
    let mut tr = Tracer::new();
    let t = Instant::now();
    for (i, &s) in seqs.iter().enumerate() {
        let key = inp.key(s);
        let got = tr.span("serve.request", i as u64, |tr| {
            pipeline(inp, s, i as u64, &cache, tr)
        });
        rep.attempted += 1;
        match got {
            Ok(bytes) if bytes.starts_with(&oracle[key]) => {}
            Ok(_) => rep.fail(format!("replayed request {s} differs from the oracle")),
            Err(e) => rep.fail(format!("replayed request {s}: {e}")),
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    rep.metric("trace.overhead_ratio", traced_s / untraced_s, "ratio");

    // Per-request stage times (0 where a request skipped the stage).
    let n = seqs.len();
    let stage = |name: &str| -> Vec<f64> {
        let mut per = vec![0.0; n];
        for sp in tr.spans().iter().filter(|sp| sp.name == name) {
            per[sp.req as usize] += sp.dur_ns() as f64 / 1e3;
        }
        per
    };
    let wire_of = |i: usize| inp.request(seqs[i]).1;
    let by_wire = |w: GraphWire| -> Vec<f64> {
        stage("serve.decode")
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| wire_of(i) == w)
            .map(|(_, x)| x)
            .collect()
    };
    let tgf = by_wire(GraphWire::Tgf);
    let bin = by_wire(GraphWire::Bin);
    let decode_us = (median(&tgf) * tgf.len() as f64 + median(&bin) * bin.len() as f64) / n as f64;
    rep.metric("serve.decode_tgf_us", median(&tgf), "us");
    rep.metric("serve.decode_bin_us", median(&bin), "us");
    let mut sum_us = decode_us;
    for (span, metric) in [
        ("serve.frame", "serve.frame_us"),
        ("serve.parse", "serve.parse_us"),
        ("serve.hash", "serve.hash_us"),
        ("serve.cache_get", "serve.cache_get_us"),
        ("serve.cache_insert", "serve.cache_insert_us"),
        ("serve.schedule", "serve.schedule_us"),
        ("serve.render", "serve.render_us"),
    ] {
        let m = median(&stage(span));
        sum_us += m;
        rep.metric(metric, m, "us");
    }
    rep.note("stage_sum_ms", sum_us / 1e3);
    rep.metric("serve.residual_ms", rtt_p50_ms - sum_us / 1e3, "ms");

    let v = V as f64;
    let levels = tr.durations_us("graph.levels");
    if !levels.is_empty() {
        rep.metric("graph.levels_us_per_task", median(&levels) / v, "us");
    }
    for a in ALGOS {
        let us = tr.durations_us(&format!("core.{a}"));
        if !us.is_empty() {
            rep.metric(format!("core.{a}.us_per_task"), median(&us) / v, "us");
        }
    }
    crate::write_trace(&tr, kind.name(), seed, rep);
}

/// One request through the daemon's stages: frame, parse and resolve,
/// decode, hash, cache lookup, and on a miss levels, schedule, render
/// and cache insert. Returns the response bytes.
fn pipeline(
    inp: &Inputs,
    seq: usize,
    req: u64,
    cache: &ShardedLru,
    tr: &mut Tracer,
) -> Result<Vec<u8>, String> {
    let (_, _, payload) = inp.request(seq);
    let framed = tr.span("serve.frame", req, |_| {
        let mut wire = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut wire, &payload).map_err(|e| e.to_string())?;
        FrameReader::new()
            .poll(&mut Cursor::new(wire))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "empty frame".to_string())
    })?;
    let (wire, platform, algo, graph, env) =
        tr.span("serve.parse", req, |_| {
            match parse_request(&framed).map_err(|e| e.message)? {
                Request::Schedule {
                    wire,
                    platform,
                    algo,
                    graph,
                } => {
                    let env = Env::parse_spec(&platform)?;
                    let algo = registry::lookup(&algo).map_err(|e| e.to_string())?;
                    Ok::<_, String>((wire, platform, algo, graph, env))
                }
                Request::Shutdown => Err("unexpected shutdown request".into()),
            }
        })?;
    let g = tr.span("serve.decode", req, |_| match wire {
        GraphWire::Tgf => std::str::from_utf8(&graph)
            .map_err(|e| e.to_string())
            .and_then(|t| from_tgf(t).map_err(|e| e.to_string())),
        GraphWire::Bin => binio::from_bin(&graph).map_err(|e| e.to_string()),
    })?;
    let hash = tr.span("serve.hash", req, |_| binio::structural_hash(&g));
    let key = CacheKey {
        graph: hash,
        platform,
        algo: algo.name().to_string(),
    };
    if let Some(hit) = tr.span("serve.cache_get", req, |_| cache.get(&key)) {
        return tr.span("serve.render", req, |_| {
            std::str::from_utf8(&hit)
                .map(|s| encode_ok(s, true, 0))
                .map_err(|e| e.to_string())
        });
    }
    let out = tr.span("serve.schedule", req, |tr| {
        tr.span("graph.levels", req, |_| {
            g.levels();
        });
        tr.span(&format!("core.{}", algo.name()), req, |_| {
            algo.schedule(&g, &env)
        })
    });
    let out = out.map_err(|e| e.to_string())?;
    let (rendered, resp) = tr.span("serve.render", req, |_| {
        let compact = out.schedule.compact_procs();
        let rendered = render_schedule(algo.name(), &compact, g.num_tasks());
        let resp = encode_ok(&rendered, false, 0);
        (rendered, resp)
    });
    tr.span("serve.cache_insert", req, |_| {
        cache.insert(key, std::sync::Arc::new(rendered.into_bytes()))
    });
    Ok(resp)
}
