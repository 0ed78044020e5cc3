//! The daemon: an acceptor and one thread per connection. Each request is
//! scheduled on the connection thread that read it, behind one admission
//! [`Gate`] that caps how many requests schedule at once (`workers`) and
//! how many wait for a slot (`queue_cap`); past both, `E_QUEUE_FULL`.
//!
//! ```text
//! listener ──accept──▶ conn thread (one per connection)
//!                        frame → parse → gate.enter → decode → cache
//!                        ◀── write_frame ◀── render ◀── schedule
//! ```
//!
//! A connection thread answers one frame before reading the next, which
//! is what gives clients exactly-once, in-order responses per connection.
//!
//! ## Graceful shutdown
//!
//! A `shutdown` request (or [`Handle::shutdown`]) flips the flag; the
//! listener stops accepting, and connection threads finish the frame they
//! are on (with a bounded grace for a peer mid-frame) and close. An
//! admitted request runs to its response on its own connection thread,
//! and shutdown joins every connection thread, so in-flight requests
//! always get their response.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dagsched_core::{registry, Env};
use dagsched_graph::{binio, io::from_tgf, GraphError};
use dagsched_obs::registry::{global, HistId, Metric};

use crate::cache::{CacheKey, ShardedLru};
use crate::frame::{write_frame, FrameError, FrameReader};
use crate::gate::Gate;
use crate::proto::{
    self, code, encode_err, encode_ok, parse_request, render_schedule, GraphWire, Request,
    ServeError,
};

/// How long a rejected request should wait before retrying.
pub const RETRY_AFTER_MS: u64 = 25;

/// Socket read timeout — the cadence at which idle connection threads
/// notice the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Idle polls granted to a peer caught mid-frame at shutdown (~2 s).
const MID_FRAME_GRACE: u32 = 40;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Requests scheduled at once; `0` = [`dagsched_ws::worker_count`]
    /// (which honors `TASKBENCH_THREADS`).
    pub workers: usize,
    /// Requests that may wait for a scheduling slot (backpressure).
    pub queue_cap: usize,
    /// Total schedule-cache entries (`0` disables memoization).
    pub cache_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 1024,
        }
    }
}

struct Shared {
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    gate: Gate,
    cache: ShardedLru,
    conns: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        *self.shutdown.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
    }

    fn shutting_down(&self) -> bool {
        *self.shutdown.lock().unwrap()
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Handle::shutdown`] or send a `shutdown` request and
/// [`Handle::wait`].
pub struct Handle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Handle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Flip the shutdown flag and [`wait`](Handle::wait).
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Block until a `shutdown` request (or [`Handle::shutdown`]) stops
    /// the daemon, then drain and join every thread.
    pub fn wait(self) {
        self.join_all();
    }

    fn join_all(self) {
        {
            let mut down = self.shared.shutdown.lock().unwrap();
            while !*down {
                down = self.shared.shutdown_cv.wait(down).unwrap();
            }
        }
        // Wake the blocking accept with a throwaway connection; the
        // listener sees the flag and exits.
        let _ = TcpStream::connect(self.shared.addr);
        let _ = self.acceptor.join();
        // Every admitted request finishes on its connection thread.
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
    }
}

/// Bind, spawn the acceptor, and return immediately.
pub fn start(cfg: Config) -> io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let slots = if cfg.workers == 0 {
        dagsched_ws::worker_count()
    } else {
        cfg.workers
    }
    .max(1);
    let shared = Arc::new(Shared {
        shutdown: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        gate: Gate::new(slots, cfg.queue_cap.max(1)),
        cache: ShardedLru::new(cfg.cache_cap),
        conns: Mutex::new(Vec::new()),
        addr,
    });

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if sh.shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let sh2 = Arc::clone(&sh);
                let h = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || conn_loop(stream, &sh2))
                    .expect("spawn conn thread");
                let mut conns = sh.conns.lock().unwrap();
                conns.retain(|c| !c.is_finished());
                conns.push(h);
            }
        })
        .expect("spawn acceptor");

    Ok(Handle { shared, acceptor })
}

/// One connection: read frames, schedule requests, write responses.
fn conn_loop(mut stream: TcpStream, sh: &Shared) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = FrameReader::new();
    let mut grace = MID_FRAME_GRACE;
    loop {
        match reader.poll(&mut stream) {
            Ok(Some(payload)) => {
                grace = MID_FRAME_GRACE;
                let resp = match parse_request(&payload) {
                    Ok(Request::Shutdown) => {
                        let _ = write_frame(&mut stream, proto::BYE);
                        sh.begin_shutdown();
                        // Keep serving frames the peer already sent; the
                        // next idle poll at a boundary ends the loop.
                        continue;
                    }
                    Ok(Request::Schedule {
                        wire,
                        platform,
                        algo,
                        graph,
                    }) => admit(&sh.gate, || {
                        process_request(sh, wire, &platform, &algo, &graph)
                    }),
                    Err(e) => {
                        global().incr(Metric::ServeErrors);
                        encode_err(&e)
                    }
                };
                if write_frame(&mut stream, &resp).is_err() {
                    return;
                }
            }
            // Clean EOF at a frame boundary: peer is done.
            Ok(None) => return,
            Err(FrameError::Oversize(n)) => {
                // The length prefix cannot be resynchronized past — tell
                // the peer, then drop the connection.
                global().incr(Metric::ServeErrors);
                let e = ServeError::new(
                    code::FRAME_OVERSIZE,
                    format!("frame of {n} bytes exceeds cap {}", crate::MAX_FRAME),
                );
                let _ = write_frame(&mut stream, &encode_err(&e));
                return;
            }
            Err(FrameError::Idle { mid_frame }) => {
                if sh.shutting_down() {
                    if !mid_frame {
                        return;
                    }
                    grace -= 1;
                    if grace == 0 {
                        return;
                    }
                }
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => return,
        }
    }
}

/// Run `work` in a gate slot and return its response bytes. A full line
/// is an immediate structured reject — backpressure, not latency. A panic
/// in `work` costs this request only: it is answered `E_INTERNAL`, and
/// the permit's `Drop` releases the slot on unwind.
fn admit(gate: &Gate, work: impl FnOnce() -> Result<Vec<u8>, ServeError>) -> Vec<u8> {
    let Some((permit, depth)) = gate.enter() else {
        global().incr(Metric::ServeQueueRejects);
        global().incr(Metric::ServeErrors);
        return encode_err(
            &ServeError::new(code::QUEUE_FULL, "request queue is full").retry_after(RETRY_AFTER_MS),
        );
    };
    global().incr(Metric::ServeRequests);
    global().hist(HistId::ServeQueueDepth).record(depth as u64);
    catch_unwind(AssertUnwindSafe(move || {
        let _permit = permit;
        work()
    }))
    .unwrap_or_else(|_| Err(ServeError::new(code::INTERNAL, "scheduler panicked")))
    .unwrap_or_else(|e| {
        global().incr(Metric::ServeErrors);
        encode_err(&e)
    })
}

/// Decode → resolve → (cache | schedule) → render. Every failure maps to
/// a stable machine-readable code shared with the CLI.
fn process_request(
    sh: &Shared,
    wire: GraphWire,
    platform: &str,
    algo: &str,
    graph: &[u8],
) -> Result<Vec<u8>, ServeError> {
    let g = match wire {
        GraphWire::Tgf => {
            let text = std::str::from_utf8(graph).map_err(|_| {
                ServeError::new(
                    GraphError::Parse {
                        line: 0,
                        reason: String::new(),
                    }
                    .code(),
                    "TGF body is not UTF-8",
                )
            })?;
            from_tgf(text).map_err(|e| ServeError::new(e.code(), e.to_string()))?
        }
        GraphWire::Bin => {
            binio::from_bin(graph).map_err(|e| ServeError::new(e.code(), e.to_string()))?
        }
    };
    let env = Env::parse_spec(platform).map_err(|e| ServeError::new(code::PLATFORM_BAD, e))?;
    let algo = registry::lookup(algo).map_err(|e| ServeError::new(e.code(), e.to_string()))?;

    // Canonical name, not the request spelling: `mcp`, `MCP`, and the
    // compose grammar with defaults spelled out all share a cache entry.
    let key = CacheKey {
        graph: binio::structural_hash(&g),
        platform: platform.to_string(),
        algo: algo.name().to_string(),
    };
    if let Some(cached) = sh.cache.get(&key) {
        return Ok(encode_ok(
            std::str::from_utf8(&cached).expect("cache holds rendered text"),
            true,
            sh.gate.waiting(),
        ));
    }

    let outcome = algo
        .schedule(&g, &env)
        .map_err(|e| ServeError::new(e.code(), e.to_string()))?;
    let compact = outcome.schedule.compact_procs();
    let rendered = render_schedule(algo.name(), &compact, g.num_tasks());
    sh.cache
        .insert(key, Arc::new(rendered.clone().into_bytes()));
    Ok(encode_ok(&rendered, false, sh.gate.waiting()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_response, Response};

    #[test]
    fn finished_connection_threads_are_reaped() {
        let handle = start(Config::default()).expect("bind");
        for _ in 0..50 {
            drop(TcpStream::connect(handle.addr()).expect("connect"));
            // Let the closed connection's thread see EOF and exit.
            std::thread::sleep(Duration::from_millis(2));
        }
        let held = handle.shared.conns.lock().unwrap().len();
        assert!(held <= 5, "{held} of 50 closed connections still held");
        handle.shutdown();
    }

    #[test]
    fn a_panicking_request_costs_one_internal_error_and_no_slot() {
        let gate = Gate::new(1, 0);
        let errors = global().get(Metric::ServeErrors);
        let resp = admit(&gate, || panic!("scheduler bug"));
        match parse_response(&resp) {
            Ok(Response::Err { code: c, .. }) => assert_eq!(c, code::INTERNAL),
            other => panic!("expected E_INTERNAL, got {other:?}"),
        }
        assert!(global().get(Metric::ServeErrors) > errors);
        // The gate has no line, so this is refused unless the slot is free.
        assert_eq!(admit(&gate, || Ok(b"next".to_vec())), b"next");
    }
}
