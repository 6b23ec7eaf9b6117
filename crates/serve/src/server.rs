//! The daemon itself: a TCP listener dispatching connections to threads,
//! a shared [`Engine`] discharging proof obligations, and a shared
//! [`ObligationCache`] answering repeated work.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use inseq_core::incr::{mechanical_application, ArtifactKeys, ObligationCache};
use inseq_engine::Engine;
use inseq_kernel::ActionName;
use inseq_lang::serial::{action_hash, canonical_hash, diff_specs, SpecDiff};
use inseq_lang::spec::ProgramSpec;
use inseq_obs::Counter;

use crate::proto::{self, CheckRequest, Request};

/// Default visited-configuration budget per check request, matching the
/// fuzz oracle battery's default.
pub const DEFAULT_REQUEST_BUDGET: usize = 4_000;

/// Longest request line the daemon accepts, newline excluded. The longest
/// Table-1 protocol is a few KiB on the wire, so this leaves ample room
/// while bounding what one client can make a connection thread buffer.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Most connections served at once. Each is served on its own thread, so
/// this bounds the daemon's threads; a connection beyond it gets one
/// `over-capacity` error line and is closed.
pub const MAX_CONNECTIONS: usize = 32;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; `127.0.0.1:0` picks an ephemeral port (used by the
    /// tests).
    pub addr: String,
    /// Engine worker threads shared by all requests.
    pub threads: usize,
    /// Maximum concurrently *running* check requests; requests beyond this
    /// are rejected gracefully with an `over-capacity` error rather than
    /// queued without bound.
    pub capacity: usize,
    /// Hard ceiling on the per-request budget; larger `(budget ..)` values
    /// are clamped.
    pub max_budget: usize,
    /// Budget applied when a request names none.
    pub default_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            capacity: 4,
            max_budget: 200_000,
            default_budget: DEFAULT_REQUEST_BUDGET,
        }
    }
}

/// State shared by every connection: the engine, the result cache, the
/// submitted-program table (for `(base ..)` diffs), and load counters.
#[derive(Debug)]
pub struct ServerState {
    config: ServerConfig,
    engine: Engine,
    cache: ObligationCache,
    programs: Mutex<HashMap<u64, ProgramSpec>>,
    active_checks: AtomicUsize,
    open_connections: AtomicUsize,
    shutting_down: AtomicBool,
    checks_served: Counter,
    checks_rejected: Counter,
    connections_refused: Counter,
}

impl ServerState {
    fn new(config: ServerConfig) -> Self {
        let engine = Engine::new().with_threads(config.threads);
        ServerState {
            config,
            engine,
            cache: ObligationCache::new(),
            programs: Mutex::new(HashMap::new()),
            active_checks: AtomicUsize::new(0),
            open_connections: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            checks_served: Counter::new(),
            checks_rejected: Counter::new(),
            connections_refused: Counter::new(),
        }
    }

    /// The shared obligation cache (tests assert on its hit/miss traffic).
    #[must_use]
    pub fn cache(&self) -> &ObligationCache {
        &self.cache
    }

    /// Whether a shutdown request has been received.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Check requests fully served so far.
    #[must_use]
    pub fn checks_served(&self) -> u64 {
        self.checks_served.get()
    }

    /// Check requests rejected for capacity or shutdown.
    #[must_use]
    pub fn checks_rejected(&self) -> u64 {
        self.checks_rejected.get()
    }

    /// Connections refused as `over-capacity` because
    /// [`MAX_CONNECTIONS`] were already open.
    #[must_use]
    pub fn connections_refused(&self) -> u64 {
        self.connections_refused.get()
    }

    fn stats_line(&self) -> String {
        let obligation = self.cache.obligation_stats();
        let full = self.cache.full_stats();
        let programs = self.programs.lock().expect("program table poisoned").len();
        format!(
            "{{\"type\": \"stats\", \"obligation_cache_hits\": {}, \
             \"obligation_cache_misses\": {}, \"full_cache_hits\": {}, \
             \"full_cache_misses\": {}, \"cached_obligations\": {}, \
             \"known_programs\": {programs}, \"active_checks\": {}, \
             \"capacity\": {}, \"engine_threads\": {}, \"checks_served\": {}, \
             \"checks_rejected\": {}, \"connections_refused\": {}, \"shutting_down\": {}}}",
            obligation.hits,
            obligation.misses,
            full.hits,
            full.misses,
            self.cache.len(),
            self.active_checks.load(Ordering::SeqCst),
            self.config.capacity,
            self.engine.threads(),
            self.checks_served.get(),
            self.checks_rejected.get(),
            self.connections_refused.get(),
            self.is_shutting_down(),
        )
    }
}

/// A claimed slot of a bounded count (running checks, open connections),
/// released on drop.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Claims one of `cap` slots counted by `count`, or returns `None` when
    /// all are taken.
    fn acquire(count: &'a AtomicUsize, cap: usize) -> Option<Self> {
        count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(count))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the configured address.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState::new(config)),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle on the shared state, for inspection from tests.
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accepts connections until a `(shutdown)` request arrives, then
    /// drains in-flight obligations through [`Engine::shutdown`] and
    /// returns. Each connection is served on its own thread; responses to
    /// one connection never interleave with another's. At most
    /// [`MAX_CONNECTIONS`] are served at once: one more is sent a single
    /// `over-capacity` error line and closed, without a thread.
    ///
    /// # Errors
    ///
    /// Propagates listener failures.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let state: &ServerState = &self.state;
        thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if state.is_shutting_down() {
                    break;
                }
                let mut stream = stream?;
                let Some(slot) = Slot::acquire(&state.open_connections, MAX_CONNECTIONS) else {
                    state.connections_refused.incr();
                    let refusal = proto::error(
                        None,
                        "over-capacity",
                        &format!("{MAX_CONNECTIONS} connections already open; retry later"),
                    );
                    // The client may already be gone; nothing to report.
                    let _ = writeln!(stream, "{refusal}");
                    continue;
                };
                scope.spawn(move || {
                    let _slot = slot;
                    let peer = stream.peer_addr().ok();
                    if let Err(e) = handle_connection(state, stream, addr) {
                        // A dropped client is routine; log and move on.
                        eprintln!("inseq-serve: connection {peer:?}: {e}");
                    }
                });
            }
            Ok::<(), io::Error>(())
        })?;
        // Finish whatever obligations are still running before returning,
        // so a drained daemon never abandons a half-answered request.
        self.state.engine.shutdown();
        Ok(())
    }
}

/// Wakes the accept loop after `shutting_down` was set, by making one
/// throwaway connection to ourselves.
fn poke_listener(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn handle_connection(
    state: &ServerState,
    stream: TcpStream,
    listen_addr: SocketAddr,
) -> io::Result<()> {
    // Responses are single flushed lines on a request/reply protocol;
    // letting Nagle hold them back only adds delayed-ACK stalls.
    stream.set_nodelay(true)?;
    // Poll rather than block indefinitely: an idle connection must notice a
    // shutdown initiated on a *different* connection, or the drain in
    // [`Server::run`] would wait forever on this thread.
    stream.set_read_timeout(Some(std::time::Duration::from_millis(100)))?;
    let mut reader = RequestLines::new(BufReader::new(stream.try_clone()?));
    let writer = Mutex::new(BufWriter::new(stream));
    let send = |line: &str| -> io::Result<()> {
        let mut w = writer.lock().expect("writer poisoned");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    };

    loop {
        let request = match reader.poll() {
            Ok(Polled::Eof) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if state.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
            Ok(Polled::Pending) => continue,
            Ok(Polled::Rejected(message)) => {
                send(&proto::error(None, "bad-request", &message))?;
                continue;
            }
            Ok(Polled::Line(request)) => request,
        };
        let request = request.trim();
        if request.is_empty() || request.starts_with(';') {
            continue;
        }
        match proto::parse_request(request) {
            Err(message) => send(&proto::error(None, "bad-request", &message))?,
            Ok(Request::Ping) => send(&proto::pong())?,
            Ok(Request::Stats) => send(&state.stats_line())?,
            Ok(Request::Shutdown) => {
                state.shutting_down.store(true, Ordering::SeqCst);
                send(&proto::bye())?;
                poke_listener(listen_addr);
                return Ok(());
            }
            Ok(Request::Check(req)) => handle_check(state, &writer, req)?,
        }
    }
}

/// What one [`RequestLines::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
enum Polled {
    /// The peer closed the connection (a trailing unterminated line is
    /// dropped).
    Eof,
    /// Bytes arrived but no newline yet.
    Pending,
    /// A complete request line, newline excluded.
    Line(String),
    /// A line that cannot be a request, with the reason: it outgrew
    /// [`MAX_REQUEST_LINE`] (reported as soon as it does, its remainder
    /// then discarded up to the next newline) or it is not UTF-8.
    Rejected(String),
}

/// Splits a byte stream into request lines of at most [`MAX_REQUEST_LINE`]
/// bytes. Unlike `read_line`, it neither buffers an over-long line nor
/// fails the stream on invalid UTF-8: either rejects only that line.
struct RequestLines<R> {
    inner: R,
    line: Vec<u8>,
    /// Discarding the rest of an over-long line up to its newline.
    skipping: bool,
}

impl<R: BufRead> RequestLines<R> {
    fn new(inner: R) -> Self {
        RequestLines {
            inner,
            line: Vec::new(),
            skipping: false,
        }
    }

    /// Consumes at most one buffered chunk of input. Read errors, including
    /// poll timeouts, pass through; a partial line survives them.
    fn poll(&mut self) -> io::Result<Polled> {
        let chunk = self.inner.fill_buf()?;
        if chunk.is_empty() {
            return Ok(Polled::Eof);
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        let mut polled = Polled::Pending;
        if !self.skipping {
            if self.line.len() + part.len() > MAX_REQUEST_LINE {
                self.line = Vec::new();
                self.skipping = true;
                polled = Polled::Rejected(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
            } else {
                self.line.extend_from_slice(part);
            }
        }
        let consumed = newline.map_or(chunk.len(), |i| i + 1);
        self.inner.consume(consumed);
        if newline.is_some() {
            if std::mem::take(&mut self.skipping) {
                return Ok(polled);
            }
            return Ok(match String::from_utf8(std::mem::take(&mut self.line)) {
                Ok(line) => Polled::Line(line),
                Err(e) => Polled::Rejected(format!("request line is not valid UTF-8: {e}")),
            });
        }
        Ok(polled)
    }
}

type SharedWriter = Mutex<BufWriter<TcpStream>>;

fn send_line(writer: &SharedWriter, line: &str) -> io::Result<()> {
    let mut w = writer.lock().expect("writer poisoned");
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn handle_check(state: &ServerState, writer: &SharedWriter, req: CheckRequest) -> io::Result<()> {
    let id = req.id.as_deref();
    if state.is_shutting_down() {
        state.checks_rejected.incr();
        return send_line(
            writer,
            &proto::error(
                id,
                "shutting-down",
                "daemon is draining; try another instance",
            ),
        );
    }
    let Some(_slot) = Slot::acquire(&state.active_checks, state.config.capacity) else {
        state.checks_rejected.incr();
        return send_line(
            writer,
            &proto::error(
                id,
                "over-capacity",
                &format!(
                    "{} checks already running (capacity {}); retry later",
                    state.config.capacity, state.config.capacity
                ),
            ),
        );
    };

    // Build the program; type errors go back to the client.
    let built = match req.spec.build() {
        Ok(b) => b,
        Err(e) => {
            return send_line(writer, &proto::error(id, "bad-request", &e.to_string()));
        }
    };

    // Content-address the program and its actions for the cache keys.
    let program_key = canonical_hash(&req.spec);
    let mut action_keys: BTreeMap<ActionName, u64> = BTreeMap::new();
    for name in built.program.action_names() {
        if let Some(action) = req.spec.action(name.as_str()) {
            action_keys.insert(name.clone(), action_hash(action));
        }
    }
    let keys = ArtifactKeys::mechanical(program_key, action_keys, built.program.main());

    let budget = req
        .budget
        .unwrap_or(state.config.default_budget)
        .min(state.config.max_budget);
    let app = mechanical_application(&built.program, built.init.clone(), budget);

    // Action-level diff against a known base, if the client named one.
    let diff: Option<SpecDiff> = req.base.and_then(|base| {
        let programs = state.programs.lock().expect("program table poisoned");
        programs.get(&base).map(|old| diff_specs(old, &req.spec))
    });
    send_line(
        writer,
        &proto::ack(
            id,
            program_key,
            app.obligations().len(),
            budget,
            diff.as_ref(),
        ),
    )?;

    // Stream each obligation outcome as it resolves. The engine may deliver
    // them from worker threads, hence the shared writer; a dead connection
    // just makes the remaining sends no-ops.
    let on_outcome = |o: &inseq_core::ObligationOutcome| {
        let _ = send_line(writer, &proto::obligation(id, o));
    };
    match app.check_incremental(&state.engine, &state.cache, &keys, &on_outcome) {
        Ok(rep) => {
            state
                .programs
                .lock()
                .expect("program table poisoned")
                .insert(program_key, req.spec);
            state.checks_served.incr();
            send_line(writer, &proto::verdict(id, &rep))
        }
        Err(v) => send_line(
            writer,
            &proto::error(id, "check-failed", &format!("{}: {v}", v.premise())),
        ),
    }
}
