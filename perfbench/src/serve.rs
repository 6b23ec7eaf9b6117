//! The `serve-edit` workload: a resident `inseq-serve` daemon and one
//! closed-loop client. One operation is a session against a freshly
//! started daemon: the first submission of each of the seven Table-1
//! programs, then identical resubmits of seeded earlier programs (whole-run
//! cache reads) between fresh footprint-disjoint `Audit` edits of each base
//! program in turn (new cache entries, most obligations reused). A
//! session has a fixed length, so the daemon's cache growth — and with it
//! peak memory — does not depend on how fast requests are served. Every
//! verdict is compared with an uncached in-process `check_incremental` of
//! the same program.

use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use inseq_core::incr::{mechanical_application, ArtifactKeys, ObligationCache};
use inseq_core::IsReport;
use inseq_engine::Engine;
use inseq_kernel::{ActionName, Config, Value};
use inseq_lang::serial::{action_hash, canonical_hash, write_spec_line};
use inseq_lang::spec::{spec_stmts, ActionSpec, ProgramSpec, SpecStmt};
use inseq_lang::{DslAction, Expr, GlobalDecls, Sort};
use inseq_protocols::{
    broadcast, chang_roberts, n_buyer, paxos, ping_pong, producer_consumer, two_phase_commit,
};
use inseq_serve::{Server, ServerConfig};

use crate::report::{expect_eq, Checker, Metrics};
use crate::stats::{median, tail, Rng};
use crate::trace::Tracer;
use crate::{drive, timed_setups, trace_metrics, traced_runs, Opts, Outcome, WORKERS};

/// Visited-configuration budget of every request.
pub const BUDGET: usize = 4_000;

/// After the first submissions, every `RESUBMIT_EVERY`-th request is an
/// identical resubmit; the rest are fresh edits.
const RESUBMIT_EVERY: usize = 3;

/// What a session sends: the seven Table-1 programs, each submitted once,
/// then resubmits and edits.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Requests per session, first submissions included.
    pub session_requests: usize,
}

impl Plan {
    /// The benchmark's session: 1000 requests.
    #[must_use]
    pub fn full() -> Self {
        Plan {
            session_requests: 1000,
        }
    }
}

/// Converts built DSL actions plus an initial configuration into a spec
/// (callees before callers, as every protocol's `p2_dsl_actions` lists
/// them).
fn export(
    decls: &Arc<GlobalDecls>,
    actions: &[Arc<DslAction>],
    main: &str,
    init: &Config,
) -> ProgramSpec {
    ProgramSpec {
        globals: decls
            .iter()
            .enumerate()
            .map(|(i, (name, sort))| (name.to_owned(), sort.clone(), init.globals.get(i).clone()))
            .collect(),
        actions: actions
            .iter()
            .map(|a| ActionSpec {
                name: a.name().to_owned(),
                params: a.params().to_vec(),
                locals: a.locals().to_vec(),
                body: spec_stmts(a.body()),
            })
            .collect(),
        main: main.to_owned(),
        pending: init
            .pending
            .iter()
            .map(|pa| (pa.action.as_str().to_owned(), pa.args.clone()))
            .collect(),
    }
}

/// The seven Table-1 `P2` programs as daemon specs, on the small instances
/// the fuzz corpus uses.
#[must_use]
pub fn table1_specs() -> Vec<(&'static str, ProgramSpec)> {
    let a = broadcast::build();
    let init = broadcast::init_config(&a.p2, &a, &broadcast::Instance::new(&[3, 1]));
    let broadcast = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = ping_pong::build();
    let init = ping_pong::init_config(&a.p2, &a, ping_pong::Instance::new(2));
    let ping_pong = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = producer_consumer::build();
    let init = producer_consumer::init_config(&a.p2, &a, producer_consumer::Instance::new(2));
    let producer_consumer = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = n_buyer::build();
    let init = n_buyer::init_config(&a.p2, &a, &n_buyer::Instance::new(10, &[6, 6]));
    let n_buyer = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = chang_roberts::build();
    let init = chang_roberts::init_config(&a.p2, &a, &chang_roberts::Instance::new(&[20, 10]));
    let chang_roberts = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = two_phase_commit::build();
    let instance = two_phase_commit::Instance::new(&[true, false]);
    let init = two_phase_commit::init_config(&a.p2, &a, &instance);
    let two_phase_commit = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    let a = paxos::build();
    let init = paxos::init_config(&a.p2, &a, paxos::Instance::new(1, 2));
    let paxos = export(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init);
    vec![
        ("broadcast", broadcast),
        ("ping_pong", ping_pong),
        ("producer_consumer", producer_consumer),
        ("n_buyer", n_buyer),
        ("chang_roberts", chang_roberts),
        ("two_phase_commit", two_phase_commit),
        ("paxos", paxos),
    ]
}

/// `spec` plus an `Audit` action writing `value` to a fresh global: a
/// never-seen program whose edit is footprint-disjoint from the rest.
#[must_use]
pub fn audited(spec: &ProgramSpec, value: i64) -> ProgramSpec {
    let mut spec = spec.clone();
    spec.globals
        .push(("audit".to_owned(), Sort::Int, Value::Int(0)));
    spec.pending.push(("Audit".to_owned(), Vec::new()));
    spec.actions.push(ActionSpec {
        name: "Audit".to_owned(),
        params: Vec::new(),
        locals: Vec::new(),
        body: vec![SpecStmt::Assign(
            "audit".to_owned(),
            Expr::Const(Value::Int(value)),
        )],
    });
    spec
}

// ---------------------------------------------------------------------------
// Daemon and client
// ---------------------------------------------------------------------------

struct Daemon {
    addr: SocketAddr,
    runner: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    fn start() -> io::Result<Daemon> {
        let server = Server::bind(ServerConfig {
            threads: WORKERS,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?;
        Ok(Daemon {
            addr,
            runner: Some(thread::spawn(move || server.run())),
        })
    }

    /// Asks the daemon to drain and waits for it.
    fn stop(mut self) -> io::Result<()> {
        let mut client = Client::connect(self.addr)?;
        client.send("(shutdown)")?;
        let bye = client.recv()?;
        if !bye.contains("\"type\": \"bye\"") {
            return Err(io::Error::other(format!(
                "unexpected shutdown reply: {bye}"
            )));
        }
        match self.runner.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("daemon thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(runner) = self.runner.take() {
            if let Ok(mut s) = TcpStream::connect(self.addr) {
                let _ = s.write_all(b"(shutdown)\n");
            }
            let _ = runner.join();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// One write per line: a split newline stalls on Nagle + delayed ACK.
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        Ok(line.trim_end().to_owned())
    }
}

/// A started daemon with the session's client connected and pinged.
struct Live {
    daemon: Daemon,
    client: Client,
}

impl Live {
    fn start() -> io::Result<Live> {
        let daemon = Daemon::start()?;
        let mut client = Client::connect(daemon.addr)?;
        client.send("(ping)")?;
        let pong = client.recv()?;
        if !pong.contains("\"type\": \"pong\"") {
            return Err(io::Error::other(format!("unexpected ping reply: {pong}")));
        }
        Ok(Live { daemon, client })
    }

    /// The daemon's `(stats)` line, then a drained shutdown.
    fn finish(mut self) -> io::Result<String> {
        self.client.send("(stats)")?;
        let stats = self.client.recv()?;
        drop(self.client);
        self.daemon.stop()?;
        Ok(stats)
    }
}

/// One request's timings and answer.
struct Reply {
    /// Send to ack (or to the error line when there is no ack).
    ack: f64,
    /// Send to the first obligation line.
    first_obligation: Option<f64>,
    /// Send to the verdict or error line.
    total: f64,
    /// The answer read off the final line, or the line itself when it is
    /// neither a verdict nor a `check-failed` error.
    answer: Result<Verdict, String>,
    /// Whether the ack names exactly `Audit` as changed.
    audit_diff: bool,
}

fn check(client: &mut Client, body: &str, base: Option<u64>) -> io::Result<Reply> {
    let base = base.map_or(String::new(), |b| format!(" (base \"{b:016x}\")"));
    let t = Instant::now();
    client.send(&format!("(check (budget {BUDGET}){base} {body})"))?;
    let first = client.recv()?;
    let ack = t.elapsed().as_secs_f64();
    let audit_diff = first.contains("\"changed_actions\": [\"Audit\"]");
    let mut first_obligation = None;
    let last = if first.contains("\"type\": \"ack\"") {
        loop {
            let line = client.recv()?;
            if !line.contains("\"type\": \"obligation\"") {
                break line;
            }
            first_obligation.get_or_insert_with(|| t.elapsed().as_secs_f64());
        }
    } else {
        first
    };
    let total = t.elapsed().as_secs_f64();
    Ok(Reply {
        ack,
        first_obligation,
        total,
        answer: verdict_of(&last).ok_or(last),
        audit_diff,
    })
}

// Field extraction for the daemon's flat JSON lines (the nested `report`
// object comes last and repeats none of the keys probed before it).

fn field_str(line: &str, key: &str) -> Option<String> {
    let probe = format!("\"{key}\": \"");
    let start = line.find(&probe)? + probe.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let probe = format!("\"{key}\": ");
    let rest = &line[line.find(&probe)? + probe.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let probe = format!("\"{key}\": ");
    let rest = &line[line.find(&probe)? + probe.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Known answers
// ---------------------------------------------------------------------------

const REPORT_FIELDS: [&str; 7] = [
    "reachable_configs",
    "edges",
    "target_inputs",
    "invariant_transitions",
    "induction_steps",
    "eliminated_actions",
    "universe_stores",
];

fn report_fields(r: &IsReport) -> [usize; 7] {
    [
        r.reachable_configs,
        r.edges,
        r.target_inputs,
        r.invariant_transitions,
        r.induction_steps,
        r.eliminated_actions,
        r.universe_stores,
    ]
}

/// What the daemon must answer for a program. A failing premise's message
/// is not compared: a cache-served failure replays the message of the run
/// that first computed it, and only its verdict and premise are promised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A verdict line: pass/fail, the first violated premise, and the
    /// report's deterministic counts.
    Checked {
        /// Whether every premise held.
        passed: bool,
        /// The first violated premise, if any.
        premise: Option<String>,
        /// The report counts, in [`REPORT_FIELDS`] order.
        counts: Vec<u64>,
    },
    /// A `check-failed` error line with this message.
    Rejected(String),
}

/// The daemon's answer read off its final line.
fn verdict_of(last: &str) -> Option<Verdict> {
    if last.contains("\"type\": \"verdict\"") {
        let passed = field_bool(last, "passed")?;
        let counts = REPORT_FIELDS
            .iter()
            .map(|k| field_u64(last, k))
            .collect::<Option<Vec<u64>>>()?;
        Some(Verdict::Checked {
            passed,
            premise: if passed {
                None
            } else {
                field_str(last, "premise")
            },
            counts,
        })
    } else if field_str(last, "reason").as_deref() == Some("check-failed") {
        Some(Verdict::Rejected(field_str(last, "message")?))
    } else {
        None
    }
}

/// The uncached in-process answer: `check_incremental` on a fresh cache,
/// keyed exactly as the daemon keys it.
#[must_use]
pub fn reference(spec: &ProgramSpec, engine: &Engine) -> Verdict {
    let built = match spec.build() {
        Ok(b) => b,
        Err(e) => return Verdict::Rejected(format!("does not build: {e}")),
    };
    let mut action_keys: BTreeMap<ActionName, u64> = BTreeMap::new();
    for name in built.program.action_names() {
        if let Some(action) = spec.action(name.as_str()) {
            action_keys.insert(name.clone(), action_hash(action));
        }
    }
    let keys = ArtifactKeys::mechanical(canonical_hash(spec), action_keys, built.program.main());
    let app = mechanical_application(&built.program, built.init.clone(), BUDGET);
    match app.check_incremental(engine, &ObligationCache::new(), &keys, &|_| {}) {
        Ok(rep) => Verdict::Checked {
            passed: rep.all_passed(),
            premise: rep.failure.as_ref().and_then(|f| f.premise.clone()),
            counts: report_fields(&rep.report)
                .iter()
                .map(|&n| n as u64)
                .collect(),
        },
        Err(v) => Verdict::Rejected(format!("{}: {v}", v.premise())),
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Resubmit,
    Edit,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "check cold",
            Kind::Resubmit => "check resubmit",
            Kind::Edit => "check edit",
        }
    }
}

/// A program a session submits, rendered once.
struct Program {
    spec: ProgramSpec,
    body: String,
    hash: u64,
}

impl Program {
    fn new(spec: ProgramSpec) -> Self {
        Program {
            body: write_spec_line(&spec),
            hash: canonical_hash(&spec),
            spec,
        }
    }
}

/// One request of a session.
struct Request {
    kind: Kind,
    program: usize,
    /// For an edit, the hash of the previous program of its base.
    base: Option<u64>,
    /// Whether the ack must name exactly `Audit` as changed: an edit of an
    /// earlier edit.
    audit_diff: bool,
}

/// A session's request stream, fixed by the seed: the first submission of
/// every base program in seeded order, then, up to `session_requests`,
/// identical resubmits of a seeded earlier program (every
/// `resubmit_every`-th request) and `Audit` edits with fresh seeded
/// constants. Edits visit the bases round-robin in a seeded order, so every
/// seed edits each base equally often and the session's cost does not
/// depend on the seed.
fn session(plan: &Plan, seed: u64, bases: &[ProgramSpec]) -> (Vec<Program>, Vec<Request>) {
    let mut rng = Rng::new(seed, "serve-edit");
    let mut order: Vec<usize> = (0..bases.len()).collect();
    rng.shuffle(&mut order);
    let mut programs = Vec::new();
    let mut requests = Vec::with_capacity(plan.session_requests);
    // Per base: the hash of its latest program, and whether that is an edit.
    let mut latest: Vec<(u64, bool)> = vec![(0, false); bases.len()];
    for base in order {
        let program = Program::new(bases[base].clone());
        latest[base] = (program.hash, false);
        programs.push(program);
        requests.push(Request {
            kind: Kind::Cold,
            program: programs.len() - 1,
            base: None,
            audit_diff: false,
        });
    }
    let mut edit_order: Vec<usize> = (0..bases.len()).collect();
    rng.shuffle(&mut edit_order);
    let mut edits = 0;
    let mut constants = HashSet::new();
    while requests.len() < plan.session_requests {
        if (requests.len() - bases.len() + 1).is_multiple_of(RESUBMIT_EVERY) {
            let program = rng.below(programs.len());
            requests.push(Request {
                kind: Kind::Resubmit,
                program,
                base: None,
                audit_diff: false,
            });
            continue;
        }
        let base = edit_order[edits % edit_order.len()];
        edits += 1;
        let value = loop {
            let v = (rng.next_u64() % 1_000_000) as i64;
            if constants.insert((base, v)) {
                break v;
            }
        };
        let program = Program::new(audited(&bases[base], value));
        let (previous, was_edit) = std::mem::replace(&mut latest[base], (program.hash, true));
        programs.push(program);
        requests.push(Request {
            kind: Kind::Edit,
            program: programs.len() - 1,
            base: Some(previous),
            audit_diff: was_edit,
        });
    }
    (programs, requests)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts, plan: &Plan, process_start: Instant) -> Outcome {
    let tracer = Tracer::new(process_start);
    let (ready, setup_s) = timed_setups(
        process_start,
        &tracer,
        opts.trace,
        || -> io::Result<(Vec<ProgramSpec>, Live)> {
            let specs = tracer.span("lang", "export specs", table1_specs);
            let live = tracer.span("serve", "start daemon", Live::start)?;
            Ok((specs.into_iter().map(|(_, spec)| spec).collect(), live))
        },
        |previous| {
            if let Ok((_, live)) = previous {
                let _ = live.finish();
            }
        },
    );
    let mut checker = Checker::default();
    let (bases, first) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            checker.record("set-up", vec![e.to_string()]);
            return Outcome {
                checker,
                metrics: Metrics::default(),
                tracer,
            };
        }
    };
    let (programs, requests) = session(plan, opts.seed, &bases);

    let mut live = Some(first);
    let mut replies: Vec<(usize, Reply)> = Vec::new();
    let mut request_wall = 0.0;
    let mut stats_line = String::new();
    let driven = drive(opts, &tracer, |_, _| {
        tracer.span("bench", "session", || {
            // Every session after the first starts a fresh daemon.
            let mut current = match live.take().map_or_else(Live::start, Ok) {
                Ok(l) => l,
                Err(e) => return checker.record("daemon start", vec![e.to_string()]),
            };
            let t = Instant::now();
            for (i, request) in requests.iter().enumerate() {
                let body = &programs[request.program].body;
                let kind = request.kind.name();
                match tracer.span("serve", kind, || {
                    check(&mut current.client, body, request.base)
                }) {
                    Ok(reply) => replies.push((i, reply)),
                    Err(e) => {
                        checker.record(kind, vec![e.to_string()]);
                        break;
                    }
                }
            }
            request_wall += t.elapsed().as_secs_f64();
            match current.finish() {
                Ok(line) => stats_line = line,
                Err(e) => checker.record("shutdown", vec![e.to_string()]),
            }
        });
    });

    // Known answers, computed after the timed loop so they cost it nothing.
    let engine = Engine::new().with_threads(WORKERS);
    let mut references: BTreeMap<usize, Verdict> = BTreeMap::new();
    tracer.set_run(u64::MAX);
    tracer.set_enabled(opts.trace);
    for (i, reply) in &replies {
        let request = &requests[*i];
        let want = references.entry(request.program).or_insert_with(|| {
            tracer.span("core.incr", "reference check", || {
                reference(&programs[request.program].spec, &engine)
            })
        });
        let mut problems = Vec::new();
        match &reply.answer {
            Ok(got) => expect_eq(&mut problems, "verdict", got, &*want),
            Err(line) => problems.push(format!("unexpected reply: {line}")),
        }
        if request.audit_diff && !reply.audit_diff {
            problems.push("edit ack does not name exactly `Audit` as changed".to_owned());
        }
        checker.record(request.kind.name(), problems);
    }
    tracer.set_enabled(false);

    let latency = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        replies
            .iter()
            .filter(|(i, _)| keep(requests[*i].kind))
            .map(|(_, r)| r.total * 1e3)
            .collect()
    };
    let all = latency(&|_| true);
    let mut metrics = Metrics::default();
    if opts.trace {
        let traced = traced_runs(&driven);
        let ms = |f: fn(&Reply) -> Option<f64>| -> Vec<f64> {
            replies
                .iter()
                .filter_map(|(_, r)| f(r))
                .map(|s| s * 1e3)
                .collect()
        };
        metrics.set("serve.ack_p50_ms", median(&ms(|r| Some(r.ack))));
        metrics.set("serve.ttfo_p50_ms", median(&ms(|r| r.first_obligation)));
        metrics.set(
            "serve.p50_ms.resubmit",
            median(&latency(&|k| k == Kind::Resubmit)),
        );
        metrics.set("serve.p50_ms.edit", median(&latency(&|k| k == Kind::Edit)));
        metrics.set("serve.cold_ms", median(&latency(&|k| k == Kind::Cold)));
        if let Some(t) = tail(&all) {
            metrics.set("serve.tail_ms", t.value);
            metrics.set("serve.tail_pct", t.percentile);
            metrics.set("serve.tail_samples", t.samples as f64);
        }
        let ratio = |hits: &str, misses: &str| {
            let h = field_u64(&stats_line, hits).unwrap_or(0) as f64;
            let m = field_u64(&stats_line, misses).unwrap_or(0) as f64;
            if h + m > 0.0 {
                h / (h + m)
            } else {
                0.0
            }
        };
        metrics.set(
            "core.incr.obligation_hit_ratio",
            ratio("obligation_cache_hits", "obligation_cache_misses"),
        );
        metrics.set(
            "core.incr.full_hit_ratio",
            ratio("full_cache_hits", "full_cache_misses"),
        );
        for (metric, key) in [
            ("core.incr.cached_obligations", "cached_obligations"),
            ("serve.known_programs", "known_programs"),
        ] {
            metrics.set(metric, field_u64(&stats_line, key).unwrap_or(0) as f64);
        }
        let setups = |run: u64| run == 0;
        metrics.set(
            "lang.build_s",
            tracer.total("lang", "export specs", setups) / crate::SETUP_REPEATS as f64,
        );
        trace_metrics(&mut metrics, &tracer, &driven, &traced);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("op_p50_ms", median(&all));
        metrics.set("work_per_s", replies.len() as f64 / request_wall);
    }
    Outcome {
        checker,
        metrics,
        tracer,
    }
}
