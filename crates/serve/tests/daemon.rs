//! End-to-end tests of the verification daemon over real TCP connections:
//! verdict bit-equality against batch [`IsApplication::check`] on the
//! Table-1 protocols, whole-run cache hits on resubmission,
//! footprint-incremental re-checking after an edit, bounded multi-tenant
//! concurrency, a bounded number of connections, drain-on-shutdown, and
//! rejection of malformed request lines.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use inseq_core::{mechanical_application, IsViolation};
use inseq_fuzz::corpus::table1_specs;
use inseq_kernel::Value;
use inseq_lang::serial::{canonical_hash, write_spec_line};
use inseq_lang::spec::{ActionSpec, ProgramSpec, SpecStmt};
use inseq_lang::{Expr, Sort};
use inseq_serve::{Server, ServerConfig, ServerState, MAX_CONNECTIONS, MAX_REQUEST_LINE};

const BUDGET: usize = 4_000;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Daemon {
    addr: std::net::SocketAddr,
    state: std::sync::Arc<ServerState>,
    runner: Option<thread::JoinHandle<std::io::Result<()>>>,
}

fn start(config: ServerConfig) -> Daemon {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let state = server.state();
    let runner = thread::spawn(move || server.run());
    Daemon {
        addr,
        state,
        runner: Some(runner),
    }
}

impl Daemon {
    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
        }
    }

    fn shutdown_and_join(mut self) {
        let mut c = self.connect();
        c.send("(shutdown)");
        let bye = c.recv();
        assert!(bye.contains("\"type\": \"bye\""), "unexpected: {bye}");
        self.runner
            .take()
            .expect("runner")
            .join()
            .expect("run thread panicked")
            .expect("run failed");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(runner) = self.runner.take() {
            let _ = TcpStream::connect(self.addr).map(|mut s| {
                let _ = s.write_all(b"(shutdown)\n");
            });
            let _ = runner.join();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "connection closed early");
        line.trim_end().to_owned()
    }

    /// Sends a `(check ..)` and reads until the `verdict` or `error` line,
    /// returning `(ack, obligation lines, final line)`.
    fn check(&mut self, id: &str, spec: &ProgramSpec, base: Option<u64>) -> CheckOutcome {
        let base_section = base.map_or(String::new(), |b| format!(" (base \"{b:016x}\")"));
        self.send(&format!(
            "(check (id \"{id}\") (budget {BUDGET}){base_section} {})",
            write_spec_line(spec)
        ));
        let first = self.recv();
        if field_str(&first, "reason").is_some() {
            return CheckOutcome {
                ack: None,
                obligations: Vec::new(),
                last: first,
            };
        }
        assert!(first.contains("\"type\": \"ack\""), "expected ack: {first}");
        let mut obligations = Vec::new();
        loop {
            let line = self.recv();
            if line.contains("\"type\": \"obligation\"") {
                obligations.push(line);
            } else {
                return CheckOutcome {
                    ack: Some(first),
                    obligations,
                    last: line,
                };
            }
        }
    }
}

struct CheckOutcome {
    ack: Option<String>,
    obligations: Vec<String>,
    last: String,
}

impl CheckOutcome {
    fn is_verdict(&self) -> bool {
        self.last.contains("\"type\": \"verdict\"")
    }

    /// Map from obligation label to its `cached` flag.
    fn cached_by_label(&self) -> BTreeMap<String, bool> {
        self.obligations
            .iter()
            .map(|l| {
                (
                    field_str(l, "label").expect("label"),
                    field_bool(l, "cached").expect("cached"),
                )
            })
            .collect()
    }
}

// Minimal JSON field extraction for the flat response lines the daemon
// emits (no nested objects before the probed key except `report`, which is
// always last).

fn field_str(line: &str, key: &str) -> Option<String> {
    let probe = format!("\"{key}\": \"");
    let start = line.find(&probe)? + probe.len();
    let bytes = line[start..].chars().collect::<Vec<char>>();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            '"' => return Some(out),
            '\\' => {
                i += 1;
                match bytes.get(i)? {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let code: String = bytes.get(i + 1..i + 5)?.iter().collect();
                        out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                        i += 4;
                    }
                    c => out.push(*c),
                }
            }
            c => out.push(c),
        }
        i += 1;
    }
    None
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let probe = format!("\"{key}\": ");
    let start = line.find(&probe)? + probe.len();
    line[start..]
        .strip_prefix("true")
        .map(|_| true)
        .or_else(|| line[start..].strip_prefix("false").map(|_| false))
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let probe = format!("\"{key}\": ");
    let start = line.find(&probe)? + probe.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The batch reference verdict for a spec under the mechanical application.
#[allow(clippy::result_large_err)] // mirrors IsApplication::check's signature
fn batch_verdict(spec: &ProgramSpec) -> Result<inseq_core::IsReport, IsViolation> {
    let built = spec.build().expect("spec builds");
    mechanical_application(&built.program, built.init.clone(), BUDGET).check()
}

fn assert_matches_batch(
    name: &str,
    outcome: &CheckOutcome,
    expected: &Result<inseq_core::IsReport, IsViolation>,
) {
    match expected {
        Ok(report) => {
            assert!(
                outcome.is_verdict(),
                "{name}: expected verdict, got {}",
                outcome.last
            );
            assert_eq!(
                field_bool(&outcome.last, "passed"),
                Some(true),
                "{name}: batch passed but daemon failed: {}",
                outcome.last
            );
            for (key, value) in [
                ("reachable_configs", report.reachable_configs),
                ("edges", report.edges),
                ("target_inputs", report.target_inputs),
                ("invariant_transitions", report.invariant_transitions),
                ("induction_steps", report.induction_steps),
                ("eliminated_actions", report.eliminated_actions),
                ("universe_stores", report.universe_stores),
            ] {
                assert_eq!(
                    field_u64(&outcome.last, key),
                    Some(value as u64),
                    "{name}: report field {key} differs: {}",
                    outcome.last
                );
            }
        }
        Err(v) if matches!(v.premise(), "structural" | "exploration") => {
            assert!(
                field_str(&outcome.last, "reason").as_deref() == Some("check-failed"),
                "{name}: expected check-failed error, got {}",
                outcome.last
            );
        }
        Err(v) => {
            assert!(
                outcome.is_verdict(),
                "{name}: expected verdict, got {}",
                outcome.last
            );
            assert_eq!(
                field_bool(&outcome.last, "passed"),
                Some(false),
                "{name}: batch failed but daemon passed"
            );
            assert_eq!(
                field_str(&outcome.last, "premise").as_deref(),
                Some(v.premise()),
                "{name}: first violated premise differs"
            );
            assert_eq!(
                field_str(&outcome.last, "message").as_deref(),
                Some(v.to_string().as_str()),
                "{name}: violation message differs"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The 2PC + independent-audit program used by the incremental tests
// ---------------------------------------------------------------------------

fn two_phase_commit_spec() -> ProgramSpec {
    table1_specs()
        .into_iter()
        .find(|(name, _)| *name == "two_phase_commit")
        .expect("2pc in corpus")
        .1
}

/// 2PC extended with an `Audit` action whose footprint is the fresh
/// `audit` global and nothing else — footprint-disjoint from every other
/// action.
fn audited_two_phase_commit(audit_value: i64) -> ProgramSpec {
    let mut spec = two_phase_commit_spec();
    spec.globals
        .push(("audit".to_owned(), Sort::Int, Value::Int(0)));
    spec.pending.push(("Audit".to_owned(), Vec::new()));
    spec.actions.push(ActionSpec {
        name: "Audit".to_owned(),
        params: Vec::new(),
        locals: Vec::new(),
        body: vec![SpecStmt::Assign(
            "audit".to_owned(),
            Expr::Const(Value::Int(audit_value)),
        )],
    });
    spec
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn daemon_verdicts_match_batch_check_on_all_table1_protocols() {
    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();
    for (name, spec) in table1_specs() {
        let expected = batch_verdict(&spec);
        let outcome = client.check(name, &spec, None);
        assert_matches_batch(name, &outcome, &expected);
    }
    daemon.shutdown_and_join();
}

#[test]
fn identical_resubmission_is_served_entirely_from_cache() {
    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();
    let spec = two_phase_commit_spec();

    let first = client.check("cold", &spec, None);
    assert!(first.is_verdict(), "cold: {}", first.last);
    assert_eq!(field_bool(&first.last, "full_cache_hit"), Some(false));
    let full = daemon.state.cache().full_stats();
    assert_eq!((full.hits, full.misses), (0, 1));

    let second = client.check("warm", &spec, None);
    assert!(second.is_verdict(), "warm: {}", second.last);
    assert_eq!(
        field_bool(&second.last, "full_cache_hit"),
        Some(true),
        "second identical submission must be a whole-run cache hit: {}",
        second.last
    );
    assert!(
        second.cached_by_label().values().all(|&cached| cached),
        "every obligation of the warm run must be cache-served"
    );
    let full = daemon.state.cache().full_stats();
    assert_eq!((full.hits, full.misses), (1, 1));

    // Same verdict and counts both times.
    assert_eq!(
        field_bool(&first.last, "passed"),
        field_bool(&second.last, "passed")
    );
    for key in ["reachable_configs", "edges", "universe_stores"] {
        assert_eq!(field_u64(&first.last, key), field_u64(&second.last, key));
    }

    // Statistics belong to the run that produced them: the cold run
    // explored and ran the mover, the warm run ran nothing.
    let lookups = |line: &str, prefix: &str| {
        field_u64(line, &format!("{prefix}_hits")).expect("hits")
            + field_u64(line, &format!("{prefix}_misses")).expect("misses")
    };
    assert!(lookups(&first.last, "mover_cache") > 0, "{}", first.last);
    assert!(lookups(&first.last, "intern") > 0, "{}", first.last);
    assert_eq!(lookups(&second.last, "mover_cache"), 0, "{}", second.last);
    assert_eq!(lookups(&second.last, "intern"), 0, "{}", second.last);
    assert_eq!(field_u64(&second.last, "pairwise_checks"), Some(0));
    let premises = &second.last[second.last.find("\"premises\": ").expect("premises")..];
    let walls: Vec<&str> = premises
        .split("\"wall_seconds\": ")
        .skip(1)
        .map(|rest| rest.split(',').next().expect("wall value"))
        .collect();
    assert_eq!(
        walls.len(),
        second.obligations.len() + 1,
        "explore plus one phase per obligation: {}",
        second.last
    );
    assert!(
        walls.iter().all(|w| *w == "0.000000"),
        "a full cache hit reports zero premise walls: {}",
        second.last
    );
    daemon.shutdown_and_join();
}

#[test]
fn footprint_disjoint_edit_rechecks_only_intersecting_obligations() {
    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();

    let v1 = audited_two_phase_commit(1);
    let v2 = audited_two_phase_commit(2);
    let v1_hash = canonical_hash(&v1);

    let cold = client.check("v1", &v1, None);
    assert!(cold.is_verdict(), "v1: {}", cold.last);
    assert!(
        cold.cached_by_label().values().all(|&cached| !cached),
        "cold run must compute everything"
    );

    // The edit touches only `Audit`, whose footprint is the fresh `audit`
    // global: disjoint from every other action.
    let edited = client.check("v2", &v2, Some(v1_hash));
    assert!(edited.is_verdict(), "v2: {}", edited.last);
    let ack = edited.ack.as_ref().expect("ack");
    assert!(
        ack.contains("\"changed_actions\": [\"Audit\"]"),
        "diff names exactly the edited action: {ack}"
    );
    assert_eq!(field_bool(&edited.last, "full_cache_hit"), Some(false));

    // Obligations that must re-run: the three per-action obligations of the
    // edited action, plus (I3), whose induction step evaluates the
    // abstraction of any eliminated action the choice function picks.
    let recheck = ["Audit ≼ α", "(LM) Audit", "(CO) Audit", "(I3) induction"];
    for (label, cached) in edited.cached_by_label() {
        let expect_fresh = recheck.contains(&label.as_str());
        assert_eq!(
            cached,
            !expect_fresh,
            "obligation `{label}` should be {}",
            if expect_fresh {
                "re-discharged"
            } else {
                "cache-served"
            }
        );
    }

    // And the verdict still agrees with a from-scratch batch check of v2.
    let expected = batch_verdict(&v2);
    assert_matches_batch("v2-vs-batch", &edited, &expected);
    daemon.shutdown_and_join();
}

#[test]
fn concurrent_clients_get_isolated_correct_responses() {
    let daemon = start(ServerConfig {
        capacity: 4,
        ..ServerConfig::default()
    });
    let picks = [
        "ping_pong",
        "producer_consumer",
        "two_phase_commit",
        "chang_roberts",
    ];
    let specs: Vec<(String, ProgramSpec)> = table1_specs()
        .into_iter()
        .filter(|(name, _)| picks.contains(name))
        .map(|(name, spec)| (name.to_owned(), spec))
        .collect();
    assert_eq!(specs.len(), 4);

    thread::scope(|scope| {
        for (name, spec) in &specs {
            let daemon = &daemon;
            scope.spawn(move || {
                let mut client = daemon.connect();
                let outcome = client.check(name, spec, None);
                // Every line of this connection's stream carries this
                // request's id: no cross-request interference.
                for line in outcome.obligations.iter().chain([&outcome.last]) {
                    assert_eq!(
                        field_str(line, "id").as_deref(),
                        Some(name.as_str()),
                        "foreign id on: {line}"
                    );
                }
                let expected = batch_verdict(spec);
                assert_matches_batch(name, &outcome, &expected);
            });
        }
    });
    assert_eq!(daemon.state.checks_served(), 4);
    daemon.shutdown_and_join();
}

#[test]
fn over_capacity_checks_are_rejected_gracefully() {
    // Capacity zero makes every check land on the rejection path
    // deterministically.
    let daemon = start(ServerConfig {
        capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = daemon.connect();
    let outcome = client.check("rejected", &two_phase_commit_spec(), None);
    assert_eq!(
        field_str(&outcome.last, "reason").as_deref(),
        Some("over-capacity"),
        "expected a graceful rejection: {}",
        outcome.last
    );
    // The connection stays usable for non-check requests.
    client.send("(ping)");
    assert!(client.recv().contains("\"type\": \"pong\""));
    assert_eq!(daemon.state.checks_rejected(), 1);
    daemon.shutdown_and_join();
}

#[test]
fn connections_past_the_cap_are_refused_until_a_slot_frees() {
    let mut daemon = start(ServerConfig::default());
    // Fill every slot; a served ping proves each connection holds one.
    let mut clients: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut c = daemon.connect();
            c.send("(ping)");
            assert!(c.recv().contains("\"type\": \"pong\""));
            c
        })
        .collect();
    // One more gets a single over-capacity line, then the daemon closes it.
    let mut extra = daemon.connect();
    let refusal = extra.recv();
    assert_eq!(
        field_str(&refusal, "reason").as_deref(),
        Some("over-capacity"),
        "expected a refusal: {refusal}"
    );
    let mut rest = String::new();
    assert_eq!(extra.reader.read_line(&mut rest).expect("read to close"), 0);
    // The open connections are still served, and `(stats)` counts the
    // refusal.
    clients[0].send("(ping)");
    assert!(clients[0].recv().contains("\"type\": \"pong\""));
    clients[0].send("(stats)");
    let stats = clients[0].recv();
    assert_eq!(field_u64(&stats, "connections_refused"), Some(1), "{stats}");
    assert_eq!(daemon.state.connections_refused(), 1);
    // A client that disconnects frees its slot once its thread sees the
    // close; until then a new connection may still be refused.
    drop(clients.pop());
    let mut served = false;
    let mut refusals_seen = 1;
    for _ in 0..100 {
        let mut c = daemon.connect();
        c.send("(ping)");
        let mut reply = String::new();
        match c.reader.read_line(&mut reply) {
            Ok(_) if reply.contains("\"type\": \"pong\"") => {
                served = true;
                clients.push(c);
                break;
            }
            // Closed, or reset because the refused ping went unread.
            Ok(0) | Err(_) => {}
            Ok(_) => {
                assert_eq!(
                    field_str(&reply, "reason").as_deref(),
                    Some("over-capacity")
                );
                refusals_seen += 1;
            }
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "no slot freed after a client disconnected");
    // Each refusal line is counted; a retry closed or reset before its
    // line was read may have been refused too.
    assert!(daemon.state.connections_refused() >= refusals_seen);
    // Every slot is taken again, so shut down over a connection that holds
    // one.
    clients[0].send("(shutdown)");
    assert!(clients[0].recv().contains("\"type\": \"bye\""));
    drop(clients);
    drop(extra);
    daemon
        .runner
        .take()
        .expect("runner")
        .join()
        .expect("run thread panicked")
        .expect("run failed");
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();
    // A full check before shutdown still completes.
    let outcome = client.check("pre-shutdown", &two_phase_commit_spec(), None);
    assert!(outcome.is_verdict() || field_str(&outcome.last, "reason").is_some());
    daemon.shutdown_and_join();
}

/// Sends raw bytes (no trailing newline added) on a client connection.
fn send_raw(client: &mut Client, bytes: &[u8]) {
    client.stream.write_all(bytes).expect("send");
}

#[test]
fn over_long_request_line_is_rejected_and_the_connection_survives() {
    // The cap must leave real programs far behind.
    let longest = table1_specs()
        .iter()
        .map(|(_, spec)| write_spec_line(spec).len())
        .max()
        .expect("table 1 is not empty");
    assert!(
        longest * 64 < MAX_REQUEST_LINE,
        "longest Table-1 line ({longest} bytes) is too close to the cap"
    );

    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();
    // Twice the cap, sent in pieces, then the terminating newline.
    let piece = vec![b'x'; 64 * 1024];
    for _ in 0..(2 * MAX_REQUEST_LINE / piece.len()) {
        send_raw(&mut client, &piece);
    }
    send_raw(&mut client, b"\n");
    let rejected = client.recv();
    assert_eq!(
        field_str(&rejected, "reason").as_deref(),
        Some("bad-request"),
        "expected a bad-request error: {rejected}"
    );
    // The rest of the over-long line was skipped, not parsed as requests.
    client.send("(ping)");
    let pong = client.recv();
    assert!(pong.contains("\"type\": \"pong\""), "unexpected: {pong}");
    daemon.shutdown_and_join();
}

#[test]
fn non_utf8_request_line_is_rejected_and_the_connection_survives() {
    let daemon = start(ServerConfig::default());
    let mut client = daemon.connect();
    send_raw(&mut client, b"(ping \xff\xfe)\n");
    let rejected = client.recv();
    assert_eq!(
        field_str(&rejected, "reason").as_deref(),
        Some("bad-request"),
        "expected a bad-request error: {rejected}"
    );
    client.send("(ping)");
    let pong = client.recv();
    assert!(pong.contains("\"type\": \"pong\""), "unexpected: {pong}");
    daemon.shutdown_and_join();
}
