//! The daemon's wire protocol.
//!
//! Requests arrive one per line as s-expressions — the same canonical
//! format the fuzz corpus uses ([`inseq_lang::serial`]), so a corpus entry
//! or a `write_spec_line` rendering can be pasted into a `(check ..)`
//! envelope verbatim. Responses leave one per line as JSON objects built on
//! [`inseq_core::json`], so daemon verdict payloads and the `table1 --json`
//! bench rows share one serializer.
//!
//! ```text
//! → (ping)
//! ← {"type": "pong"}
//! → (check (id "req-1") (budget 4000) (spec (globals ..) (main ..) (pending ..) (action ..) ..))
//! ← {"type": "ack", "id": "req-1", "program": "7f3a..", "obligations": 9, ..}
//! ← {"type": "obligation", "id": "req-1", "label": "(I1) M ≼ I", "passed": true, "cached": false, ..}
//! ← ..
//! ← {"type": "verdict", "id": "req-1", "passed": true, "cached_obligations": 0, ..}
//! ```
//!
//! A `(check ..)` envelope accepts, in any order:
//!
//! * `(id "..")` — an opaque request label echoed on every response line;
//! * `(budget N)` — a per-request visited-configuration budget (clamped to
//!   the daemon's `--max-budget`);
//! * `(base "hex")` — the canonical hash of a previously submitted program;
//!   when known to the daemon, the ack reports the action-level diff;
//! * `(spec ..)` — the program, in the corpus format (required).
//!
//! The other requests are `(ping)`, `(stats)` and `(shutdown)`.

use inseq_core::incr::{IncrementalReport, ObligationOutcome};
use inseq_core::json;
use inseq_lang::serial::{parse_sexp, spec_of_sexp, SExp, SpecDiff};
use inseq_lang::spec::ProgramSpec;

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Cache and load counters.
    Stats,
    /// Drain in-flight work and exit.
    Shutdown,
    /// Verify a program.
    Check(CheckRequest),
}

/// The payload of a `(check ..)` envelope.
#[derive(Debug)]
pub struct CheckRequest {
    /// Client-chosen label echoed on every response line.
    pub id: Option<String>,
    /// Requested visited-configuration budget.
    pub budget: Option<usize>,
    /// Canonical hash of a previously submitted program to diff against.
    pub base: Option<u64>,
    /// The program itself.
    pub spec: ProgramSpec,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed lines; the server sends
/// it back as an `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let root = parse_sexp(line).map_err(|e| e.to_string())?;
    match root.head() {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("check") => parse_check(&root).map(Request::Check),
        Some(other) => Err(format!(
            "unknown request `{other}` (expected ping, stats, shutdown or check)"
        )),
        None => Err("expected a (request ..) form".to_owned()),
    }
}

fn parse_check(root: &SExp) -> Result<CheckRequest, String> {
    let mut id = None;
    let mut budget = None;
    let mut base = None;
    let mut spec = None;
    for section in &root.items()[1..] {
        match section.head() {
            Some("id") => {
                let [value] = &section.items()[1..] else {
                    return Err("(id ..) takes exactly one value".to_owned());
                };
                id = Some(
                    value
                        .as_text()
                        .ok_or("(id ..) takes a string or atom")?
                        .to_owned(),
                );
            }
            Some("budget") => {
                let [value] = &section.items()[1..] else {
                    return Err("(budget ..) takes exactly one value".to_owned());
                };
                let text = value.as_atom().ok_or("(budget ..) takes an integer")?;
                budget = Some(
                    text.parse::<usize>()
                        .map_err(|_| format!("invalid budget `{text}`"))?,
                );
            }
            Some("base") => {
                let [value] = &section.items()[1..] else {
                    return Err("(base ..) takes exactly one value".to_owned());
                };
                let text = value.as_text().ok_or("(base ..) takes a hex hash")?;
                base = Some(
                    u64::from_str_radix(text, 16)
                        .map_err(|_| format!("invalid base hash `{text}`"))?,
                );
            }
            Some("spec") => {
                spec = Some(spec_of_sexp(section).map_err(|e| e.to_string())?);
            }
            Some(other) => return Err(format!("unknown (check ..) section `{other}`")),
            None => return Err("(check ..) sections must be lists".to_owned()),
        }
    }
    Ok(CheckRequest {
        id,
        budget,
        base,
        spec: spec.ok_or("(check ..) requires a (spec ..) section")?,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!("\"id\": {}, ", json::string(id)),
        None => String::new(),
    }
}

/// `{"type": "pong"}`.
#[must_use]
pub fn pong() -> String {
    "{\"type\": \"pong\"}".to_owned()
}

/// `{"type": "bye"}` — acknowledges a shutdown request.
#[must_use]
pub fn bye() -> String {
    "{\"type\": \"bye\"}".to_owned()
}

/// An `error` response. `reason` is a stable machine-readable tag
/// (`"bad-request"`, `"over-capacity"`, `"shutting-down"`, `"check-failed"`).
#[must_use]
pub fn error(id: Option<&str>, reason: &str, message: &str) -> String {
    format!(
        "{{\"type\": \"error\", {}\"reason\": {}, \"message\": {}}}",
        id_field(id),
        json::string(reason),
        json::string(message),
    )
}

/// The `ack` sent before a check's obligations stream: the program's
/// canonical hash, the obligation count, the effective budget, and — when a
/// known `(base ..)` was supplied — the action-level diff against it.
#[must_use]
pub fn ack(
    id: Option<&str>,
    program: u64,
    obligations: usize,
    budget: usize,
    diff: Option<&SpecDiff>,
) -> String {
    let diff_fields = match diff {
        None => String::new(),
        Some(d) => {
            let changed: Vec<String> = d.changed_actions.iter().map(|a| json::string(a)).collect();
            format!(
                ", \"changed_actions\": [{}], \"globals_changed\": {}, \
                 \"main_changed\": {}, \"pending_changed\": {}",
                changed.join(", "),
                d.globals_changed,
                d.main_changed,
                d.pending_changed,
            )
        }
    };
    format!(
        "{{\"type\": \"ack\", {}\"program\": \"{program:016x}\", \
         \"obligations\": {obligations}, \"budget\": {budget}{diff_fields}}}",
        id_field(id),
    )
}

/// One streamed obligation outcome.
#[must_use]
pub fn obligation(id: Option<&str>, o: &ObligationOutcome) -> String {
    let mut out = format!(
        "{{\"type\": \"obligation\", {}\"label\": {}, \"passed\": {}, \
         \"cached\": {}, \"wall_seconds\": {:.6}",
        id_field(id),
        json::string(&o.kind.label()),
        o.passed,
        o.cached,
        o.wall.as_secs_f64(),
    );
    if let Some(premise) = &o.premise {
        out.push_str(&format!(", \"premise\": {}", json::string(premise)));
    }
    if let Some(message) = &o.message {
        out.push_str(&format!(", \"message\": {}", json::string(message)));
    }
    out.push('}');
    out
}

/// The final `verdict` line of a check: overall pass/fail, cache usage, the
/// first violated premise (if any) and the full
/// [`IsReport`](inseq_core::IsReport) rendering.
#[must_use]
pub fn verdict(id: Option<&str>, rep: &IncrementalReport) -> String {
    let cached = rep.outcomes.iter().filter(|o| o.cached).count();
    let mut out = format!(
        "{{\"type\": \"verdict\", {}\"passed\": {}, \"obligations\": {}, \
         \"cached_obligations\": {}, \"full_cache_hit\": {}",
        id_field(id),
        rep.all_passed(),
        rep.outcomes.len(),
        cached,
        rep.full_hit,
    );
    if let Some(failure) = &rep.failure {
        out.push_str(&format!(
            ", \"failed_label\": {}, \"premise\": {}, \"message\": {}",
            json::string(&failure.kind.label()),
            json::string(failure.premise.as_deref().unwrap_or("")),
            json::string(failure.message.as_deref().unwrap_or("")),
        ));
    }
    out.push_str(&format!(", \"report\": {}}}", json::is_report(&rep.report)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_check_requests_parse() {
        assert!(matches!(parse_request("(ping)"), Ok(Request::Ping)));
        assert!(matches!(parse_request("(stats)"), Ok(Request::Stats)));
        assert!(matches!(parse_request("(shutdown)"), Ok(Request::Shutdown)));
        assert!(parse_request("(reboot)").is_err());
        assert!(parse_request("ping").is_err());
    }

    #[test]
    fn check_envelope_round_trips_a_spec() {
        let line = "(check (id \"r1\") (budget 123) (base \"00000000000000ff\") \
                    (spec (globals (\"x\" int (i 0))) (main \"Main\") (pending (\"Main\")) \
                    (action \"Main\" () () ((assign \"x\" (const (i 1)))))))";
        let Request::Check(req) = parse_request(line).expect("parses") else {
            panic!("not a check request");
        };
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.budget, Some(123));
        assert_eq!(req.base, Some(0xff));
        assert_eq!(req.spec.main, "Main");
        assert_eq!(req.spec.actions.len(), 1);
    }

    #[test]
    fn error_lines_escape_messages() {
        let line = error(Some("a\"b"), "bad-request", "broken \"here\"\nthere");
        assert_eq!(
            line,
            "{\"type\": \"error\", \"id\": \"a\\\"b\", \"reason\": \"bad-request\", \
             \"message\": \"broken \\\"here\\\"\\nthere\"}"
        );
    }
}
