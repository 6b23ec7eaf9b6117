//! Corpus-entry metadata: the `;@ key value` header block.
//!
//! Every line of a corpus file starting with `;@` is a metadata directive.
//! To the s-expression parser these are ordinary comments, so files with
//! and without metadata parse identically; [`ReplayMeta`] reads them
//! separately and the `fuzz --replay` path uses them as a staleness gate —
//! a replayed entry must reproduce the verdict, visited-configuration
//! count, witness-trace length, and coverage signature recorded when the
//! entry was promoted.
//!
//! The directives:
//!
//! ```text
//! ;@ seed 42            RNG seed of the campaign iteration (required
//!                       whenever any other directive is present)
//! ;@ kind generated     generated | mutated | protocol
//! ;@ oracle reduce      the oracle that disagreed, for repro entries
//! ;@ verdict pass       pass | failure | deadlock | over-budget |
//!                       build-error | disagreement
//! ;@ visited 123        sequential exploration configuration count
//! ;@ trace-len 4        shortest witness trace length (0 when none)
//! ;@ coverage a1b2…     16-hex-digit coverage signature
//! ```
//!
//! A malformed directive (unknown key, missing or non-numeric value) is a
//! [`MetaError`], not a panic: `fuzz --replay` reports it and exits 2.

use std::fmt;
use std::time::Duration;

use inseq_kernel::Explorer;

use crate::coverage::{measure_battery, MeasureOptions};
use inseq_lang::spec::ProgramSpec;

/// Parsed `;@` metadata of one corpus entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayMeta {
    /// Campaign RNG seed that produced the entry.
    pub seed: Option<u64>,
    /// How the entry came to be: `generated`, `mutated`, or `protocol`.
    pub kind: Option<String>,
    /// The disagreeing oracle, for repro entries.
    pub oracle: Option<String>,
    /// Recorded verdict class.
    pub verdict: Option<String>,
    /// Recorded sequential visited-configuration count.
    pub visited: Option<usize>,
    /// Recorded shortest witness trace length.
    pub trace_len: Option<usize>,
    /// Recorded coverage signature (16 hex digits).
    pub coverage: Option<String>,
}

/// A malformed `;@` directive.
#[derive(Debug)]
pub struct MetaError {
    /// 1-based line number of the offending directive.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metadata error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MetaError {}

impl ReplayMeta {
    /// Extracts the metadata block from corpus-file text.
    ///
    /// Lines not starting with `;@` are ignored. An empty result (no
    /// directives at all) is [`ReplayMeta::default`], not an error.
    ///
    /// # Errors
    ///
    /// Returns a [`MetaError`] for an unknown key, a directive without a
    /// value, or a numeric field that does not parse.
    pub fn parse(text: &str) -> Result<ReplayMeta, MetaError> {
        let mut meta = ReplayMeta::default();
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let Some(rest) = line.trim_start().strip_prefix(";@") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let Some(key) = parts.next() else {
                return Err(MetaError {
                    line: line_no,
                    message: "`;@` directive without a key".into(),
                });
            };
            let Some(value) = parts.next() else {
                return Err(MetaError {
                    line: line_no,
                    message: format!("`;@ {key}` is missing its value"),
                });
            };
            let num = |field: &str| -> Result<usize, MetaError> {
                value.parse().map_err(|_| MetaError {
                    line: line_no,
                    message: format!("`;@ {field}` value `{value}` is not a number"),
                })
            };
            match key {
                "seed" => {
                    meta.seed = Some(value.parse().map_err(|_| MetaError {
                        line: line_no,
                        message: format!("`;@ seed` value `{value}` is not a number"),
                    })?);
                }
                "kind" => meta.kind = Some(value.to_owned()),
                "oracle" => meta.oracle = Some(value.to_owned()),
                "verdict" => meta.verdict = Some(value.to_owned()),
                "visited" => meta.visited = Some(num("visited")?),
                "trace-len" => meta.trace_len = Some(num("trace-len")?),
                "coverage" => meta.coverage = Some(value.to_owned()),
                other => {
                    return Err(MetaError {
                        line: line_no,
                        message: format!("unknown metadata key `{other}`"),
                    });
                }
            }
        }
        Ok(meta)
    }

    /// `true` when no directive was present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == ReplayMeta::default()
    }

    /// The seed, or a diagnostic explaining that this entry's metadata
    /// block is incomplete — replay verification cannot run without it.
    ///
    /// # Errors
    ///
    /// Returns a [`MetaError`] when the block has directives but no seed.
    pub fn require_seed(&self) -> Result<u64, MetaError> {
        self.seed.ok_or_else(|| MetaError {
            line: 0,
            message: "corpus entry has metadata but no `;@ seed` directive; \
                      cannot verify the recorded run (re-promote the entry \
                      or delete its `;@` lines to replay unverified)"
                .into(),
        })
    }

    /// Renders the block as `;@` lines (empty string when [`is_empty`]).
    ///
    /// [`is_empty`]: ReplayMeta::is_empty
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(seed) = self.seed {
            out.push_str(&format!(";@ seed {seed}\n"));
        }
        if let Some(kind) = &self.kind {
            out.push_str(&format!(";@ kind {kind}\n"));
        }
        if let Some(oracle) = &self.oracle {
            out.push_str(&format!(";@ oracle {oracle}\n"));
        }
        if let Some(verdict) = &self.verdict {
            out.push_str(&format!(";@ verdict {verdict}\n"));
        }
        if let Some(visited) = self.visited {
            out.push_str(&format!(";@ visited {visited}\n"));
        }
        if let Some(trace_len) = self.trace_len {
            out.push_str(&format!(";@ trace-len {trace_len}\n"));
        }
        if let Some(coverage) = &self.coverage {
            out.push_str(&format!(";@ coverage {coverage}\n"));
        }
        out
    }
}

/// What one deterministic sequential run of a spec observes — the facts a
/// corpus entry records at promotion time and re-checks at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Verdict class (`pass`, `failure`, `deadlock`, `over-budget`,
    /// `build-error`).
    pub verdict: String,
    /// Sequential visited-configuration count (0 when not explorable).
    pub visited: usize,
    /// Shortest witness trace length (0 when there is no witness).
    pub trace_len: usize,
}

/// Observes `spec` through one sequential exploration.
#[must_use]
pub fn observe(spec: &ProgramSpec, budget: usize) -> Observed {
    let Ok(built) = spec.build() else {
        return Observed {
            verdict: "build-error".into(),
            visited: 0,
            trace_len: 0,
        };
    };
    match Explorer::new(&built.program)
        .with_budget(budget)
        .explore([built.init])
    {
        Err(_) => Observed {
            verdict: "over-budget".into(),
            visited: 0,
            trace_len: 0,
        },
        Ok(exp) => {
            let (verdict, trace_len) = if exp.has_failure() {
                let len = exp
                    .failure_witnesses()
                    .iter()
                    .map(|w| w.trace.len())
                    .min()
                    .unwrap_or(0);
                ("failure".to_owned(), len)
            } else if exp.has_deadlock() {
                let len = exp
                    .deadlock_witnesses()
                    .iter()
                    .map(inseq_kernel::Trace::len)
                    .min()
                    .unwrap_or(0);
                ("deadlock".to_owned(), len)
            } else {
                ("pass".to_owned(), 0)
            };
            Observed {
                verdict,
                visited: exp.config_count(),
                trace_len,
            }
        }
    }
}

/// Records promotion-time metadata for a corpus entry.
#[must_use]
pub fn record(spec: &ProgramSpec, seed: u64, kind: &str, opts: &MeasureOptions) -> ReplayMeta {
    let observed = observe(spec, opts.budget);
    let run = measure_battery(spec, opts);
    ReplayMeta {
        seed: Some(seed),
        kind: Some(kind.to_owned()),
        oracle: None,
        verdict: Some(observed.verdict),
        visited: Some(observed.visited),
        trace_len: Some(observed.trace_len),
        coverage: Some(run.coverage.signature()),
    }
}

/// One discrepancy between recorded metadata and a fresh replay.
#[derive(Debug)]
pub struct ReplayMismatch {
    /// The directive that disagrees.
    pub field: &'static str,
    /// Value recorded at promotion time.
    pub recorded: String,
    /// Value observed by this replay.
    pub observed: String,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: recorded {} but replay observed {}",
            self.field, self.recorded, self.observed
        )
    }
}

/// Verifies a corpus entry against its recorded metadata.
///
/// Only directives the entry actually records are checked; an entry with
/// just a seed verifies vacuously. Returns every mismatch, empty on a
/// faithful replay.
#[must_use]
pub fn verify(spec: &ProgramSpec, meta: &ReplayMeta, opts: &MeasureOptions) -> Vec<ReplayMismatch> {
    let mut mismatches = Vec::new();
    let mut push = |field: &'static str, recorded: String, observed: String| {
        if recorded != observed {
            mismatches.push(ReplayMismatch {
                field,
                recorded,
                observed,
            });
        }
    };
    if meta.verdict.is_some() || meta.visited.is_some() || meta.trace_len.is_some() {
        let observed = observe(spec, opts.budget);
        if let Some(v) = &meta.verdict {
            push("verdict", v.clone(), observed.verdict.clone());
        }
        if let Some(n) = meta.visited {
            push("visited", n.to_string(), observed.visited.to_string());
        }
        if let Some(n) = meta.trace_len {
            push("trace-len", n.to_string(), observed.trace_len.to_string());
        }
    }
    if let Some(sig) = &meta.coverage {
        let run = measure_battery(spec, opts);
        push("coverage", sig.clone(), run.coverage.signature());
    }
    mismatches
}

/// Formats a per-oracle wall-clock breakdown through `inseq-obs`, for the
/// campaign summary and the throughput bench.
#[must_use]
pub fn phase_breakdown(phases: &[(crate::oracles::Oracle, Duration)]) -> String {
    phases
        .iter()
        .map(|(oracle, wall)| inseq_obs::PhaseStat::new(oracle.name(), *wall, 0).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_round_trip_through_render_and_parse() {
        let meta = ReplayMeta {
            seed: Some(42),
            kind: Some("mutated".into()),
            oracle: None,
            verdict: Some("pass".into()),
            visited: Some(123),
            trace_len: Some(4),
            coverage: Some("00aabbccddeeff11".into()),
        };
        let text = format!("{}(spec)\n", meta.render());
        assert_eq!(ReplayMeta::parse(&text).unwrap(), meta);
    }

    #[test]
    fn plain_comments_and_spec_text_parse_as_empty_meta() {
        let meta = ReplayMeta::parse("; a comment\n(spec (globals))\n").unwrap();
        assert!(meta.is_empty());
    }

    #[test]
    fn malformed_directives_are_errors_not_panics() {
        for bad in [
            ";@ seed\n",
            ";@ seed banana\n",
            ";@ visited x\n",
            ";@ trace-len -1\n",
            ";@ mystery 3\n",
            ";@\n",
        ] {
            let err = ReplayMeta::parse(bad).expect_err(bad);
            assert_eq!(err.line, 1, "{bad}");
        }
    }

    #[test]
    fn missing_seed_is_reported_with_a_diagnostic() {
        let meta = ReplayMeta::parse(";@ verdict pass\n").unwrap();
        let err = meta.require_seed().expect_err("seed is missing");
        assert!(err.message.contains("no `;@ seed`"), "{}", err.message);
    }
}
