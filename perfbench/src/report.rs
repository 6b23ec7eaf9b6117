//! Metric names and units, correctness accounting, and the result line.

use std::collections::BTreeMap;

use crate::trace::json_string;

/// End-to-end metrics: every workload reports all of them in a timed run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// The protocols of Table 1, as metric-name suffixes.
pub const TABLE1_KEYS: [&str; 7] = [
    "broadcast",
    "ping_pong",
    "producer_consumer",
    "n_buyer",
    "chang_roberts",
    "two_phase_commit",
    "paxos",
];

/// The large exploration cases, as metric-name suffixes, in
/// `inseq_protocols::large_exploration_cases` order.
pub const LARGE_KEYS: [&str; 6] = [
    "broadcast",
    "producer_consumer",
    "paxos_r3n2",
    "chang_roberts",
    "two_phase_commit",
    "paxos_r4n2",
];

/// Layers that spans are recorded on, for the `self_s.<layer>` metrics.
pub const SPAN_LAYERS: [&str; 9] = [
    "bench",
    "lang",
    "protocols",
    "refine",
    "core",
    "kernel",
    "engine",
    "engine.reduce",
    "serve",
];

/// Every per-layer metric with its unit, in report order. A traced run of
/// any workload reports all of them; layers a workload bypasses read zero.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_owned(), unit));
    add("lang.build_s", "s");
    add("lang.compile_s", "s");
    add("lang.vm_evals", "count");
    add("refine.p1_p2_s", "s");
    add("refine.p2_pprime_s", "s");
    add("kernel.explore_s", "s");
    add("kernel.spec_s", "s");
    add("kernel.visited", "count");
    add("kernel.universe_stores", "count");
    add("kernel.intern_hit_ratio", "ratio");
    add("mover.lm_s", "s");
    add("mover.pairwise_checks", "count");
    add("mover.cache_hit_ratio", "ratio");
    add("core.abstraction_s", "s");
    add("core.invariant_s", "s");
    add("core.cooperation_s", "s");
    for key in TABLE1_KEYS {
        add(&format!("protocols.verify_s.{key}"), "s");
    }
    for key in &LARGE_KEYS[..5] {
        add(&format!("engine.configs_per_s.{key}"), "1/s");
    }
    add("engine.steals", "count");
    add("engine.stolen", "count");
    add("engine.max_shard_share", "ratio");
    add("engine.memo_hit_ratio", "ratio");
    add("kernel.cintern.lock_waits", "count");
    add("kernel.cintern.lock_wait_s", "s");
    add("kernel.cintern.intern_batches", "count");
    for key in LARGE_KEYS {
        add(&format!("engine.reduce.case_s.{key}"), "s");
    }
    add("engine.reduce.visited_ratio", "ratio");
    add("engine.reduce.pruned", "count");
    add("engine.reduce.orbit_collapses", "count");
    add("engine.reduce.pair_memo_hit_ratio", "ratio");
    add("engine.reduce.pa_cache_peak", "count");
    add("serve.ack_p50_ms", "ms");
    add("serve.ttfo_p50_ms", "ms");
    add("serve.p50_ms.resubmit", "ms");
    add("serve.p50_ms.edit", "ms");
    add("serve.cold_ms", "ms");
    add("serve.tail_ms", "ms");
    add("serve.tail_pct", "%");
    add("serve.tail_samples", "count");
    add("core.incr.obligation_hit_ratio", "ratio");
    add("core.incr.full_hit_ratio", "ratio");
    add("core.incr.cached_obligations", "count");
    add("serve.known_programs", "count");
    add("trace.overhead_s", "s");
    add("trace.spans", "count");
    for layer in SPAN_LAYERS {
        add(&format!("self_s.{layer}"), "s");
    }
    m
}

/// Operations attempted and failed; a failure is an error or a wrong
/// answer, and every one is described.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Checker {
    /// Records one operation whose problems are `problems` (empty = correct).
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.errors.push(format!("{what}: {p}"));
            }
        }
    }

    /// Whether every operation answered correctly.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Compares `got` with `want` and describes a mismatch.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    got: T,
    want: T,
) {
    if got != want {
        problems.push(format!("{what} = {got:?}, expected {want:?}"));
    }
}

/// The metrics of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_default() += value;
    }

    /// The value of `name`, zero when unset.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The result line: the listed metrics (missing ones read zero), with
/// their units, plus the correctness counts.
#[must_use]
pub fn result_line(checker: &Checker, metrics: &Metrics, listed: &[(String, &str)]) -> String {
    let fields: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.correct(),
        checker.attempted,
        checker.failed,
        fields.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The end-to-end metric list in the shape [`result_line`] takes.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}
