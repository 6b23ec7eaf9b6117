//! The IS checker's benchmark: four workloads driven from outside the
//! program through the public APIs of the workspace crates, each printing
//! end-to-end metrics (timed run) or per-layer metrics (traced run) and
//! checking every verdict and count against a known answer.
//!
//! * `certify` — the full Paxos `R = 3, N = 2` certification, then the
//!   seven Table-1 pipelines.
//! * `explore` — the work-stealing explorer, unreduced, over five large
//!   exploration cases.
//! * `explore-por` — the same explorer with partial-order and symmetry
//!   reduction over all six large cases.
//! * `serve-edit` — one resident daemon and one closed-loop client sending
//!   first submissions, identical resubmits and footprint-disjoint edits.
//!
//! See `perfbench/README.md` for the metric definitions and the layer map.

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // protocol errors embed witnesses

pub mod certify;
pub mod expect;
pub mod explore;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Checker, Metrics};
use trace::Tracer;

/// Worker threads for exploration and the daemon's engine: the benchmark
/// machine's core count.
pub const WORKERS: usize = 2;

/// How often a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// A workload by its command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paxos R3N2 certification plus the Table-1 pipelines.
    Certify,
    /// Unreduced parallel exploration of the large cases.
    Explore,
    /// Reduced parallel exploration of the large cases.
    ExplorePor,
    /// A resident daemon under a closed-loop edit session.
    ServeEdit,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Certify,
        Workload::Explore,
        Workload::ExplorePor,
        Workload::ServeEdit,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Certify => "certify",
            Workload::Explore => "explore",
            Workload::ExplorePor => "explore-por",
            Workload::ServeEdit => "serve-edit",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Fixes the Table-1 order, the request stream and every generated
    /// constant.
    pub seed: u64,
    /// How long to keep issuing operations (at least one always runs).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub checker: Checker,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// The spans, when traced.
    pub tracer: Tracer,
}

/// Runs the workload `opts` names. `process_start` is when the process
/// began, so the first set-up's time includes everything before it.
#[must_use]
pub fn run(opts: &Opts, process_start: Instant) -> Outcome {
    match opts.workload {
        Workload::Certify => certify::run(opts, &certify::Plan::full(), process_start),
        Workload::Explore => explore::run(opts, &explore::Plan::unreduced(), process_start),
        Workload::ExplorePor => explore::run(opts, &explore::Plan::reduced(), process_start),
        Workload::ServeEdit => serve::run(opts, &serve::Plan::full(), process_start),
    }
}

/// Sets up [`SETUP_REPEATS`] times and keeps the last result; the first
/// timing counts from `process_start`. Every result but the last is handed
/// to `teardown`. Set-up spans carry run id 0. Returns the result and the
/// median set-up time in seconds.
pub fn timed_setups<S>(
    process_start: Instant,
    tracer: &Tracer,
    trace: bool,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    tracer.set_enabled(trace);
    tracer.set_run(0);
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = tracer.span("bench", "setup", &mut setup);
        times.push(start.elapsed().as_secs_f64());
        last = Some(s);
    }
    tracer.set_enabled(false);
    (last.expect("at least one set-up"), stats::median(&times))
}

/// The wall times of a run's operations, split by whether they were traced.
#[derive(Debug, Default)]
pub struct Drive {
    /// Seconds per untraced operation.
    pub untraced: Vec<f64>,
    /// Seconds per traced operation.
    pub traced: Vec<f64>,
}

impl Drive {
    /// Mean traced minus mean untraced operation time: what recording
    /// spans cost one operation. Means, not medians: a request mix with two
    /// latency modes puts the median on a cliff.
    #[must_use]
    pub fn overhead_s(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        mean(&self.traced) - mean(&self.untraced)
    }
}

/// Issues operations until `seconds` have passed, at least one. A traced
/// run alternates untraced and traced operations, at least one of each, so
/// the two can be compared. `op` receives the operation's run id (from 1)
/// and whether it is traced.
pub fn drive(opts: &Opts, tracer: &Tracer, mut op: impl FnMut(u64, bool)) -> Drive {
    let start = Instant::now();
    let mut drive = Drive::default();
    for run in 1u64.. {
        let traced = opts.trace && run % 2 == 0;
        tracer.set_run(run);
        tracer.set_enabled(traced);
        let t = Instant::now();
        op(run, traced);
        let wall = t.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        if traced {
            drive.traced.push(wall);
        } else {
            drive.untraced.push(wall);
        }
        let done = start.elapsed().as_secs_f64() >= opts.seconds;
        if done && (!opts.trace || !drive.traced.is_empty()) {
            break;
        }
    }
    drive
}

/// Fills the tracing metrics of a traced run: overhead, spans per traced
/// operation, and each span layer's self time per traced operation.
pub fn trace_metrics(metrics: &mut Metrics, tracer: &Tracer, drive: &Drive, traced_runs: &[u64]) {
    let n = traced_runs.len().max(1) as f64;
    metrics.set("trace.overhead_s", drive.overhead_s());
    let spans = tracer
        .spans()
        .iter()
        .filter(|s| traced_runs.contains(&s.run))
        .count();
    metrics.set("trace.spans", spans as f64 / n);
    for (layer, secs) in tracer.self_times(|run| traced_runs.contains(&run)) {
        metrics.set(&format!("self_s.{layer}"), secs / n);
    }
}

/// The run ids [`drive`] traced, given how many operations it issued.
#[must_use]
pub fn traced_runs(drive: &Drive) -> Vec<u64> {
    if drive.traced.is_empty() {
        return Vec::new();
    }
    let total = (drive.traced.len() + drive.untraced.len()) as u64;
    (1..=total).filter(|r| r % 2 == 0).collect()
}
