//! The `explore` and `explore-por` workloads: the work-stealing
//! `ParallelExplorer` over the large exploration cases, unreduced (five
//! cases; unreduced Paxos `R = 4, N = 2` is left out) or under
//! `ReduceMode::Both` (all six).

use std::time::Instant;

use inseq_engine::{ExploreStats, ParallelExplorer, Reducer};
use inseq_kernel::ReduceMode;
use inseq_obs::HitMissSnapshot;
use inseq_protocols::common::ExplorationCase;

use crate::expect;
use crate::report::{expect_eq, Checker, Metrics, LARGE_KEYS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{drive, timed_setups, trace_metrics, traced_runs, Opts, Outcome, WORKERS};

/// The known answer for one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Metric-name suffix.
    pub key: String,
    /// `ExplorationCase::name`.
    pub name: String,
    /// Unreduced visited configurations.
    pub visited: usize,
    /// Unreduced edges.
    pub edges: usize,
    /// Whether some reachable configuration fails.
    pub failed: bool,
}

/// What one pass explores, and how.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Builds the cases; only those listed in `expect` (by position) run.
    pub cases: fn() -> Vec<ExplorationCase>,
    /// Known answers, one per case explored.
    pub expect: Vec<Expect>,
    /// `Off` checks visited and edges exactly; otherwise the verdict must
    /// match and visited may not exceed the unreduced count.
    pub reduce: ReduceMode,
}

fn large_expectations(count: usize) -> Vec<Expect> {
    expect::LARGE[..count]
        .iter()
        .zip(LARGE_KEYS)
        .map(|(&(name, visited, edges), key)| Expect {
            key: key.to_owned(),
            name: name.to_owned(),
            visited,
            edges,
            failed: false,
        })
        .collect()
}

impl Plan {
    /// `explore`: five large cases, unreduced.
    #[must_use]
    pub fn unreduced() -> Self {
        Plan {
            cases: inseq_protocols::large_exploration_cases,
            expect: large_expectations(5),
            reduce: ReduceMode::Off,
        }
    }

    /// `explore-por`: all six large cases under POR and symmetry.
    #[must_use]
    pub fn reduced() -> Self {
        Plan {
            cases: inseq_protocols::large_exploration_cases,
            expect: large_expectations(6),
            reduce: ReduceMode::Both,
        }
    }
}

fn setup(tracer: &Tracer, plan: &Plan) -> Vec<ExplorationCase> {
    let mut cases = tracer.span("lang", "build cases", plan.cases);
    cases.truncate(plan.expect.len());
    tracer.span("lang", "prepare cases", || {
        for case in &cases {
            case.program.prepare_actions();
        }
    });
    cases
}

/// What a pass keeps of one exploration.
struct Explored {
    visited: usize,
    edges: usize,
    failed: bool,
    stats: ExploreStats,
}

/// Counters summed over the traced passes.
#[derive(Default)]
struct Counters {
    memo: HitMissSnapshot,
    pair_memo: HitMissSnapshot,
    /// Expansions per worker index, summed over cases.
    expanded: Vec<u64>,
    pa_cache_peak: u64,
    /// Per case: (visited, seconds) summed over traced passes.
    per_case: Vec<(f64, f64)>,
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts, plan: &Plan, process_start: Instant) -> Outcome {
    let tracer = Tracer::new(process_start);
    // Cases run in their listed order, whatever the seed, so every run of a
    // workload does the same work in the same order and two runs differ
    // only by the machine's own noise.
    let reduced = plan.reduce != ReduceMode::Off;
    let layer_name = if reduced { "engine.reduce" } else { "engine" };

    let (cases, setup_s) = timed_setups(
        process_start,
        &tracer,
        opts.trace,
        || setup(&tracer, plan),
        drop,
    );

    let mut checker = Checker::default();
    for (case, want) in cases.iter().zip(&plan.expect) {
        if case.name != want.name {
            checker.record(
                "case list",
                vec![format!(
                    "case `{}` where `{}` was expected",
                    case.name, want.name
                )],
            );
        }
    }
    let mut layer = Metrics::default();
    let mut counters = Counters {
        per_case: vec![(0.0, 0.0); cases.len()],
        ..Counters::default()
    };
    let mut pass_walls = Vec::new();
    let mut visited_total = 0.0;
    let mut explorations = 0usize;
    let mut explore_wall = 0.0;

    let driven = drive(opts, &tracer, |_, traced| {
        tracer.span("bench", "explore pass", || {
            let pass = Instant::now();
            for (i, (case, want)) in cases.iter().zip(&plan.expect).enumerate() {
                let reducer = match &case.symmetry {
                    Some(spec) if reduced => Reducer::new(plan.reduce).with_symmetry(spec.clone()),
                    _ => Reducer::new(plan.reduce),
                };
                let vm_before = case.program.exec_stats().vm_evals;
                let t = Instant::now();
                // The exploration is summarized and dropped inside the span:
                // freeing its arenas is part of what an exploration costs.
                let result = tracer.span(layer_name, &format!("explore {case}"), || {
                    let mut explorer = ParallelExplorer::new(&case.program).with_workers(WORKERS);
                    if reduced {
                        explorer = explorer.with_reduction(&reducer);
                    }
                    explorer.explore([case.init.clone()]).map(|exp| Explored {
                        visited: exp.config_count(),
                        edges: exp.edge_count(),
                        failed: exp.has_failure(),
                        stats: exp.stats().clone(),
                    })
                });
                let wall = t.elapsed().as_secs_f64();
                explore_wall += wall;
                explorations += 1;
                let mut problems = Vec::new();
                match &result {
                    Ok(exp) => {
                        let visited = exp.visited;
                        visited_total += visited as f64;
                        expect_eq(&mut problems, "failed", exp.failed, want.failed);
                        if reduced {
                            if visited > want.visited {
                                problems.push(format!(
                                    "reduced visited {visited} exceeds unreduced {}",
                                    want.visited
                                ));
                            }
                        } else {
                            expect_eq(&mut problems, "visited", visited, want.visited);
                            expect_eq(&mut problems, "edges", exp.edges, want.edges);
                        }
                        if traced {
                            let s = &exp.stats;
                            let snap = s.engine_snapshot();
                            layer.add("kernel.visited", visited as f64);
                            layer.add(
                                "lang.vm_evals",
                                case.program.exec_stats().vm_evals.saturating_sub(vm_before) as f64,
                            );
                            layer.add("engine.steals", snap.steals as f64);
                            layer.add("engine.stolen", snap.stolen as f64);
                            layer.add("kernel.cintern.lock_waits", snap.lock_waits as f64);
                            layer.add(
                                "kernel.cintern.lock_wait_s",
                                snap.lock_wait_nanos as f64 / 1e9,
                            );
                            layer.add("kernel.cintern.intern_batches", snap.intern_batches as f64);
                            if counters.expanded.len() < snap.expanded.len() {
                                counters.expanded.resize(snap.expanded.len(), 0);
                            }
                            for (slot, n) in counters.expanded.iter_mut().zip(&snap.expanded) {
                                *slot += n;
                            }
                            counters.memo = counters.memo.merged(s.memo);
                            counters.per_case[i].0 += visited as f64;
                            counters.per_case[i].1 += wall;
                            if reduced {
                                layer.add("engine.reduce.pruned", snap.pruned as f64);
                                layer.add(
                                    "engine.reduce.orbit_collapses",
                                    snap.orbit_collapses as f64,
                                );
                                layer.add("engine.reduce.visited_ratio_num", visited as f64);
                                layer.add("engine.reduce.visited_ratio_den", want.visited as f64);
                                counters.pair_memo =
                                    counters.pair_memo.merged(reducer.memo_stats());
                                counters.pa_cache_peak =
                                    counters.pa_cache_peak.max(s.pa_cache_peak());
                            }
                        }
                    }
                    Err(e) => problems.push(e.to_string()),
                }
                checker.record(&case.to_string(), problems);
            }
            pass_walls.push(pass.elapsed().as_secs_f64());
        });
    });

    let mut metrics = Metrics::default();
    if opts.trace {
        let traced = traced_runs(&driven);
        let n = traced.len().max(1) as f64;
        let num = layer.get("engine.reduce.visited_ratio_num");
        let den = layer.get("engine.reduce.visited_ratio_den");
        for (name, value) in std::mem::take(&mut layer.0) {
            if !name.starts_with("engine.reduce.visited_ratio_") {
                metrics.set(&name, value / n);
            }
        }
        for (want, &(visited, secs)) in plan.expect.iter().zip(&counters.per_case) {
            if reduced {
                metrics.set(&format!("engine.reduce.case_s.{}", want.key), secs / n);
            } else {
                metrics.set(
                    &format!("engine.configs_per_s.{}", want.key),
                    visited / secs,
                );
            }
        }
        let expanded: u64 = counters.expanded.iter().sum();
        let busiest = counters.expanded.iter().copied().max().unwrap_or(0);
        metrics.set(
            "engine.max_shard_share",
            busiest as f64 / expanded.max(1) as f64,
        );
        metrics.set("engine.memo_hit_ratio", counters.memo.hit_rate());
        if reduced {
            metrics.set("engine.reduce.visited_ratio", num / den.max(1.0));
            metrics.set(
                "engine.reduce.pair_memo_hit_ratio",
                counters.pair_memo.hit_rate(),
            );
            metrics.set("engine.reduce.pa_cache_peak", counters.pa_cache_peak as f64);
        }
        let setups = |run: u64| run == 0;
        let per_setup = crate::SETUP_REPEATS as f64;
        metrics.set(
            "lang.build_s",
            tracer.total("lang", "build cases", setups) / per_setup,
        );
        let compile_ns: u64 = cases
            .iter()
            .map(|c| c.program.exec_stats().compile_nanos)
            .sum();
        metrics.set("lang.compile_s", compile_ns as f64 / 1e9);
        trace_metrics(&mut metrics, &tracer, &driven, &traced);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("op_p50_ms", median(&pass_walls) * 1e3);
        let work = if reduced {
            explorations as f64
        } else {
            visited_total
        };
        metrics.set("work_per_s", work / explore_wall);
    }
    Outcome {
        checker,
        metrics,
        tracer,
    }
}
