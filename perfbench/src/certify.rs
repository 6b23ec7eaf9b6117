//! The `certify` workload: the full Paxos `R = 3, N = 2` certification
//! (`P1 ≼ P2`, the IS application, `P2 ≼ P'`, and the spec on `P'` and
//! `P2` — the steps of `paxos::verify`, called one by one so each gets a
//! span), then the seven Table-1 pipelines in seeded order.

use std::time::Instant;

use inseq_core::IsReport;
use inseq_kernel::Program;
use inseq_obs::HitMissSnapshot;
use inseq_protocols::common::{check_spec, CaseError, CaseReport};
use inseq_protocols::{
    broadcast, chang_roberts, n_buyer, paxos, paxos_impl, ping_pong, producer_consumer,
    two_phase_commit,
};
use inseq_refine::check_program_refinement;

use crate::expect::{self, IsCounts};
use crate::report::{expect_eq, Checker, Metrics};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{drive, timed_setups, trace_metrics, traced_runs, Opts, Outcome};

/// Visited-configuration budget of every exploration in the pipeline, as
/// `paxos::verify` sets it.
const BUDGET: usize = 8_000_000;

/// Passes over Table 1 per operation: one pass takes about 0.6 s, too
/// short to time alone on a shared machine.
const TABLE1_PASSES: usize = 3;

type Pipeline = fn() -> Result<CaseReport, CaseError>;

/// One Table-1 pipeline: its metric key, its runner, and its known counts.
#[derive(Clone)]
pub struct Row {
    /// Metric-name suffix (`protocols.verify_s.<key>`).
    pub key: &'static str,
    /// Runs the protocol's `verify` at its reference instance.
    pub run: Pipeline,
    /// Expected counts, one per IS application.
    pub expect: Vec<IsCounts>,
}

/// What one `certify` operation certifies.
#[derive(Clone)]
pub struct Plan {
    /// The heavy Paxos instance.
    pub paxos: paxos::Instance,
    /// Its expected IS counts.
    pub paxos_expect: IsCounts,
    /// The Table-1 pipelines, before seeded shuffling.
    pub rows: Vec<Row>,
}

/// The seven Table-1 pipelines at the reference instances of `table1`.
#[must_use]
pub fn table1_rows() -> Vec<Row> {
    let rows: [(&str, Pipeline); 7] = [
        ("broadcast", || {
            broadcast::verify(&broadcast::Instance::new(&[3, 1, 2]))
        }),
        ("ping_pong", || {
            ping_pong::verify(ping_pong::Instance::new(4))
        }),
        ("producer_consumer", || {
            producer_consumer::verify(producer_consumer::Instance::new(4))
        }),
        ("n_buyer", || {
            n_buyer::verify(&n_buyer::Instance::new(10, &[6, 6, 9]))
        }),
        ("chang_roberts", || {
            chang_roberts::verify(&chang_roberts::Instance::new(&[10, 30, 20]))
        }),
        ("two_phase_commit", || {
            two_phase_commit::verify(&two_phase_commit::Instance::new(&[true, false, true]))
        }),
        ("paxos", || paxos::verify(paxos::Instance::new(2, 2))),
    ];
    rows.into_iter()
        .map(|(key, run)| Row {
            key,
            run,
            expect: expect::table1(key).to_vec(),
        })
        .collect()
}

impl Plan {
    /// The benchmark's plan: Paxos R3N2, then all of Table 1.
    #[must_use]
    pub fn full() -> Self {
        Plan {
            paxos: paxos::Instance::new(3, 2),
            paxos_expect: expect::PAXOS_R3N2,
            rows: table1_rows(),
        }
    }
}

/// Set-up result: the Paxos artifacts, built and compiled.
struct Setup {
    artifacts: paxos::Artifacts,
}

fn setup(tracer: &Tracer) -> Setup {
    let artifacts = tracer.span("lang", "paxos::build", paxos::build);
    tracer.span("lang", "prepare P2", || artifacts.p2.prepare_actions());
    Setup { artifacts }
}

/// Per-operation sums of the counters the IS reports carry.
#[derive(Default)]
struct Counters {
    intern: HitMissSnapshot,
    mover_cache: HitMissSnapshot,
}

fn absorb(metrics: &mut Metrics, counters: &mut Counters, report: &IsReport) {
    let s = &report.stats;
    for phase in &s.premises {
        let secs = phase.wall.as_secs_f64();
        let name = phase.name.as_str();
        let layer = if name == "explore" {
            "kernel.explore_s"
        } else if name.starts_with("(LM)") {
            "mover.lm_s"
        } else if name.starts_with("(CO)") {
            "core.cooperation_s"
        } else if name.starts_with("(I") {
            "core.invariant_s"
        } else {
            "core.abstraction_s"
        };
        metrics.add(layer, secs);
    }
    metrics.add("kernel.visited", report.reachable_configs as f64);
    metrics.add("kernel.universe_stores", report.universe_stores as f64);
    metrics.add("mover.pairwise_checks", s.pairwise_checks as f64);
    counters.intern = counters.intern.merged(s.intern);
    counters.mover_cache = counters.mover_cache.merged(s.mover_cache);
}

fn check_counts(problems: &mut Vec<String>, what: &str, reports: &[IsReport], want: &[IsCounts]) {
    let got: Vec<IsCounts> = reports.iter().map(IsCounts::of).collect();
    expect_eq(problems, what, got.as_slice(), want);
}

/// The Paxos pipeline: returns its IS report, or the failing step.
fn certify_paxos(
    tracer: &Tracer,
    artifacts: &paxos::Artifacts,
    instance: paxos::Instance,
) -> Result<IsReport, String> {
    tracer
        .span("refine", "P1 ≼ P2", || {
            paxos_impl::check_implements_abstract(instance, BUDGET)
        })
        .map_err(|e| format!("P1 ⋠ P2: {e}"))?;
    let init2 = paxos::init_config(&artifacts.p2, artifacts, instance);
    let app = tracer.span("core", "IS application", || {
        paxos::application(artifacts, instance)
    });
    let (p_prime, report): (Program, IsReport) = tracer
        .span("core", "IS check_and_apply", || app.check_and_apply())
        .map_err(|e| e.to_string())?;
    tracer
        .span("refine", "P2 ≼ P'", || {
            check_program_refinement(&artifacts.p2, &p_prime, [init2.clone()], BUDGET)
        })
        .map_err(|e| format!("P2 ⋠ P': {e}"))?;
    tracer.span("kernel", "spec P'", || {
        check_spec(
            &p_prime,
            init2.clone(),
            BUDGET,
            paxos::spec(artifacts, instance),
        )
    })?;
    tracer.span("kernel", "spec P2", || {
        check_spec(
            &artifacts.p2,
            init2,
            BUDGET,
            paxos::spec(artifacts, instance),
        )
    })?;
    Ok(report)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts, plan: &Plan, process_start: Instant) -> Outcome {
    let tracer = Tracer::new(process_start);
    let mut rng = Rng::new(opts.seed, "certify");
    let mut rows = plan.rows.clone();
    rng.shuffle(&mut rows);

    let (setup, setup_s) =
        timed_setups(process_start, &tracer, opts.trace, || setup(&tracer), drop);

    let mut checker = Checker::default();
    let mut layer = Metrics::default();
    let mut counters = Counters::default();
    let mut certify_walls = Vec::new();
    let mut table1_walls = Vec::new();
    let p2 = &setup.artifacts.p2;

    let driven = drive(opts, &tracer, |_, traced| {
        tracer.span("bench", "certify pass", || {
            let before = p2.exec_stats();
            let t = Instant::now();
            let paxos = tracer.span("protocols", "certify paxos R3N2", || {
                certify_paxos(&tracer, &setup.artifacts, plan.paxos)
            });
            certify_walls.push(t.elapsed().as_secs_f64());
            let mut problems = Vec::new();
            match &paxos {
                Ok(report) => {
                    check_counts(
                        &mut problems,
                        "counts",
                        std::slice::from_ref(report),
                        &[plan.paxos_expect],
                    );
                    if traced {
                        absorb(&mut layer, &mut counters, report);
                        let exec = report.stats.exec;
                        layer.add(
                            "lang.vm_evals",
                            exec.vm_evals.saturating_sub(before.vm_evals) as f64,
                        );
                        layer.add("lang.compile_s", exec.compile_nanos as f64 / 1e9);
                    }
                }
                Err(e) => problems.push(e.clone()),
            }
            checker.record("paxos R3N2", problems);

            for pass in 0..TABLE1_PASSES {
                let pass_start = Instant::now();
                for row in &rows {
                    let t = Instant::now();
                    let result = tracer.span("protocols", &format!("verify {}", row.key), row.run);
                    let wall = t.elapsed();
                    let mut problems = Vec::new();
                    match &result {
                        Ok(case) => {
                            check_counts(&mut problems, "counts", &case.reports, &row.expect);
                            if traced && pass == 0 {
                                layer.add(
                                    &format!("protocols.verify_s.{}", row.key),
                                    wall.as_secs_f64(),
                                );
                                for report in &case.reports {
                                    absorb(&mut layer, &mut counters, report);
                                    let exec = report.stats.exec;
                                    layer.add("lang.vm_evals", exec.vm_evals as f64);
                                    layer.add("lang.compile_s", exec.compile_nanos as f64 / 1e9);
                                }
                            }
                        }
                        Err(e) => problems.push(e.to_string()),
                    }
                    checker.record(row.key, problems);
                }
                table1_walls.push(pass_start.elapsed().as_secs_f64());
            }
        });
    });

    let mut metrics = Metrics::default();
    if opts.trace {
        let traced = traced_runs(&driven);
        let n = traced.len().max(1) as f64;
        for (name, value) in std::mem::take(&mut layer.0) {
            metrics.set(&name, value / n);
        }
        metrics.set("kernel.intern_hit_ratio", counters.intern.hit_rate());
        metrics.set("mover.cache_hit_ratio", counters.mover_cache.hit_rate());
        let keep = |run: u64| traced.contains(&run);
        metrics.set(
            "refine.p1_p2_s",
            tracer.total("refine", "P1 ≼ P2", keep) / n,
        );
        metrics.set(
            "refine.p2_pprime_s",
            tracer.total("refine", "P2 ≼ P'", keep) / n,
        );
        metrics.set(
            "kernel.spec_s",
            (tracer.total("kernel", "spec P'", keep) + tracer.total("kernel", "spec P2", keep)) / n,
        );
        metrics.set(
            "lang.build_s",
            tracer.total("lang", "paxos::build", |run| run == 0) / crate::SETUP_REPEATS as f64,
        );
        trace_metrics(&mut metrics, &tracer, &driven, &traced);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("op_p50_ms", median(&certify_walls) * 1e3);
        metrics.set("work_per_s", rows.len() as f64 / median(&table1_walls));
    }
    Outcome {
        checker,
        metrics,
        tracer,
    }
}
