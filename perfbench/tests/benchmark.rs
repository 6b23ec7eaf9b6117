//! The benchmark's own tests, on tiny instances: every metric prints with
//! its unit and matches `BENCHMARK.json`, a wrong expected count fails the
//! run, and two traced runs record the same span names.

use std::time::Instant;

use inseq_kernel::{Explorer, ReduceMode};
use inseq_perfbench::report::{end_to_end, per_layer, result_line};
use inseq_perfbench::{certify, expect, explore, serve, Opts, Outcome, Workload};

fn opts(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        trace,
        spans_out: None,
    }
}

/// Paxos `R = 2, N = 2` (its counts are Table 1's) and two small pipelines.
fn tiny_certify() -> certify::Plan {
    certify::Plan {
        paxos: inseq_protocols::paxos::Instance::new(2, 2),
        paxos_expect: expect::table1("paxos")[0],
        rows: certify::table1_rows()
            .into_iter()
            .filter(|r| ["ping_pong", "producer_consumer"].contains(&r.key))
            .collect(),
    }
}

/// The seven small exploration cases, with known answers from the
/// sequential kernel explorer.
fn tiny_explore(reduce: ReduceMode) -> explore::Plan {
    let expect = inseq_protocols::exploration_cases()
        .iter()
        .map(|case| {
            let exp = Explorer::new(&case.program)
                .explore([case.init.clone()])
                .expect("small case explores");
            explore::Expect {
                key: case.name.clone(),
                name: case.name.clone(),
                visited: exp.config_count(),
                edges: exp.edge_count(),
                failed: exp.has_failure(),
            }
        })
        .collect();
    explore::Plan {
        cases: inseq_protocols::exploration_cases,
        expect,
        reduce,
    }
}

fn tiny_serve() -> serve::Plan {
    serve::Plan {
        session_requests: 30,
    }
}

fn run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let o = opts(workload, seed, trace);
    match workload {
        Workload::Certify => certify::run(&o, &tiny_certify(), Instant::now()),
        Workload::Explore => explore::run(&o, &tiny_explore(ReduceMode::Off), Instant::now()),
        Workload::ExplorePor => explore::run(&o, &tiny_explore(ReduceMode::Both), Instant::now()),
        Workload::ServeEdit => serve::run(&o, &tiny_serve(), Instant::now()),
    }
}

/// The `(name, unit)` pairs a section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section list ends")];
    let field = |object: &str, key: &str| {
        let probe = format!("\"{key}\": \"");
        let at = object.find(&probe).expect("field present") + probe.len();
        object[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

fn owned(list: Vec<(String, &str)>) -> Vec<(String, String)> {
    list.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    assert_eq!(declared("end_to_end"), owned(end_to_end()));
    assert_eq!(declared("per_layer"), owned(per_layer()));
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(workload, 1, trace);
            assert!(
                outcome.checker.correct(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                outcome.checker.errors
            );
            let listed = if trace { per_layer() } else { end_to_end() };
            let line = result_line(&outcome.checker, &outcome.metrics, &listed);
            for (name, unit) in &listed {
                let probe = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&probe)
                    .unwrap_or_else(|| panic!("{name} missing from {line}"))
                    + probe.len();
                let (value, rest) = line[at..].split_once(',').expect("value ends");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "{name}: `{value}` is not a number"
                );
                assert!(
                    rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{name} lacks unit {unit}: {rest}"
                );
            }
            if !trace {
                // `peak_rss_mb` is read by the binary after the run.
                for name in ["setup_s", "op_p50_ms", "work_per_s"] {
                    assert!(
                        outcome.metrics.get(name) > 0.0,
                        "{}: {name}",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn a_wrong_expected_count_fails_the_run() {
    let mut plan = tiny_explore(ReduceMode::Off);
    plan.expect[0].visited += 1;
    let outcome = explore::run(&opts(Workload::Explore, 1, false), &plan, Instant::now());
    assert!(!outcome.checker.correct());
    assert_eq!(outcome.checker.failed, 1);
    assert!(outcome.checker.errors.iter().any(|e| e.contains("visited")));

    let mut plan = tiny_certify();
    plan.paxos_expect.edges += 1;
    let outcome = certify::run(&opts(Workload::Certify, 1, false), &plan, Instant::now());
    assert!(!outcome.checker.correct());
    assert_eq!(outcome.checker.failed, 1);
}

#[test]
fn two_traced_runs_record_the_same_span_names() {
    for workload in Workload::ALL {
        let first = run(workload, 3, true).tracer.span_names();
        let second = run(workload, 4, true).tracer.span_names();
        assert!(first.len() > 2, "{}: {first:?}", workload.name());
        assert_eq!(first, second, "{}", workload.name());
    }
}
