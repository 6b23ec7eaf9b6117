//! The coverage map's determinism contract, end to end.
//!
//! The guided campaign's corpus decisions, the recorded `;@ coverage`
//! metadata, and the guided-vs-blind comparison in EXPERIMENTS.md are all
//! keyed on [`CoverageMap::signature`]. That only works if the signature is
//! a pure function of `(program, budget, reduce mode)` — in particular it
//! must NOT depend on the worker count of the parallel exploration section
//! (the recorded parallel run evaluates a worker-invariant set of
//! configurations) or on which of two identical runs produced it. These
//! tests pin that contract on generated programs and on the scenario-zoo
//! protocols (which cover the deadlock / schedule-dependent-failure / pass
//! verdict classes).

use inseq_fuzz::corpus::zoo_specs;
use inseq_fuzz::coverage::{measure_battery, MeasureOptions};
use inseq_fuzz::{generate, GenConfig};
use inseq_kernel::ReduceMode;
use inseq_lang::spec::ProgramSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: usize = 1_000;

fn subjects() -> Vec<(String, ProgramSpec)> {
    let mut subjects: Vec<(String, ProgramSpec)> = (0..4u64)
        .map(|seed| {
            let spec = generate(&mut StdRng::seed_from_u64(seed), &GenConfig::default());
            (format!("generated-seed{seed}"), spec)
        })
        .collect();
    subjects.extend(zoo_specs());
    subjects
}

fn signature(spec: &ProgramSpec, workers: usize, reduce: ReduceMode) -> String {
    let run = measure_battery(
        spec,
        &MeasureOptions {
            budget: BUDGET,
            workers,
            reduce,
        },
    );
    assert!(
        run.outcomes.is_ok(),
        "battery disagreement on a determinism subject: {:?}",
        run.outcomes
    );
    run.coverage.signature()
}

#[test]
fn signatures_are_identical_across_worker_counts_and_repeated_runs() {
    for (name, spec) in subjects() {
        let reference = signature(&spec, 1, ReduceMode::Por);
        for workers in [1usize, 2, 4] {
            for round in 0..2 {
                assert_eq!(
                    signature(&spec, workers, ReduceMode::Por),
                    reference,
                    "{name}: signature drifted at {workers} worker(s), round {round}"
                );
            }
        }
    }
}

#[test]
fn signatures_are_deterministic_under_every_reduce_mode() {
    for (name, spec) in subjects() {
        for reduce in [ReduceMode::Por, ReduceMode::Sym, ReduceMode::Both] {
            let first = signature(&spec, 2, reduce);
            let second = signature(&spec, 4, reduce);
            assert_eq!(
                first, second,
                "{name}: signature not reproducible under --reduce {reduce}"
            );
        }
    }
}

#[test]
fn signatures_separate_the_zoo_verdict_classes() {
    // Sanity against a signature that is deterministic because it is
    // constant: the three zoo archetypes must hash differently.
    let sigs: Vec<String> = zoo_specs()
        .iter()
        .map(|(_, spec)| signature(spec, 2, ReduceMode::Por))
        .collect();
    assert_eq!(sigs.len(), 3);
    assert!(
        sigs[0] != sigs[1] && sigs[1] != sigs[2] && sigs[0] != sigs[2],
        "zoo signatures collide: {sigs:?}"
    );
}
