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
//! verdict classes), and pin that a measurement records only its own
//! program, whatever else the process runs at the same time.

use std::sync::atomic::{AtomicUsize, Ordering};

use inseq_fuzz::corpus::zoo_specs;
use inseq_fuzz::coverage::{measure_battery, MeasureOptions};
use inseq_fuzz::meta::observe;
use inseq_fuzz::oracles::{run_oracle, Oracle};
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
            ..MeasureOptions::default()
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

/// Counts a finished measuring thread even when it panics, so the looping
/// observer below always stops.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn concurrent_measurements_and_observations_reproduce_serial_signatures() {
    let zoo = zoo_specs();
    let serial: Vec<String> = zoo
        .iter()
        .map(|(_, spec)| signature(spec, 2, ReduceMode::Por))
        .collect();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Two measurements of different programs at the same time…
        let measurers: Vec<_> = zoo[..2]
            .iter()
            .map(|(name, spec)| {
                let finished = &finished;
                s.spawn(move || {
                    let _finished = Finished(finished);
                    let sigs: Vec<String> = (0..3)
                        .map(|_| signature(spec, 2, ReduceMode::Por))
                        .collect();
                    (name, sigs)
                })
            })
            .collect();
        // …while unrecorded VM work on a third program runs alongside them.
        let (_, third) = &zoo[2];
        let finished = &finished;
        s.spawn(move || {
            for oracle in Oracle::ALL.iter().cycle() {
                if finished.load(Ordering::SeqCst) == 2 {
                    break;
                }
                let _ = observe(third, BUDGET);
                let _ = run_oracle(*oracle, third, BUDGET);
            }
        });
        for (measurer, expected) in measurers.into_iter().zip(&serial) {
            let (name, sigs) = measurer.join().expect("measuring thread");
            for (round, sig) in sigs.iter().enumerate() {
                assert_eq!(
                    sig, expected,
                    "{name}: concurrent signature drifted from the serial one in round {round}"
                );
            }
        }
    });
}
