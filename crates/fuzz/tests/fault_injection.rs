//! End-to-end proof that the battery has teeth: build the program with a
//! deliberately miscompiled VM (the `fault-injection` feature skews every
//! runtime integer addition) and check that the `vm-interp` oracle catches
//! it and the shrinker minimizes the disagreeing program to a handful of
//! statements.
//!
//! The fault is part of the faulted run's own program, so a healthy run of
//! the same spec in the same process — even concurrently — stays clean.

use inseq_fuzz::oracles::{
    run_oracle, run_oracle_with, Faults, Oracle, OracleOutcome, DEFAULT_BUDGET,
};
use inseq_fuzz::shrink::shrink;
use inseq_fuzz::{generate, GenConfig};
use inseq_lang::spec::ProgramSpec;
use inseq_lang::VmHooks;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The VM computes `a + b + 1` for every runtime addition.
fn add_offset_fault() -> Faults {
    Faults {
        vm: VmHooks::default().with_add_offset(1),
        ..Faults::default()
    }
}

fn faulted_disagrees(spec: &ProgramSpec, faults: &Faults) -> bool {
    run_oracle_with(Oracle::VmInterp, spec, DEFAULT_BUDGET, faults).is_err()
}

/// The first generated program whose runtime additions trip the fault.
fn first_tripping_spec(faults: &Faults) -> (u64, ProgramSpec) {
    let config = GenConfig::default();
    (0..200u64)
        .map(|seed| (seed, generate(&mut StdRng::seed_from_u64(seed), &config)))
        .find(|(_, spec)| faulted_disagrees(spec, faults))
        .expect("200 generated programs never exercised a runtime add")
}

#[test]
fn injected_vm_miscompile_is_caught_and_shrunk_to_a_tiny_repro() {
    // Sanity: without the fault the oracle agrees on these seeds.
    let config = GenConfig::default();
    for seed in 0..10u64 {
        let spec = generate(&mut StdRng::seed_from_u64(seed), &config);
        run_oracle(Oracle::VmInterp, &spec, DEFAULT_BUDGET)
            .unwrap_or_else(|d| panic!("seed {seed} disagrees before injection: {d}"));
    }

    let faults = add_offset_fault();
    let (seed, spec) = first_tripping_spec(&faults);
    let small = shrink(&spec, |candidate| faulted_disagrees(candidate, &faults));
    assert!(
        faulted_disagrees(&small, &faults),
        "shrunk spec no longer disagrees"
    );
    assert!(
        small.stmt_count() <= 5,
        "seed {seed}: expected a <=5-statement repro, got {} statements:\n{}",
        small.stmt_count(),
        inseq_lang::serial::write_spec(&small)
    );

    // Heal the VM: the same minimized program must agree when built
    // without the fault, which pins the disagreement on the injected fault
    // rather than on a real bug.
    assert!(
        matches!(
            run_oracle(Oracle::VmInterp, &small, DEFAULT_BUDGET),
            Ok(OracleOutcome::Checked)
        ),
        "repro still disagrees after removing the fault"
    );
}

#[test]
fn faulted_and_healthy_vm_runs_of_one_spec_do_not_perturb_each_other() {
    let faults = add_offset_fault();
    let (seed, spec) = first_tripping_spec(&faults);
    std::thread::scope(|s| {
        let faulted = s.spawn(|| (0..8).all(|_| faulted_disagrees(&spec, &faults)));
        let healthy = s.spawn(|| {
            (0..8).all(|_| {
                matches!(
                    run_oracle(Oracle::VmInterp, &spec, DEFAULT_BUDGET),
                    Ok(OracleOutcome::Checked)
                )
            })
        });
        assert!(
            faulted.join().expect("faulted runner"),
            "seed {seed}: a faulted run agreed while a healthy run shared the process"
        );
        assert!(
            healthy.join().expect("healthy runner"),
            "seed {seed}: a healthy run disagreed while a faulted run shared the process"
        );
    });
}
