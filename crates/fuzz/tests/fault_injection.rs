//! End-to-end proof that the battery has teeth: deliberately miscompile the
//! VM (the `fault-injection` feature skews every runtime integer addition)
//! and check that the `vm-interp` oracle catches it and the shrinker
//! minimizes the disagreeing program to a handful of statements.
//!
//! This lives in its own integration-test binary so the process-global
//! fault offset cannot leak into any other test.

use inseq_fuzz::oracles::{disagrees, run_oracle, Oracle, OracleOutcome, DEFAULT_BUDGET};
use inseq_fuzz::shrink::shrink;
use inseq_fuzz::{generate, GenConfig};
use inseq_lang::fault::{set_vm_add_offset, vm_add_offset};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn injected_vm_miscompile_is_caught_and_shrunk_to_a_tiny_repro() {
    assert_eq!(vm_add_offset(), 0, "offset must start at identity");

    // Sanity: with the identity offset the oracle agrees on these seeds.
    let config = GenConfig::default();
    for seed in 0..10u64 {
        let spec = generate(&mut StdRng::seed_from_u64(seed), &config);
        run_oracle(Oracle::VmInterp, &spec, DEFAULT_BUDGET)
            .unwrap_or_else(|d| panic!("seed {seed} disagrees before injection: {d}"));
    }

    // Inject: the VM now computes `a + b + 1` for every runtime addition.
    set_vm_add_offset(1);
    let found = (0..200u64).find_map(|seed| {
        let spec = generate(&mut StdRng::seed_from_u64(seed), &config);
        match run_oracle(Oracle::VmInterp, &spec, DEFAULT_BUDGET) {
            Err(_) => Some((seed, spec)),
            Ok(_) => None,
        }
    });
    let (seed, spec) = found.expect("200 generated programs never exercised a runtime add");

    let small = shrink(&spec, |candidate| {
        disagrees(Oracle::VmInterp, candidate, DEFAULT_BUDGET)
    });
    assert!(
        disagrees(Oracle::VmInterp, &small, DEFAULT_BUDGET),
        "shrunk spec no longer disagrees"
    );
    assert!(
        small.stmt_count() <= 5,
        "seed {seed}: expected a <=5-statement repro, got {} statements:\n{}",
        small.stmt_count(),
        inseq_lang::serial::write_spec(&small)
    );

    // Heal the VM: the same minimized program must now agree, which pins
    // the disagreement on the injected fault rather than on a real bug.
    set_vm_add_offset(0);
    assert!(
        matches!(
            run_oracle(Oracle::VmInterp, &small, DEFAULT_BUDGET),
            Ok(OracleOutcome::Checked)
        ),
        "repro still disagrees after removing the fault"
    );
}
