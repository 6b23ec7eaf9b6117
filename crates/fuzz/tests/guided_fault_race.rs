//! Fault-injection proof for the guided campaign: with the VM deliberately
//! miscompiled (the `fault-injection` feature offsets every runtime integer
//! addition), a guided campaign must find a battery disagreement at least
//! as fast — in iterations-to-find, on the same seed stream — as a blind
//! campaign, and the finding must shrink to a replayable repro.
//!
//! Guidance must never *hide* a fault: mutation only changes which programs
//! run, and the battery inspects every one of them. The fault travels in the
//! campaign configuration and reaches only the programs that campaign
//! builds.
//!
//! Both campaigns are deterministic, so the iteration counts compared here
//! are exact, not statistics.

use inseq_fuzz::campaign::{run_campaign, CampaignConfig, CampaignResult};
use inseq_fuzz::oracles::{run_oracle, run_oracle_with, Faults, Oracle, OracleOutcome};
use inseq_fuzz::shrink::shrink;
use inseq_lang::spec::ProgramSpec;
use inseq_lang::VmHooks;

const BUDGET: usize = 800;

fn campaign(guided: bool, faults: &Faults) -> CampaignResult {
    run_campaign(
        &CampaignConfig {
            seed: 0,
            iters: 300,
            guided,
            budget: BUDGET,
            faults: faults.clone(),
            ..CampaignConfig::default()
        },
        None,
    )
}

#[test]
fn guided_campaign_finds_the_injected_fault_at_least_as_fast_as_blind() {
    let faults = Faults {
        vm: VmHooks::default().with_add_offset(1),
        ..Faults::default()
    };
    let guided = campaign(true, &faults);
    let blind = campaign(false, &faults);

    let found_at = guided
        .finding
        .as_ref()
        .map(|f| f.iteration)
        .expect("300 guided iterations never tripped the vm-interp oracle");
    // Blind finding is allowed to not exist within the window; guided must
    // then have strictly won. When both find, guided may not be slower.
    if let Some(blind_at) = blind.finding.as_ref().map(|f| f.iteration) {
        assert!(
            found_at <= blind_at,
            "guided took {found_at} iterations, blind only {blind_at}"
        );
    }

    // The finding shrinks to a still-disagreeing repro…
    let finding = guided.finding.as_ref().unwrap();
    assert_eq!(finding.disagreement.oracle, Oracle::VmInterp);
    let disagrees =
        |spec: &ProgramSpec| run_oracle_with(Oracle::VmInterp, spec, BUDGET, &faults).is_err();
    let small = shrink(&finding.spec, disagrees);
    assert!(disagrees(&small), "shrunk repro no longer disagrees");

    // …and a build without the fault clears it, pinning the blame on the
    // fault.
    assert!(
        matches!(
            run_oracle(Oracle::VmInterp, &small, BUDGET),
            Ok(OracleOutcome::Checked)
        ),
        "repro still disagrees after removing the fault"
    );
    assert!(
        small.stmt_count() <= 6,
        "expected a tiny repro, got {} statements:\n{}",
        small.stmt_count(),
        inseq_lang::serial::write_spec(&small)
    );
}
