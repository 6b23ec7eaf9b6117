//! The full Fig. 1 pipeline as one chain of refinement steps, each link an
//! IS transformation or a classic program refinement — the integration the
//! paper describes in §5.1 — driven by the Table-1 proof driver.

use std::sync::Arc;

use inductive_sequentialization::kernel::{
    ActionOutcome, ActionSemantics, GlobalStore, NativeAction, Transition, Value,
};
use inductive_sequentialization::protocols::broadcast;
use inductive_sequentialization::protocols::common::Refinement;

#[test]
fn broadcast_as_a_four_layer_proof() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();

    // P1 ≼ P2 (reduction to atomic actions, Fig. 1 ① → ②), the two IS
    // applications of §5.3 (P2 ≼ P2' ≼ P2''), then the end-to-end
    // refinement and the consensus spec on the final program and on P2.
    let report = broadcast::proof(&artifacts, &instance)
        .run()
        .expect("every step is justified");

    assert_eq!(report.is_applications, 2, "P1, P2, P2', P2''");
    let steps: Vec<&str> = report.steps.iter().map(|s| s.step.as_str()).collect();
    assert_eq!(
        steps,
        ["P1 ≼ P2", "IS 1", "IS 2", "P2 ≼ P'", "spec P'", "spec P2"]
    );
    assert_eq!(report.explorations, report.is_applications + 2);
}

#[test]
fn a_lying_layer_is_rejected_with_its_index() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let init = broadcast::init_config(&artifacts.p2, &artifacts, &instance);

    // Claim that P2 refines a program whose Broadcast is a no-op: P2
    // reaches stores the crippled program never does.
    let noop = NativeAction::new("Noop", 1, |g: &GlobalStore, _: &[Value]| {
        ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
    });
    let crippled = artifacts
        .p2
        .with_action("Broadcast", Arc::new(noop) as Arc<dyn ActionSemantics>);

    let mut proof = broadcast::proof(&artifacts, &instance);
    proof.refinement = Refinement::program(&artifacts.p2, init);
    proof.p2 = &crippled;
    let err = proof.run().unwrap_err();
    assert!(err.message.starts_with("P1 ⋠ P2"), "{err}");
}
