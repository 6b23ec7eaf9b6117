//! The constructive Fig. 2 permutation on real protocol executions: every
//! terminating interleaving of the concurrent program is rewritten — by
//! commuting abstractions leftwards and absorbing them into the invariant —
//! into a valid execution of the sequentialized program with the same final
//! configuration.

use inductive_sequentialization::core::rewrite::{permute_execution, validate_execution};
use inductive_sequentialization::kernel::Explorer;
use inductive_sequentialization::protocols::{broadcast, producer_consumer, two_phase_commit};

#[test]
fn every_broadcast_interleaving_permutes_to_the_sequentialization() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let app = broadcast::oneshot_application(&artifacts, &instance);
    app.check().expect("IS premises hold");
    let p_prime = app.apply();

    let init = broadcast::init_config(&artifacts.p2, &artifacts, &instance);
    let exp = Explorer::new(&artifacts.p2).explore([init]).unwrap();
    let executions = exp.terminating_executions(&artifacts.p2, 64);
    assert!(!executions.is_empty());

    for exec in &executions {
        validate_execution(&artifacts.p2, exec).expect("input execution is legal");
        let rewritten = permute_execution(&app, exec)
            .unwrap_or_else(|e| panic!("permutation must succeed: {e}"));
        // Same endpoints.
        assert_eq!(rewritten.first().unwrap(), exec.first().unwrap());
        assert_eq!(rewritten.last().unwrap(), exec.last().unwrap());
        // E = {Broadcast, Collect} is everything Main spawns, so the
        // rewritten execution is the single Main' step.
        assert_eq!(rewritten.len(), 1);
        // And it is a legal execution of P' = P[Main ↦ Main'].
        validate_execution(&p_prime, &rewritten).expect("rewritten execution is legal in P'");
    }
}

#[test]
fn partial_elimination_keeps_the_unabsorbed_steps() {
    // The first application of the iterated proof eliminates only
    // Broadcast: rewritten executions still contain the Collect steps.
    let instance = broadcast::Instance::new(&[2, 5]);
    let artifacts = broadcast::build();
    let init = broadcast::init_config(&artifacts.p2, &artifacts, &instance);

    // Reconstruct the first application of the chain.
    let app = inductive_sequentialization::core::IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Broadcast")
        .invariant(artifacts.inv_broadcast.clone()
            as std::sync::Arc<dyn inductive_sequentialization::kernel::ActionSemantics>)
        .replacement(artifacts.main_mid.clone()
            as std::sync::Arc<dyn inductive_sequentialization::kernel::ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "Broadcast")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .instance(init.clone());
    app.check().expect("first application holds");
    let p_prime = app.apply();

    let exp = Explorer::new(&artifacts.p2).explore([init]).unwrap();
    for exec in exp.terminating_executions(&artifacts.p2, 32) {
        let rewritten = permute_execution(&app, &exec)
            .unwrap_or_else(|e| panic!("permutation must succeed: {e}"));
        assert_eq!(rewritten.last().unwrap(), exec.last().unwrap());
        // Collects survive: one Main'' step plus n Collect steps.
        assert_eq!(rewritten.len(), 1 + instance.n as usize);
        assert!(rewritten.steps[1..]
            .iter()
            .all(|s| s.fired.action.as_str() == "Collect"));
        validate_execution(&p_prime, &rewritten).expect("legal in P'");
    }
}

#[test]
fn producer_consumer_interleavings_permute() {
    let instance = producer_consumer::Instance::new(3);
    let artifacts = producer_consumer::build();
    let app = producer_consumer::application(&artifacts, instance);
    app.check().expect("IS holds");
    let p_prime = app.apply();

    let init = producer_consumer::init_config(&artifacts.p2, &artifacts, instance);
    let exp = Explorer::new(&artifacts.p2).explore([init]).unwrap();
    for exec in exp.terminating_executions(&artifacts.p2, 48) {
        let rewritten = permute_execution(&app, &exec)
            .unwrap_or_else(|e| panic!("permutation must succeed: {e}"));
        assert_eq!(rewritten.last().unwrap(), exec.last().unwrap());
        validate_execution(&p_prime, &rewritten).expect("legal in P'");
    }
}

#[test]
fn two_phase_commit_interleavings_permute() {
    let instance = two_phase_commit::Instance::new(&[true, false]);
    let artifacts = two_phase_commit::build();
    let app = two_phase_commit::application(&artifacts, &instance);
    app.check().expect("IS holds");
    let p_prime = app.apply();

    let init = two_phase_commit::init_config(&artifacts.p2, &artifacts, &instance);
    let exp = Explorer::new(&artifacts.p2).explore([init]).unwrap();
    for exec in exp.terminating_executions(&artifacts.p2, 48) {
        let rewritten = permute_execution(&app, &exec)
            .unwrap_or_else(|e| panic!("permutation must succeed: {e}"));
        assert_eq!(rewritten.last().unwrap(), exec.last().unwrap());
        validate_execution(&p_prime, &rewritten).expect("legal in P'");
    }
}

#[test]
fn permutation_rejects_executions_not_starting_with_main() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let app = broadcast::oneshot_application(&artifacts, &instance);
    let init = broadcast::init_config(&artifacts.p2, &artifacts, &instance);
    let exp = Explorer::new(&artifacts.p2).explore([init]).unwrap();
    let mut exec = exp.terminating_executions(&artifacts.p2, 1).remove(0);
    exec.steps.remove(0); // drop the Main step
    assert!(permute_execution(&app, &exec).is_err());
}
