//! Witness provenance of IS violations. The invariant's transitions add
//! pseudo-configurations to the quantification universe; a violation at a
//! store only they produce has no witness run, and a violation at a store
//! the program also reaches names a reachable configuration, even when an
//! invariant transition produced the same store with another bag.

use std::collections::BTreeMap;
use std::sync::Arc;

use inseq_core::{ArtifactKeys, IsApplication, IsViolation, Measure, ObligationCache};
use inseq_engine::{Engine, ParallelExplorer};
use inseq_kernel::demo::counter_program;
use inseq_kernel::{
    ActionOutcome, ActionSemantics, Config, Explorer, GlobalStore, Multiset, NativeAction,
    PendingAsync, Transition, Value,
};

fn counter(n: i64) -> GlobalStore {
    GlobalStore::new(vec![Value::Int(n)])
}

fn incs(n: usize) -> Multiset<PendingAsync> {
    let mut bag = Multiset::new();
    bag.insert_n(PendingAsync::new("Inc", vec![]), n);
    bag
}

/// `Inc` with a gate that fails at counter value `bad`.
fn inc_failing_at(bad: i64) -> Arc<dyn ActionSemantics> {
    Arc::new(NativeAction::new(
        "Inc",
        0,
        move |g: &GlobalStore, _: &[Value]| {
            let n = g.get(0).as_int();
            if n == bad {
                return ActionOutcome::Failure {
                    reason: format!("counter is {bad}"),
                };
            }
            ActionOutcome::Transitions(vec![Transition::pure(counter(n + 1))])
        },
    ))
}

/// The counter program's IS application with the given abstraction of
/// `Inc`. The invariant's partial sequentializations are those of the
/// program, plus `(1, ∅)` — a store `P` reaches, with a bag it never has —
/// and `(7, {Inc})`, a store only the invariant reaches.
fn application(alpha: Arc<dyn ActionSemantics>) -> IsApplication {
    let program = counter_program();
    let init = program.initial_config(vec![]).unwrap();
    let invariant: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
        "Inv",
        0,
        |_: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![
                Transition::new(counter(0), incs(2)),
                Transition::new(counter(1), incs(1)),
                Transition::pure(counter(1)),
                Transition::pure(counter(2)),
                Transition::new(counter(7), incs(1)),
            ])
        },
    ));
    let replacement: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
        "MainSeq",
        0,
        |_: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![
                Transition::pure(counter(1)),
                Transition::pure(counter(2)),
            ])
        },
    ));
    IsApplication::new(program, "Main")
        .eliminate("Inc")
        .abstraction("Inc", alpha)
        .invariant(invariant)
        .replacement(replacement)
        .choice(|t| t.created.distinct().next().cloned())
        .measure(Measure::pending_async_count())
        .instance(init)
}

/// Every check path reports the same (I3) gate violation — `check()`,
/// `check_on` over a 2-worker parallel exploration (the counter program has
/// one run, so even its witness is the same) and the engine-scheduled
/// `check_incremental`; returns its store and witness.
fn gate_violation(app: &IsApplication) -> (GlobalStore, Option<inseq_kernel::Trace>) {
    let sequential = app.check().unwrap_err();
    let exploration = ParallelExplorer::new(app.program())
        .with_workers(2)
        .with_budget(app.budget_limit())
        .explore(app.instances().iter().cloned())
        .unwrap();
    let parallel = app.check_on(&exploration).unwrap_err();
    assert_eq!(sequential.to_string(), parallel.to_string());
    let keys = ArtifactKeys {
        program: 0,
        actions: BTreeMap::new(),
        invariant: 0,
        replacement: 0,
        choice: 0,
    };
    let failure = app
        .check_incremental(
            &Engine::new().with_threads(2),
            &ObligationCache::new(),
            &keys,
            &|_| {},
        )
        .unwrap()
        .failure
        .expect("the gate violation is reported");
    assert_eq!(failure.premise.as_deref(), Some(sequential.premise()));
    assert_eq!(failure.message, Some(sequential.to_string()));
    match sequential {
        IsViolation::AbstractionGateNotDischarged { store, witness, .. } => (store, witness),
        other => panic!("expected an (I3) gate violation, got: {other}"),
    }
}

#[test]
fn a_store_only_the_invariant_reaches_has_no_witness() {
    let (store, witness) = gate_violation(&application(inc_failing_at(7)));
    assert_eq!(store, counter(7));
    assert!(witness.is_none(), "no run of P reaches counter = 7");
}

#[test]
fn a_store_reached_both_ways_names_the_reachable_configuration() {
    let app = application(inc_failing_at(1));
    let (store, witness) = gate_violation(&app);
    assert_eq!(store, counter(1));
    let witness = witness.expect("P reaches counter = 1");
    let end = witness.last().expect("the store is not initial");
    // The reachable configuration, not the invariant's `(1, ∅)`.
    assert_eq!(end, &Config::new(counter(1), incs(1)));
    let exp = Explorer::new(app.program())
        .explore(app.instances().iter().cloned())
        .unwrap();
    assert_eq!(exp.trace_to(end), Some(witness));
}
