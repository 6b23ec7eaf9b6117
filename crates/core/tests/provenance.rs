//! Witness provenance of IS violations. The invariant's transitions add
//! pseudo-configurations to the quantification universe; a violation at a
//! store only they produce has no witness run, and a violation at a store
//! the program also reaches names a reachable configuration, even when an
//! invariant transition produced the same store with another bag.

use std::sync::Arc;

use inseq_core::{IsApplication, IsViolation, Measure};
use inseq_engine::Engine;
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

/// Both check paths report the same (I3) gate violation; returns its store
/// and witness.
fn gate_violation(app: &IsApplication) -> (GlobalStore, Option<inseq_kernel::Trace>) {
    let sequential = app.check().unwrap_err();
    let parallel = app.check_with(&Engine::new().with_threads(2)).unwrap_err();
    assert_eq!(sequential.to_string(), parallel.to_string());
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
