//! Integration tests for the IS proof rule on small programs, including the
//! paper's §4 cooperation counterexample.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use inseq_core::{
    ArtifactKeys, IncrementalReport, IsApplication, IsReport, IsViolation, Measure,
    ObligationCache, ObligationOutcome,
};
use inseq_engine::{Engine, ParallelExplorer};
use inseq_kernel::demo::cooperation_counterexample;
use inseq_kernel::{ActionOutcome, ActionSemantics, NativeAction, PendingAsync, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};
use inseq_refine::check_program_refinement;

/// A two-adder program: Main spawns Add(1) and Add(2); Add(i) adds i to x.
/// The sequential reduction runs Add(1) then Add(2).
struct Adders {
    program: inseq_kernel::Program,
    init: inseq_kernel::Config,
    invariant: Arc<DslAction>,
    replacement: Arc<DslAction>,
}

fn adders() -> Adders {
    let mut decls = GlobalDecls::new();
    decls.declare("x", Sort::Int);
    let g = Arc::new(decls);

    let addi = DslAction::build("Add", &g)
        .param("i", Sort::Int)
        .body(vec![assign("x", add(var("x"), var("i")))])
        .finish()
        .unwrap();
    let main = DslAction::build("Main", &g)
        .body(vec![
            async_call(&addi, vec![int(1)]),
            async_call(&addi, vec![int(2)]),
        ])
        .finish()
        .unwrap();
    // Inv: choose k in {0..2}; for i in 1..k: call Add(i); for i in k+1..2: async Add(i)
    let invariant = DslAction::build("Inv", &g)
        .local("k", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            choose("k", range(int(0), int(2))),
            for_range("i", int(1), var("k"), vec![call(&addi, vec![var("i")])]),
            for_range(
                "i",
                add(var("k"), int(1)),
                int(2),
                vec![async_call(&addi, vec![var("i")])],
            ),
        ])
        .finish()
        .unwrap();
    // Main': x := x + 3 (the completed sequentialization).
    let replacement = DslAction::build("MainSeq", &g)
        .body(vec![assign("x", add(var("x"), int(3)))])
        .finish()
        .unwrap();

    let program = program_of(&g, [addi, main], "Main").unwrap();
    let init = program
        .initial_config_with(g.initial_store(), vec![])
        .unwrap();
    Adders {
        program,
        init,
        invariant,
        replacement,
    }
}

/// `check_on` over a `workers`-worker parallel exploration of the
/// application's instances.
#[allow(clippy::result_large_err)] // mirrors IsApplication::check's signature
fn check_on_parallel(app: &IsApplication, workers: usize) -> Result<IsReport, IsViolation> {
    let exploration = ParallelExplorer::new(app.program())
        .with_workers(workers)
        .with_budget(app.budget_limit())
        .explore(app.instances().iter().cloned())
        .expect("the instances explore within budget");
    app.check_on(&exploration)
}

/// `check_incremental` on `engine` with a fresh cache and no artifact keys,
/// so every obligation runs as an engine job; `on_outcome` sees each
/// outcome.
#[allow(clippy::result_large_err)] // mirrors IsApplication::check's signature
fn check_on_engine(
    app: &IsApplication,
    engine: &Engine,
    on_outcome: &(dyn Fn(&ObligationOutcome) + Sync),
) -> Result<IncrementalReport, IsViolation> {
    let keys = ArtifactKeys {
        program: 0,
        actions: BTreeMap::new(),
        invariant: 0,
        replacement: 0,
        choice: 0,
    };
    app.check_incremental(engine, &ObligationCache::new(), &keys, on_outcome)
}

/// Asserts that `check_incremental` on a `threads`-thread engine names
/// `sequential` — premise and rendered message — as its first failure.
fn assert_engine_names(app: &IsApplication, threads: usize, sequential: &IsViolation) {
    let incremental = check_on_engine(app, &Engine::new().with_threads(threads), &|_| {})
        .expect("the shared prefix succeeds");
    let failure = incremental.failure.expect("a premise fails");
    assert_eq!(
        failure.premise.as_deref(),
        Some(sequential.premise()),
        "{threads} threads"
    );
    assert_eq!(
        failure.message,
        Some(sequential.to_string()),
        "{threads} threads"
    );
}

fn adders_application(a: &Adders) -> IsApplication {
    IsApplication::new(a.program.clone(), "Main")
        .eliminate("Add")
        .invariant(Arc::clone(&a.invariant) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&a.replacement) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            // Select the Add PA with the smallest parameter.
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "Add")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(a.init.clone())
}

#[test]
fn adders_is_application_passes() {
    let a = adders();
    let report = adders_application(&a).check().expect("all premises hold");
    assert_eq!(report.eliminated_actions, 1);
    assert!(report.induction_steps > 0, "there are partial prefixes");
    assert!(report.invariant_transitions >= 3, "k = 0, 1, 2 prefixes");
}

#[test]
fn adders_transformed_program_is_refined() {
    let a = adders();
    let (p_prime, _) = adders_application(&a).check_and_apply().unwrap();
    // The formal guarantee of IS: P ≼ P[M ↦ M'].
    check_program_refinement(&a.program, &p_prime, [a.init.clone()], 100_000)
        .expect("IS guarantees refinement");
    // And witnesses exist for every terminating store (Fig. 2).
    let ws = inseq_core::rewrite::find_witness_executions(&a.program, &p_prime, a.init, 100_000)
        .unwrap();
    assert_eq!(ws.len(), 1);
    assert_eq!(ws[0].terminal.get(0), &Value::Int(3));
}

#[test]
fn wrong_replacement_is_rejected_by_i2() {
    let a = adders();
    let mut decls = GlobalDecls::new();
    decls.declare("x", Sort::Int);
    let g = Arc::new(decls);
    // A replacement that computes the wrong sum.
    let wrong = DslAction::build("MainSeq", &g)
        .body(vec![assign("x", add(var("x"), int(4)))])
        .finish()
        .unwrap();
    let err = adders_application(&a)
        .replacement(wrong as Arc<dyn ActionSemantics>)
        .check()
        .unwrap_err();
    assert!(
        matches!(err, IsViolation::ReplacementMissesTransition { .. }),
        "got: {err}"
    );
}

#[test]
fn wrong_invariant_is_rejected() {
    let a = adders();
    let mut decls = GlobalDecls::new();
    decls.declare("x", Sort::Int);
    let g = Arc::new(decls);
    // An invariant that forgets to re-spawn the remaining Adds: it is not a
    // superset of Main's transition (which creates two PAs), so (I1) fails.
    let bad_inv = DslAction::build("Inv", &g)
        .body(vec![skip()])
        .finish()
        .unwrap();
    let err = adders_application(&a)
        .invariant(bad_inv as Arc<dyn ActionSemantics>)
        .check()
        .unwrap_err();
    assert!(
        matches!(err, IsViolation::NotInvariantBase { .. }),
        "got: {err}"
    );
}

#[test]
fn bad_choice_function_is_rejected() {
    let a = adders();
    let err = adders_application(&a).choice(|_| None).check().unwrap_err();
    assert!(
        matches!(err, IsViolation::ChoiceInvalid { .. }),
        "got: {err}"
    );
}

#[test]
fn choice_returning_foreign_pa_is_rejected() {
    let a = adders();
    let err = adders_application(&a)
        .choice(|_| Some(PendingAsync::new("Add", vec![Value::Int(99)])))
        .check()
        .unwrap_err();
    assert!(
        matches!(err, IsViolation::ChoiceInvalid { .. }),
        "got: {err}"
    );
}

#[test]
fn missing_artifacts_are_structural_errors() {
    let a = adders();
    let err = IsApplication::new(a.program.clone(), "Main")
        .eliminate("Add")
        .instance(a.init.clone())
        .check()
        .unwrap_err();
    assert!(matches!(err, IsViolation::Structural { .. }));
    let err = adders_application(&a)
        .eliminate("NoSuchAction")
        .check()
        .unwrap_err();
    assert!(matches!(err, IsViolation::Structural { .. }));
}

/// The paper's §4 example showing cooperation is necessary: Main spawns Rec
/// and Fail; Rec respawns itself forever. All premises except (CO) hold with
/// I = Main and an empty-transition M', and (CO) must reject.
#[test]
fn cooperation_counterexample_is_rejected_exactly_by_co() {
    let p = cooperation_counterexample();
    let init = p.initial_config(vec![]).unwrap();
    let main_as_invariant = p.action(&"Main".into()).unwrap().clone();
    // M' := assume false (no transitions, no failure).
    let m_prime: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
        "MainSeq",
        0,
        |_: &inseq_kernel::GlobalStore, _: &[Value]| ActionOutcome::Transitions(vec![]),
    ));
    let app = IsApplication::new(p, "Main")
        .eliminate("Rec")
        .invariant(main_as_invariant)
        .replacement(m_prime)
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Rec")
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init)
        .budget(10_000);
    let err = app.check().unwrap_err();
    assert!(
        matches!(err, IsViolation::CooperationViolated { .. }),
        "the paper's counterexample must be rejected by (CO), got: {err}"
    );
}

/// Checking over a parallel exploration reconstructs witness traces from
/// the shared arena's parent forest: a (CO) counterexample found by
/// `check_on` names a concrete firing sequence, exactly like the sequential
/// path, and the engine-scheduled `check_incremental` renders `check()`'s
/// very violation. (Regression: the sharded explorer used to keep no parent
/// information, so every parallel-path witness was `None`.)
#[test]
fn engine_scheduled_violations_carry_witness_traces() {
    let p = cooperation_counterexample();
    let init = p.initial_config(vec![]).unwrap();
    let main_as_invariant = p.action(&"Main".into()).unwrap().clone();
    let m_prime: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
        "MainSeq",
        0,
        |_: &inseq_kernel::GlobalStore, _: &[Value]| ActionOutcome::Transitions(vec![]),
    ));
    let app = IsApplication::new(p, "Main")
        .eliminate("Rec")
        .invariant(main_as_invariant)
        .replacement(m_prime)
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Rec")
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init)
        .budget(10_000);

    let sequential = app.check().unwrap_err();
    for threads in [1, 2, 4, 8] {
        let parallel = check_on_parallel(&app, threads).unwrap_err();
        assert_eq!(sequential.premise(), parallel.premise());
        let (
            IsViolation::CooperationViolated { witness: seq_w, .. },
            IsViolation::CooperationViolated { witness: par_w, .. },
        ) = (&sequential, &parallel)
        else {
            panic!("expected (CO) from both paths, got: {sequential} / {parallel}");
        };
        assert_eq!(
            seq_w.is_some(),
            par_w.is_some(),
            "both check paths reconstruct a witness whenever the store is \
             reachable ({threads} threads)"
        );
        assert_engine_names(&app, threads, &sequential);
    }
}

#[test]
fn violations_display_readably() {
    let a = adders();
    let err = adders_application(&a).choice(|_| None).check().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("choice"), "got: {text}");
}

/// When several premises fail at once, every check path names the first
/// failure in the canonical premise order. This application breaks both
/// `Add ≼ α(Add)` (an abstraction that drops the update) and (I1) (an
/// invariant that spawns nothing); abstraction soundness comes first.
#[test]
fn several_failing_premises_name_the_same_first_failure_on_every_path() {
    let a = adders();
    let mut decls = GlobalDecls::new();
    decls.declare("x", Sort::Int);
    let g = Arc::new(decls);
    let lossy_alpha = DslAction::build("AddAbs", &g)
        .param("i", Sort::Int)
        .body(vec![skip()])
        .finish()
        .unwrap();
    let bad_inv = DslAction::build("Inv", &g)
        .body(vec![skip()])
        .finish()
        .unwrap();
    let app = adders_application(&a)
        .abstraction("Add", lossy_alpha as Arc<dyn ActionSemantics>)
        .invariant(bad_inv as Arc<dyn ActionSemantics>);

    let sequential = app.check().unwrap_err();
    assert!(
        matches!(sequential, IsViolation::AbstractionNotSound { .. }),
        "got: {sequential}"
    );
    for threads in [1, 2, 4, 8] {
        let parallel = check_on_parallel(&app, threads).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&parallel),
            std::mem::discriminant(&sequential),
            "check_on({threads} workers) reported {parallel}, check() {sequential}"
        );
        assert_eq!(parallel.premise(), sequential.premise());
        assert_engine_names(&app, threads, &sequential);
    }
}

/// An engine that has shut down runs no obligation, so there is no verdict
/// to report: the check fails, naming the first obligation and why it did
/// not run, instead of passing or panicking.
#[test]
fn a_shut_down_engine_yields_no_verdict() {
    let a = adders();
    let engine = Engine::new().with_threads(2);
    engine.shutdown();
    let err = check_on_engine(&adders_application(&a), &engine, &|_| {}).unwrap_err();
    assert!(matches!(err, IsViolation::Exploration { .. }), "got: {err}");
    let text = err.to_string();
    assert!(
        text.contains("Add ≼ α") && text.contains("shut down"),
        "got: {text}"
    );
}

/// An obligation whose check panics has no verdict either, but the engine
/// keeps running the others, and the error names the obligation and
/// carries the panic message.
#[test]
fn a_panicking_obligation_names_itself_and_its_panic() {
    let a = adders();
    let exploding: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
        "AddAbs",
        1,
        |_: &inseq_kernel::GlobalStore, _: &[Value]| -> ActionOutcome {
            panic!("the abstraction exploded")
        },
    ));
    let app = adders_application(&a).abstraction("Add", exploding);
    let reported = Mutex::new(Vec::new());
    let err = check_on_engine(&app, &Engine::new().with_threads(2), &|o| {
        reported.lock().unwrap().push(o.kind.label());
    })
    .unwrap_err();
    assert!(matches!(err, IsViolation::Exploration { .. }), "got: {err}");
    let text = err.to_string();
    assert!(
        text.contains("Add ≼ α") && text.contains("the abstraction exploded"),
        "got: {text}"
    );
    // (I1) and (I2) do not evaluate the abstraction: they ran to the end.
    let reported = reported.into_inner().unwrap();
    for label in ["(I1) M ≼ I", "(I2) I∖PA_E ≼ M'"] {
        assert!(
            reported.iter().any(|l| l == label),
            "`{label}` not reported: {reported:?}"
        );
    }
}
