//! End-to-end proof that the `reduce` oracle has teeth: deliberately break
//! the ample rule (the faulted run builds its `Reducer` with
//! `Reducer::unsound_prune`, which prunes on the first enabled candidate
//! with no commutation check) and check that the oracle catches the
//! resulting verdict flip.
//!
//! The fault belongs to the faulted run's own reducer, so a healthy run of
//! the same spec in the same process — even concurrently — stays sound.

use inseq_fuzz::oracles::{
    run_oracle, run_oracle_with, Faults, Oracle, OracleOutcome, DEFAULT_BUDGET,
};
use inseq_fuzz::{generate, GenConfig};
use inseq_kernel::Value;
use inseq_lang::spec::{ActionSpec, ProgramSpec, SpecStmt};
use inseq_lang::{BinOp, Expr, Sort};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonical program an unsound ample rule gets wrong: two initially
/// pending actions where only the `BChecker`-first order fails.
///
/// * `AWriter` sets `x := 1`.
/// * `BChecker` asserts `x != 0`, which fails exactly when it runs first.
///
/// Unreduced exploration tries both orders and reports the failure. The
/// faulted `Reducer` prunes to the first enabled pending — `AWriter`, which
/// sorts before `BChecker` in the canonical pending order — so the reduced
/// run only ever sees the safe schedule and reports no failure: a verdict
/// flip the oracle must catch. The *sound* rule keeps both orders, because
/// the pair's joint outcomes differ (one order fails), so the same program
/// also pins that soundness is restored once the fault is healed.
fn order_sensitive_spec() -> ProgramSpec {
    let checker_body = vec![SpecStmt::Assert(
        Expr::Bin(
            BinOp::Ne,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Const(Value::Int(0))),
        ),
        "x still zero".into(),
    )];
    ProgramSpec {
        globals: vec![("x".into(), Sort::Int, Value::Int(0))],
        actions: vec![
            ActionSpec {
                name: "AWriter".into(),
                params: Vec::new(),
                locals: Vec::new(),
                body: vec![SpecStmt::Assign("x".into(), Expr::Const(Value::Int(1)))],
            },
            ActionSpec {
                name: "BChecker".into(),
                params: Vec::new(),
                locals: Vec::new(),
                body: checker_body,
            },
        ],
        main: "AWriter".into(),
        pending: vec![
            ("AWriter".into(), Vec::new()),
            ("BChecker".into(), Vec::new()),
        ],
    }
}

fn unsound_prune() -> Faults {
    Faults {
        unsound_prune: true,
        ..Faults::default()
    }
}

fn agrees(spec: &ProgramSpec) -> bool {
    matches!(
        run_oracle(Oracle::Reduce, spec, DEFAULT_BUDGET),
        Ok(OracleOutcome::Checked)
    )
}

fn faulted_disagrees(spec: &ProgramSpec) -> bool {
    run_oracle_with(Oracle::Reduce, spec, DEFAULT_BUDGET, &unsound_prune()).is_err()
}

#[test]
fn injected_unsound_pruning_is_caught_by_the_reduce_oracle() {
    let spec = order_sensitive_spec();

    // Sanity: the sound reduction agrees on the handcrafted program and on
    // a batch of generated ones.
    assert!(
        agrees(&spec),
        "sound reduction disagrees on the handcrafted program"
    );
    let config = GenConfig::default();
    for seed in 0..10u64 {
        let generated = generate(&mut StdRng::seed_from_u64(seed), &config);
        run_oracle(Oracle::Reduce, &generated, DEFAULT_BUDGET)
            .unwrap_or_else(|d| panic!("seed {seed} disagrees before injection: {d}"));
    }

    // Inject: the faulted run's Reducer prunes to the first enabled pending
    // with no commutation check. The pruned schedule is the only failing
    // one, so the reduced verdict flips and the oracle must notice.
    assert!(
        faulted_disagrees(&spec),
        "the reduce oracle missed an unsound pruning rule that hides the \
         only failing schedule"
    );

    // Heal: the same program must agree again, pinning the disagreement on
    // the injected fault rather than on a real reduction bug.
    assert!(
        agrees(&spec),
        "repro still disagrees after removing the fault"
    );
}

#[test]
fn faulted_and_healthy_reduce_runs_of_one_spec_do_not_perturb_each_other() {
    let spec = order_sensitive_spec();
    std::thread::scope(|s| {
        let faulted = s.spawn(|| (0..16).all(|_| faulted_disagrees(&spec)));
        let healthy = s.spawn(|| (0..16).all(|_| agrees(&spec)));
        assert!(
            faulted.join().expect("faulted runner"),
            "a faulted run agreed while a healthy run shared the process"
        );
        assert!(
            healthy.join().expect("healthy runner"),
            "a healthy run disagreed while a faulted run shared the process"
        );
    });
}
