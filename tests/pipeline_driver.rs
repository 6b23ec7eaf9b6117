//! The proof pipeline driver (`protocols::common::Proof::run`) against the
//! step-by-step public functions it replaces: `check_program_refinement` /
//! `check_observed_refinement` for `P1 ≼ P2`, `IsChain::run`,
//! `check_program_refinement` for `P2 ≼ P'`, and `check_spec` on `P'` and
//! `P2`. The driver explores each (program, init) once and hands the
//! exploration to every step that reads it; these tests pin that the
//! sharing changes no count, statistic or error text, and that it happens.

use std::sync::Arc;

use inductive_sequentialization::core::chain::IsChain;
use inductive_sequentialization::core::{IsReport, IsStats};
use inductive_sequentialization::kernel::{ActionSemantics, Explorer, Program};
use inductive_sequentialization::protocols::common::{
    check_spec, CaseError, CaseReport, Proof, Refinement,
};
use inductive_sequentialization::protocols::{
    broadcast, chang_roberts, n_buyer, paxos, paxos_impl, ping_pong, producer_consumer,
    two_phase_commit,
};
use inductive_sequentialization::refine::{
    check_observed_refinement, check_program_refinement, RefinementViolation,
};

#[path = "support/buggy.rs"]
mod buggy;

/// The pipeline as the seven `verify` functions ran it before the driver:
/// one public function per step, each exploring on its own, with the same
/// error texts.
fn step_by_step(
    proof: Proof<'_>,
    p1_p2: impl FnOnce(usize) -> Result<(), RefinementViolation>,
) -> Result<Vec<IsReport>, CaseError> {
    let Proof {
        name,
        budget,
        p2,
        init,
        chain,
        spec,
        ..
    } = proof;
    p1_p2(budget).map_err(|e| CaseError::new(name, format!("P1 ⋠ P2: {e}")))?;
    let outcome = chain.run().map_err(|e| CaseError::new(name, e))?;
    check_program_refinement(p2, &outcome.program, [init.clone()], budget)
        .map_err(|e| CaseError::new(name, format!("P2 ⋠ P': {e}")))?;
    check_spec(&outcome.program, init.clone(), budget, &spec)
        .map_err(|e| CaseError::new(name, e))?;
    check_spec(p2, init, budget, &spec).map_err(|e| CaseError::new(name, e))?;
    Ok(outcome.reports)
}

/// Both ways of running one proof, each on its own build of the artifacts
/// (action evaluation counters are per action object).
type Both = (
    Result<CaseReport, CaseError>,
    Result<Vec<IsReport>, CaseError>,
);

/// The driver and the step-by-step pipeline of a protocol whose `P1` and
/// `P2` share a schema, at `$instance` (an expression, evaluated per use).
macro_rules! both_ways {
    ($module:ident, $instance:expr) => {{
        let (a, b) = ($module::build(), $module::build());
        let driver = $module::proof(&a, $instance).run();
        let reference = step_by_step($module::proof(&b, $instance), |budget| {
            let init1 = $module::init_config(&b.p1, &b, $instance);
            check_program_refinement(&b.p1, &b.p2, [init1], budget)
        });
        (driver, reference)
    }};
}

fn paxos_both(instance: paxos::Instance) -> Both {
    let (a, b) = (paxos::build(), paxos::build());
    let (impl_a, impl_b) = (paxos_impl::build(), paxos_impl::build());
    let driver = paxos::proof(&a, &impl_a, instance).run();
    let reference = step_by_step(paxos::proof(&b, &impl_b, instance), |budget| {
        paxos_impl::check_implements_abstract(instance, budget)
    });
    (driver, reference)
}

/// Everything in the IS statistics that does not measure time: the
/// exploration's interner and successor-cache traffic, the mover checker's,
/// the premise list and its item counts. The action evaluation count is
/// the lifetime total of the program's actions, so it drops by the
/// explorations the driver saved.
fn assert_same_stats(what: &str, driver: &IsStats, reference: &IsStats) {
    assert_eq!(driver.intern, reference.intern, "{what}: interner");
    assert_eq!(
        driver.succ_cache, reference.succ_cache,
        "{what}: successor cache"
    );
    assert_eq!(
        driver.mover_cache, reference.mover_cache,
        "{what}: mover cache"
    );
    assert_eq!(
        driver.pairwise_checks, reference.pairwise_checks,
        "{what}: pairwise"
    );
    let phases = |s: &IsStats| -> Vec<(String, usize)> {
        s.premises
            .iter()
            .map(|p| (p.name.clone(), p.items))
            .collect()
    };
    assert_eq!(phases(driver), phases(reference), "{what}: premises");
    let (d, r) = (driver.exec, reference.exec);
    assert_eq!(
        (d.compiled_actions, d.compiled_ops, d.interp_evals),
        (r.compiled_actions, r.compiled_ops, r.interp_evals),
        "{what}: compiled code"
    );
    assert!(d.vm_evals <= r.vm_evals, "{what}: VM evaluations");
}

/// Asserts that both ways agree, and that the driver explored each
/// (program, init) of a passing proof exactly once: `P1`, `P2`, the
/// program each IS application after the first runs on, and `P'` are
/// `#IS + 2` distinct pairs, each of which some step must explore.
fn assert_agree(case: &str, (driver, reference): Both) {
    match (driver, reference) {
        (Ok(run), Ok(reports)) => {
            assert_eq!(run.reports, reports, "{case}: IS counts");
            for (i, (d, r)) in run.reports.iter().zip(&reports).enumerate() {
                assert_same_stats(&format!("{case} IS {}", i + 1), &d.stats, &r.stats);
            }
            assert_eq!(run.explorations, reports.len() + 2, "{case}: explorations");
            let steps: Vec<&str> = run.steps.iter().map(|s| s.step.as_str()).collect();
            let mut want = vec!["P1 ≼ P2".to_owned()];
            want.extend((1..=reports.len()).map(|i| format!("IS {i}")));
            want.extend(["P2 ≼ P'", "spec P'", "spec P2"].map(str::to_owned));
            assert_eq!(steps, want, "{case}: steps");
        }
        (Err(driver), Err(reference)) => {
            assert_eq!(driver.to_string(), reference.to_string(), "{case}: error");
        }
        (driver, reference) => {
            panic!("{case}: the driver gave {driver:?}, step by step gave {reference:?}")
        }
    }
}

#[test]
fn driver_matches_step_by_step_on_the_table1_instances() {
    assert_agree(
        "Broadcast",
        both_ways!(broadcast, &broadcast::Instance::new(&[3, 1, 2])),
    );
    assert_agree(
        "Ping-Pong",
        both_ways!(ping_pong, ping_pong::Instance::new(4)),
    );
    assert_agree(
        "Producer-Consumer",
        both_ways!(producer_consumer, producer_consumer::Instance::new(4)),
    );
    assert_agree(
        "N-Buyer",
        both_ways!(n_buyer, &n_buyer::Instance::new(10, &[6, 6, 9])),
    );
    assert_agree(
        "Chang-Roberts",
        both_ways!(chang_roberts, &chang_roberts::Instance::new(&[10, 30, 20])),
    );
    assert_agree(
        "Two-phase commit",
        both_ways!(
            two_phase_commit,
            &two_phase_commit::Instance::new(&[true, false, true])
        ),
    );
    assert_agree("Paxos", paxos_both(paxos::Instance::new(2, 2)));
}

#[test]
fn driver_matches_step_by_step_on_the_small_instances() {
    assert_agree(
        "Broadcast",
        both_ways!(broadcast, &broadcast::Instance::new(&[3, 1])),
    );
    assert_agree(
        "Ping-Pong",
        both_ways!(ping_pong, ping_pong::Instance::new(2)),
    );
    assert_agree(
        "Producer-Consumer",
        both_ways!(producer_consumer, producer_consumer::Instance::new(2)),
    );
    assert_agree(
        "N-Buyer",
        both_ways!(n_buyer, &n_buyer::Instance::new(10, &[6, 6])),
    );
    assert_agree(
        "Chang-Roberts",
        both_ways!(chang_roberts, &chang_roberts::Instance::new(&[20, 10])),
    );
    assert_agree(
        "Two-phase commit",
        both_ways!(
            two_phase_commit,
            &two_phase_commit::Instance::new(&[true, false])
        ),
    );
    assert_agree("Paxos", paxos_both(paxos::Instance::new(1, 2)));
}

/// Rebases a chain's first application onto `program`, as the driver does.
fn starting_at(chain: IsChain, program: &Program) -> IsChain {
    let mut steps = chain.into_steps().into_iter();
    let first = steps.next().expect("a non-empty chain");
    steps.fold(
        IsChain::new().then(first.with_program(program.clone())),
        IsChain::then,
    )
}

/// Both ways on a protocol whose `P2` has `action` replaced by a buggy one;
/// `P1` is the correct implementation.
macro_rules! buggy_both_ways {
    ($module:ident, $instance:expr, $action:literal, $buggy:path) => {{
        let (a, b) = ($module::build(), $module::build());
        let bug_a =
            a.p2.with_action($action, $buggy(&a) as Arc<dyn ActionSemantics>);
        let bug_b =
            b.p2.with_action($action, $buggy(&b) as Arc<dyn ActionSemantics>);
        let mut driver = $module::proof(&a, $instance);
        driver.p2 = &bug_a;
        let mut reference = $module::proof(&b, $instance);
        reference.p2 = &bug_b;
        reference.chain = starting_at(reference.chain, &bug_b);
        let reference = step_by_step(reference, |budget| {
            let init1 = $module::init_config(&b.p1, &b, $instance);
            check_program_refinement(&b.p1, &bug_b, [init1], budget)
        });
        (driver.run(), reference)
    }};
}

#[test]
fn buggy_protocols_fail_with_the_same_error_both_ways() {
    let (driver, reference) = buggy_both_ways!(
        broadcast,
        &broadcast::Instance::new(&[3, 1]),
        "Collect",
        buggy::undercounting_collect
    );
    assert!(driver.is_err(), "the undercounting Collect must be caught");
    assert_agree("buggy Broadcast", (driver, reference));

    let (driver, reference) = buggy_both_ways!(
        two_phase_commit,
        &two_phase_commit::Instance::new(&[true, false]),
        "Decide",
        buggy::overeager_decide
    );
    assert!(driver.is_err(), "the over-eager coordinator must be caught");
    assert_agree("buggy 2PC", (driver, reference));

    let instance = paxos::Instance::new(2, 2);
    let (a, b) = (paxos::build(), paxos::build());
    let (impl_a, impl_b) = (paxos_impl::build(), paxos_impl::build());
    let bug_a = a.p2.with_action(
        "Propose",
        buggy::fresh_value_propose(&a) as Arc<dyn ActionSemantics>,
    );
    let bug_b = b.p2.with_action(
        "Propose",
        buggy::fresh_value_propose(&b) as Arc<dyn ActionSemantics>,
    );
    let mut driver = paxos::proof(&a, &impl_a, instance);
    driver.p2 = &bug_a;
    let mut reference = paxos::proof(&b, &impl_b, instance);
    reference.p2 = &bug_b;
    reference.chain = starting_at(reference.chain, &bug_b);
    let reference = step_by_step(reference, |budget| {
        let init1 = paxos_impl::init_config(&impl_b, instance);
        let init2 = paxos::init_config(&bug_b, &b, instance);
        let rounds = instance.rounds;
        check_observed_refinement(
            &impl_b.p1,
            &bug_b,
            [(init1, init2)],
            budget,
            |s| paxos_impl::observe(s, &impl_b.decls, rounds),
            |s| paxos_impl::observe(s, &b.decls, rounds),
        )
    });
    let driver = driver.run();
    assert!(driver.is_err(), "fresh-value Paxos must be caught");
    assert_agree("buggy Paxos", (driver, reference));
}

/// Both ways on a buggy `P2` that also stands in for `P1`, so `P1 ≼ P2`
/// holds and the bug surfaces at a later step.
macro_rules! buggy_past_p1_both_ways {
    ($module:ident, $instance:expr, $action:literal, $buggy:path $(, $impl:expr)?) => {{
        let (a, b) = ($module::build(), $module::build());
        let bug_a =
            a.p2.with_action($action, $buggy(&a) as Arc<dyn ActionSemantics>);
        let bug_b =
            b.p2.with_action($action, $buggy(&b) as Arc<dyn ActionSemantics>);
        let mut driver = $module::proof(&a, $($impl,)? $instance);
        driver.p2 = &bug_a;
        driver.refinement =
            Refinement::program(&bug_a, $module::init_config(&bug_a, &a, $instance));
        let mut reference = $module::proof(&b, $($impl,)? $instance);
        reference.p2 = &bug_b;
        reference.chain = starting_at(reference.chain, &bug_b);
        let reference = step_by_step(reference, |budget| {
            let init = $module::init_config(&bug_b, &b, $instance);
            check_program_refinement(&bug_b, &bug_b, [init], budget)
        });
        (driver.run(), reference)
    }};
}

#[test]
fn buggy_protocols_past_p1_p2_fail_with_the_same_error_both_ways() {
    let both = buggy_past_p1_both_ways!(
        broadcast,
        &broadcast::Instance::new(&[3, 1]),
        "Collect",
        buggy::undercounting_collect
    );
    assert_fails_past_p1("buggy Broadcast", both);
    let both = buggy_past_p1_both_ways!(
        two_phase_commit,
        &two_phase_commit::Instance::new(&[true, false]),
        "Decide",
        buggy::overeager_decide
    );
    assert_fails_past_p1("buggy 2PC", both);
    let impl_artifacts = paxos_impl::build();
    let both = buggy_past_p1_both_ways!(
        paxos,
        paxos::Instance::new(2, 2),
        "Propose",
        buggy::fresh_value_propose,
        &impl_artifacts
    );
    assert_fails_past_p1("buggy Paxos", both);
}

fn assert_fails_past_p1(case: &str, (driver, reference): Both) {
    let err = driver.as_ref().expect_err("the bug must be caught");
    assert!(!err.message.starts_with("P1 ⋠ P2"), "{case}: {err}");
    assert_agree(case, (driver, reference));
}

/// The configuration count of `P2`'s exploration from its init.
fn p2_configs(
    artifacts: &two_phase_commit::Artifacts,
    instance: &two_phase_commit::Instance,
) -> usize {
    let init = two_phase_commit::init_config(&artifacts.p2, artifacts, instance);
    Explorer::new(&artifacts.p2)
        .explore([init])
        .expect("2PC explores")
        .config_count()
}

#[test]
fn an_is_budget_below_p2s_size_reports_the_is_steps_own_error() {
    let instance = two_phase_commit::Instance::new(&[true, false, true]);
    let artifacts = two_phase_commit::build();
    let configs = p2_configs(&artifacts, &instance);

    // One configuration short: the IS step explores with its own budget.
    let app = two_phase_commit::application(&artifacts, &instance).budget(configs - 1);
    let own = app.check().expect_err("the budget is too small");
    let mut proof = two_phase_commit::proof(&artifacts, &instance);
    proof.chain = IsChain::new().then(app);
    let err = proof.run().expect_err("the IS step runs out of budget");
    assert_eq!(
        err.to_string(),
        CaseError::new("Two-phase commit", &own).to_string()
    );
    assert!(err.message.contains("budget"), "{err}");

    // Exactly enough: the IS step reuses `P2`'s exploration from `P1 ≼ P2`.
    let app = two_phase_commit::application(&artifacts, &instance).budget(configs);
    let own = app.check().expect("the budget covers P2");
    let mut proof = two_phase_commit::proof(&artifacts, &instance);
    proof.chain = IsChain::new().then(app);
    let run = proof.run().expect("the pipeline passes");
    assert_eq!(run.reports, [own]);
    assert_eq!(run.explorations, 3, "P1, P2 and P', once each");
}
