//! Refinement checking between gated atomic actions (Def. 3.1) and between
//! asynchronous programs (Def. 3.2).
//!
//! Both definitions quantify over input stores; this crate discharges them
//! by enumeration — over a caller-supplied set of inputs for actions, and
//! over initialized configurations for programs (computing `Good`/`Trans`
//! summaries with the kernel's exhaustive explorer).
//!
//! # Example
//!
//! ```
//! use inseq_kernel::demo::counter_program;
//! use inseq_refine::check_program_refinement;
//!
//! // Every program refines itself.
//! let p = counter_program();
//! let init = p.initial_config(vec![]).unwrap();
//! check_program_refinement(&p, &p, [init], 100_000)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // refinement counterexamples carry full configurations by design
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use inseq_kernel::{
    ActionOutcome, ActionSemantics, Config, Exploration, ExploreError, Explorer, GlobalStore,
    Program, Value,
};

/// A violated refinement condition with a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementViolation {
    /// Def. 3.1 condition (1): the abstract action does not fail from this
    /// store, but the concrete action does — failures were not preserved.
    FailureNotPreserved {
        /// Input store.
        store: GlobalStore,
        /// Action arguments.
        args: Vec<Value>,
        /// The concrete failure.
        reason: String,
    },
    /// Def. 3.1 condition (2): the concrete action has a transition the
    /// abstract action cannot take (from a store where the abstract action
    /// does not fail).
    TransitionNotAbstracted {
        /// Input store.
        store: GlobalStore,
        /// Action arguments.
        args: Vec<Value>,
        /// The end store of the missing transition.
        target: GlobalStore,
    },
    /// Def. 3.2 condition (1): the abstract program cannot fail from this
    /// initialized configuration, but the concrete one can.
    GoodNotPreserved {
        /// The initialized configuration.
        init: Config,
        /// A failing execution's diagnostic.
        reason: String,
    },
    /// Def. 3.2 condition (2): a terminating store of the concrete program is
    /// not a terminating store of the abstract one.
    SummaryNotIncluded {
        /// The initialized configuration.
        init: Config,
        /// The terminating store unreachable in the abstract program.
        terminal: GlobalStore,
    },
    /// Exploration failed (budget, unknown action, …).
    Exploration(String),
}

impl fmt::Display for RefinementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementViolation::FailureNotPreserved {
                store,
                args,
                reason,
            } => write!(
                f,
                "refinement failed: concrete action fails at {store} with args {args:?} \
                 but the abstract action does not ({reason})"
            ),
            RefinementViolation::TransitionNotAbstracted {
                store,
                args,
                target,
            } => write!(
                f,
                "refinement failed: concrete transition {store} -> {target} with args {args:?} \
                 has no abstract counterpart"
            ),
            RefinementViolation::GoodNotPreserved { init, reason } => write!(
                f,
                "program refinement failed: concrete program can fail from {init} ({reason}) \
                 but the abstract program cannot"
            ),
            RefinementViolation::SummaryNotIncluded { init, terminal } => write!(
                f,
                "program refinement failed: terminating store {terminal} of the concrete \
                 program (from {init}) is not reachable in the abstract program"
            ),
            RefinementViolation::Exploration(msg) => write!(f, "exploration error: {msg}"),
        }
    }
}

impl Error for RefinementViolation {}

impl From<ExploreError> for RefinementViolation {
    fn from(e: ExploreError) -> Self {
        RefinementViolation::Exploration(e.to_string())
    }
}

/// Checks `concrete ≼ abstract` (Def. 3.1) over the given input stores:
/// (1) `ρ_abs ⊆ ρ_con` — wherever the abstract action's gate holds, the
/// concrete one's does too; (2) `ρ_abs ∘ τ_con ⊆ τ_abs` — from such stores,
/// every concrete transition (end store *and* created pending asyncs) is an
/// abstract transition.
///
/// # Errors
///
/// Returns the first violation with a concrete witness.
pub fn check_action_refinement<'a>(
    concrete: &Arc<dyn ActionSemantics>,
    abstrakt: &Arc<dyn ActionSemantics>,
    inputs: impl IntoIterator<Item = (&'a GlobalStore, &'a [Value])>,
) -> Result<(), RefinementViolation> {
    for (store, args) in inputs {
        let abs_out = abstrakt.eval(store, args);
        let abs_ts = match abs_out {
            // Abstract action fails here: both conditions are vacuous.
            ActionOutcome::Failure { .. } => continue,
            ActionOutcome::Transitions(ts) => ts,
        };
        match concrete.eval(store, args) {
            ActionOutcome::Failure { reason } => {
                return Err(RefinementViolation::FailureNotPreserved {
                    store: store.clone(),
                    args: args.to_vec(),
                    reason,
                });
            }
            ActionOutcome::Transitions(con_ts) => {
                for t in con_ts {
                    if !abs_ts.contains(&t) {
                        return Err(RefinementViolation::TransitionNotAbstracted {
                            store: store.clone(),
                            args: args.to_vec(),
                            target: t.globals,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks `p1 ≼ p2` (Def. 3.2) over the given initialized configurations:
/// (1) `Good(P2) ⊆ Good(P1)`; (2) `Good(P2) ∘ Trans(P1) ⊆ Trans(P2)`.
///
/// `budget` bounds each exploration's configuration count. Each init
/// explores `p2` first, and `p1` only when `p2` cannot fail from it; the
/// verdict is then [`check_program_refinement_on`]'s.
///
/// # Errors
///
/// Returns the first violation, or [`RefinementViolation::Exploration`] if a
/// state space exceeds the budget.
pub fn check_program_refinement(
    p1: &Program,
    p2: &Program,
    inits: impl IntoIterator<Item = Config>,
    budget: usize,
) -> Result<(), RefinementViolation> {
    for init in inits {
        let exp2 = Explorer::new(p2)
            .with_budget(budget)
            .explore([init.clone()])?;
        if exp2.has_failure() {
            // The abstract program may fail from here: anything refines it.
            continue;
        }
        let exp1 = Explorer::new(p1)
            .with_budget(budget)
            .explore([init.clone()])?;
        check_program_refinement_on(&exp1, &exp2, &init)?;
    }
    Ok(())
}

/// [`check_program_refinement`] for one initialized configuration `init`,
/// on unreduced explorations of `p1` (`exp1`) and `p2` (`exp2`) from it.
/// `init` only names the start in a violation. `exp1` is not read when
/// `exp2` has a failure, so a caller may skip exploring `p1` then.
///
/// # Errors
///
/// Returns the first violation.
pub fn check_program_refinement_on(
    exp1: &Exploration,
    exp2: &Exploration,
    init: &Config,
) -> Result<(), RefinementViolation> {
    if exp2.has_failure() {
        return Ok(());
    }
    let terminal2: BTreeSet<&GlobalStore> = exp2.terminal_stores().collect();
    check_concrete(exp1, init, |terminal| terminal2.contains(terminal))
}

/// Conditions (1) and (2) on the concrete side: `exp1` must not fail, and
/// every terminating store of it must be `included`.
fn check_concrete(
    exp1: &Exploration,
    init: &Config,
    included: impl Fn(&GlobalStore) -> bool,
) -> Result<(), RefinementViolation> {
    if exp1.has_failure() {
        let reason = exp1
            .failure_reports()
            .into_iter()
            .next()
            .unwrap_or_default();
        return Err(RefinementViolation::GoodNotPreserved {
            init: init.clone(),
            reason,
        });
    }
    match exp1.terminal_stores().find(|t| !included(t)) {
        Some(terminal) => Err(RefinementViolation::SummaryNotIncluded {
            init: init.clone(),
            terminal: terminal.clone(),
        }),
        None => Ok(()),
    }
}

/// Checks refinement **up to observation**: like
/// [`check_program_refinement`], but the programs may have different global
/// schemas; terminating stores are compared after applying per-program
/// observation functions. This realizes the variable introduction/hiding
/// refinement steps of CIVL's layered programs (used by the paper's Paxos
/// proof to replace `acceptorState`/`joinChannel`/`voteChannel` with
/// `joinedNodes`/`voteInfo`): the concrete and abstract programs agree on
/// the *observable* summary, not the raw stores.
///
/// `inits` pairs an initialized configuration of `p1` with the
/// corresponding one of `p2`. As in [`check_program_refinement`], `p2` is
/// explored first and `p1` only when `p2` cannot fail.
///
/// # Errors
///
/// Returns the first violation (failures must be preserved; every observed
/// terminating store of `p1` must be an observed terminating store of `p2`).
pub fn check_observed_refinement<O: Ord + std::fmt::Debug>(
    p1: &Program,
    p2: &Program,
    inits: impl IntoIterator<Item = (Config, Config)>,
    budget: usize,
    observe1: impl Fn(&GlobalStore) -> O,
    observe2: impl Fn(&GlobalStore) -> O,
) -> Result<(), RefinementViolation> {
    for (init1, init2) in inits {
        let exp2 = Explorer::new(p2).with_budget(budget).explore([init2])?;
        if exp2.has_failure() {
            continue; // the abstract program may fail: anything refines it
        }
        let exp1 = Explorer::new(p1)
            .with_budget(budget)
            .explore([init1.clone()])?;
        check_observed_refinement_on(&exp1, &exp2, &init1, &observe1, &observe2)?;
    }
    Ok(())
}

/// [`check_observed_refinement`] for one pair of initialized
/// configurations, on unreduced explorations of `p1` from `init1` (`exp1`)
/// and of `p2` from its counterpart (`exp2`). `init1` only names the start
/// in a violation. `exp1` is not read when `exp2` has a failure.
///
/// # Errors
///
/// Returns the first violation.
pub fn check_observed_refinement_on<O: Ord + std::fmt::Debug>(
    exp1: &Exploration,
    exp2: &Exploration,
    init1: &Config,
    observe1: impl Fn(&GlobalStore) -> O,
    observe2: impl Fn(&GlobalStore) -> O,
) -> Result<(), RefinementViolation> {
    if exp2.has_failure() {
        return Ok(());
    }
    let observed2: BTreeSet<O> = exp2.terminal_stores().map(observe2).collect();
    check_concrete(exp1, init1, |terminal| {
        observed2.contains(&observe1(terminal))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::{counter_program, failing_program};
    use inseq_kernel::{NativeAction, Transition};

    fn arc(a: NativeAction) -> Arc<dyn ActionSemantics> {
        Arc::new(a)
    }

    #[test]
    fn action_refinement_is_reflexive() {
        let a = arc(NativeAction::new("A", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(1)))])
        }));
        let store = GlobalStore::new(vec![Value::Int(0)]);
        let empty: &[Value] = &[];
        check_action_refinement(&a, &a, [(&store, empty)]).unwrap();
    }

    #[test]
    fn abstract_action_may_fail_more_often() {
        // Abstract fails everywhere; concrete does something. Refinement
        // holds vacuously (the paper: "a2 can fail more often than a1").
        let concrete = arc(NativeAction::new("C", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
        }));
        let abstrakt = arc(NativeAction::new("A", 0, |_: &GlobalStore, _: &[Value]| {
            ActionOutcome::Failure {
                reason: "abstract gate".into(),
            }
        }));
        let store = GlobalStore::new(vec![]);
        let empty: &[Value] = &[];
        check_action_refinement(&concrete, &abstrakt, [(&store, empty)]).unwrap();
    }

    #[test]
    fn concrete_failure_must_be_preserved() {
        let concrete = arc(NativeAction::new("C", 0, |_: &GlobalStore, _: &[Value]| {
            ActionOutcome::Failure {
                reason: "concrete fails".into(),
            }
        }));
        let abstrakt = arc(NativeAction::new("A", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
        }));
        let store = GlobalStore::new(vec![]);
        let empty: &[Value] = &[];
        let err = check_action_refinement(&concrete, &abstrakt, [(&store, empty)]).unwrap_err();
        assert!(matches!(
            err,
            RefinementViolation::FailureNotPreserved { .. }
        ));
    }

    #[test]
    fn missing_transition_is_reported() {
        let concrete = arc(NativeAction::new("C", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(7)))])
        }));
        let abstrakt = arc(NativeAction::new("A", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(8)))])
        }));
        let store = GlobalStore::new(vec![Value::Int(0)]);
        let empty: &[Value] = &[];
        let err = check_action_refinement(&concrete, &abstrakt, [(&store, empty)]).unwrap_err();
        match err {
            RefinementViolation::TransitionNotAbstracted { target, .. } => {
                assert_eq!(target.get(0), &Value::Int(7));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn program_refinement_is_reflexive() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        check_program_refinement(&p, &p, [init], 100_000).unwrap();
    }

    #[test]
    fn observed_refinement_hides_representation() {
        // Counter observed modulo 2 refines itself under a lossy projection,
        // and a projection that disagrees is rejected.
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        check_observed_refinement(
            &p,
            &p,
            [(init.clone(), init.clone())],
            100_000,
            |s: &GlobalStore| s.get(0).as_int() % 2,
            |s: &GlobalStore| s.get(0).as_int() % 2,
        )
        .unwrap();
        let err = check_observed_refinement(
            &p,
            &p,
            [(init.clone(), init)],
            100_000,
            |s: &GlobalStore| s.get(0).as_int(),
            |s: &GlobalStore| s.get(0).as_int() + 1,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RefinementViolation::SummaryNotIncluded { .. }
        ));
    }

    #[test]
    fn failing_program_refines_itself_but_not_a_good_one() {
        let bad = failing_program();
        let init_bad = bad.initial_config(vec![]).unwrap();
        // Reflexivity holds even with failures (Good(P) is empty, so both
        // conditions are vacuous).
        check_program_refinement(&bad, &bad, [init_bad.clone()], 100_000).unwrap();
        // Replacing Fail with a skip yields a never-failing abstract program,
        // which the failing program does not refine.
        let skipping = bad.with_action(
            "Fail",
            Arc::new(NativeAction::new(
                "Skip",
                0,
                |g: &GlobalStore, _: &[Value]| {
                    ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
                },
            )) as Arc<dyn ActionSemantics>,
        );
        let err = check_program_refinement(&bad, &skipping, [init_bad], 100_000).unwrap_err();
        assert!(matches!(err, RefinementViolation::GoodNotPreserved { .. }));
    }
}
