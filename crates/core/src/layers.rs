//! Layered refinement proofs — the CIVL integration surface (§5.1).
//!
//! The paper integrates IS into CIVL's *layered concurrent programs*: the
//! input describes a chain `P1 ≼ P2 ≼ … ≼ Pn` where **each refinement step
//! can either be an IS transformation or an existing CIVL transformation**.
//! This module provides that chain: a [`LayeredProof`] is a base program,
//! the finite instances to check on, and a sequence of [`LayerStep`]s, each
//! independently justified —
//!
//! * [`LayerStep::Is`] — an inductive-sequentialization application,
//!   justified by the rule of Fig. 3;
//! * [`LayerStep::ActionAbstraction`] — `P[A ↦ a′]` for `a ≼ a′`, justified
//!   by Def. 3.1 over the action's reachable invocation stores and lifted by
//!   Proposition 3.3;
//! * [`LayerStep::ProgramRefinement`] — an explicit whole-program claim
//!   `Pi ≼ Q`, checked semantically by Def. 3.2 (used for representation
//!   changes such as the fine-grained `P1` to atomic-action `P2` step).
//!
//! Running the proof yields every intermediate program and a human-readable
//! certificate log.

use std::fmt;
use std::sync::Arc;

use inseq_kernel::{ActionName, ActionSemantics, Config, Explorer, Program, StateUniverse};
use inseq_refine::{check_action_refinement, check_program_refinement};

use crate::rule::{IsApplication, IsViolation};

/// One justified refinement step of a layered proof.
pub enum LayerStep {
    /// An inductive-sequentialization application. Its program is rebased
    /// onto the running program of the chain.
    Is(Box<IsApplication>),
    /// Replace the action `name` by `replacement`, requiring
    /// `P(name) ≼ replacement` over the action's reachable invocation
    /// stores (Def. 3.1 + Proposition 3.3).
    ActionAbstraction {
        /// The action to replace.
        name: ActionName,
        /// The abstraction to install.
        replacement: Arc<dyn ActionSemantics>,
    },
    /// Claim that the running program refines `to` (Def. 3.2) and continue
    /// the chain from `to`.
    ProgramRefinement {
        /// The next program in the chain.
        to: Program,
        /// A label for the certificate log.
        label: String,
    },
}

impl fmt::Debug for LayerStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerStep::Is(app) => write!(f, "Is(target = {})", app.target()),
            LayerStep::ActionAbstraction { name, .. } => {
                write!(f, "ActionAbstraction({name})")
            }
            LayerStep::ProgramRefinement { label, .. } => {
                write!(f, "ProgramRefinement({label})")
            }
        }
    }
}

/// A failed layer with its index and the underlying violation.
#[derive(Debug)]
pub struct LayerError {
    /// Zero-based index of the failing step.
    pub layer: usize,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer {} failed: {}", self.layer, self.message)
    }
}

impl std::error::Error for LayerError {}

/// The outcome of a layered proof: every program in the chain (the base
/// first, the most abstract last) and a per-layer certificate log.
#[derive(Debug)]
pub struct LayerOutcome {
    /// `programs[0]` is the base; `programs[i+1]` is the result of step `i`.
    pub programs: Vec<Program>,
    /// One log line per step.
    pub log: Vec<String>,
}

impl LayerOutcome {
    /// The most abstract program of the chain.
    ///
    /// # Panics
    ///
    /// Never panics: the chain always contains at least the base program.
    #[must_use]
    pub fn last(&self) -> &Program {
        self.programs.last().expect("chain contains the base")
    }
}

/// A layered refinement proof `P1 ≼ P2 ≼ … ≼ Pn`.
#[derive(Debug)]
pub struct LayeredProof {
    base: Program,
    instances: Vec<Config>,
    steps: Vec<LayerStep>,
    budget: usize,
}

impl LayeredProof {
    /// Starts a proof from the base (most concrete) program.
    #[must_use]
    pub fn new(base: Program) -> Self {
        LayeredProof {
            base,
            instances: Vec::new(),
            steps: Vec::new(),
            budget: inseq_kernel::DEFAULT_CONFIG_BUDGET,
        }
    }

    /// Adds a finite instance (an initialized configuration of the base
    /// program) on which every layer is checked. Instances must remain
    /// valid for every program in the chain (layers preserve the schema
    /// and the `Main` signature).
    #[must_use]
    pub fn instance(mut self, init: Config) -> Self {
        self.instances.push(init);
        self
    }

    /// Bounds each exploration.
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Appends a step.
    #[must_use]
    pub fn then(mut self, step: LayerStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Convenience: appends an IS step.
    #[must_use]
    pub fn then_is(self, app: IsApplication) -> Self {
        self.then(LayerStep::Is(Box::new(app)))
    }

    /// Checks every layer in order.
    ///
    /// # Errors
    ///
    /// Returns the first failing layer with its justification's violation.
    pub fn run(self) -> Result<LayerOutcome, LayerError> {
        let mut programs = vec![self.base.clone()];
        let mut log = Vec::new();
        let mut current = self.base;
        for (idx, step) in self.steps.into_iter().enumerate() {
            let err = |message: String| LayerError {
                layer: idx,
                message,
            };
            match step {
                LayerStep::Is(app) => {
                    let app = app.with_program(current.clone());
                    let report = app.check().map_err(|e: IsViolation| err(e.to_string()))?;
                    current = app.apply();
                    log.push(format!(
                        "layer {idx}: IS on `{}` eliminating {} action(s) — {report}",
                        app.target(),
                        app.eliminated().len()
                    ));
                }
                LayerStep::ActionAbstraction { name, replacement } => {
                    let concrete = current
                        .action(&name)
                        .map_err(|e| err(e.to_string()))?
                        .clone();
                    // Quantify Def. 3.1 over the action's reachable
                    // invocation stores on the configured instances.
                    let exploration = Explorer::new(&current)
                        .with_budget(self.budget)
                        .explore(self.instances.iter().cloned())
                        .map_err(|e| err(e.to_string()))?;
                    let universe = StateUniverse::from_exploration(&exploration);
                    check_action_refinement(
                        &concrete,
                        &replacement,
                        universe.enabled_inputs(&name),
                    )
                    .map_err(|e| err(e.to_string()))?;
                    current = current.with_action(name.clone(), replacement);
                    log.push(format!(
                        "layer {idx}: action abstraction `{name}` over {} invocation store(s)",
                        universe.enabled_at(&name).len()
                    ));
                }
                LayerStep::ProgramRefinement { to, label } => {
                    check_program_refinement(
                        &current,
                        &to,
                        self.instances.iter().cloned(),
                        self.budget,
                    )
                    .map_err(|e| err(e.to_string()))?;
                    current = to;
                    log.push(format!("layer {idx}: program refinement ({label})"));
                }
            }
            programs.push(current.clone());
        }
        Ok(LayerOutcome { programs, log })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::counter_program;
    use inseq_kernel::{ActionOutcome, GlobalStore, NativeAction, Transition, Value};

    #[test]
    fn action_abstraction_layer_checks_and_installs() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        // Abstract Inc by "increment or stutter".
        let looser: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "IncAbs",
            0,
            |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![
                    Transition::pure(g.with(0, Value::Int(g.get(0).as_int() + 1))),
                    Transition::pure(g.clone()),
                ])
            },
        ));
        let outcome = LayeredProof::new(p)
            .instance(init)
            .then(LayerStep::ActionAbstraction {
                name: "Inc".into(),
                replacement: looser,
            })
            .run()
            .expect("abstraction is sound");
        assert_eq!(outcome.programs.len(), 2);
        assert_eq!(outcome.log.len(), 1);
    }

    #[test]
    fn unsound_action_abstraction_is_rejected() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        // "Abstract" Inc by decrement — not a superset of behaviours.
        let wrong: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "Dec",
            0,
            |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(
                    g.with(0, Value::Int(g.get(0).as_int() - 1)),
                )])
            },
        ));
        let err = LayeredProof::new(p)
            .instance(init)
            .then(LayerStep::ActionAbstraction {
                name: "Inc".into(),
                replacement: wrong,
            })
            .run()
            .unwrap_err();
        assert_eq!(err.layer, 0);
    }

    #[test]
    fn program_refinement_layer() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let outcome = LayeredProof::new(p.clone())
            .instance(init)
            .then(LayerStep::ProgramRefinement {
                to: p,
                label: "reflexivity".into(),
            })
            .run()
            .expect("reflexive");
        assert!(outcome.log[0].contains("reflexivity"));
    }
}
