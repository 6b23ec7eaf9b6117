//! The IS proof rule (Fig. 3 of the paper): premises, checker, and the
//! `P[M ↦ M']` transformation.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use inseq_engine::{Engine, EngineReport, ParallelExplorer};
use inseq_kernel::{
    ActionName, ActionOutcome, ActionSemantics, Config, ExecStats, Exploration, Explorer,
    GlobalStore, Multiset, PaId, PendingAsync, Program, StateUniverse, StoreId, Trace, Transition,
    Value,
};
use inseq_mover::{MoverChecker, MoverViolation};
use inseq_obs::{EngineSnapshot, HitMissSnapshot, PhaseStat};
use inseq_refine::{check_action_refinement, RefinementViolation};

use crate::incr::Executor;
use crate::measure::Measure;

/// A transition of the invariant action, as seen by the choice function:
/// the paper's `t = (σ, g, Ω) ∈ τ_I` with `σ` split into its global store
/// and the action arguments.
#[derive(Debug, Clone, Copy)]
pub struct InvariantTransition<'a> {
    /// Global part of the input store `σ`.
    pub input_globals: &'a GlobalStore,
    /// Local part of the input store (the arguments of `M`).
    pub args: &'a [Value],
    /// The output global store `g`.
    pub output_globals: &'a GlobalStore,
    /// The created pending asyncs `Ω`.
    pub created: &'a Multiset<PendingAsync>,
}

/// The choice function `f`: selects, from every invariant transition that
/// creates pending asyncs to `E`, the single one to eliminate next.
pub type ChoiceFn = Arc<dyn Fn(&InvariantTransition<'_>) -> Option<PendingAsync> + Send + Sync>;

/// A violated IS premise, with a concrete witness. Each variant names at
/// most two actions, mirroring the targeted error messages of the paper's
/// CIVL integration (§5.1).
#[derive(Debug)]
pub enum IsViolation {
    /// A structural precondition failed (unknown action, missing artifact).
    Structural {
        /// Description of the problem.
        message: String,
    },
    /// Premise `A ≼ α(A)` failed for an eliminated action.
    AbstractionNotSound {
        /// The eliminated action.
        action: ActionName,
        /// The refinement counterexample.
        violation: RefinementViolation,
    },
    /// Premise (I1) failed: `M` is not summarised by the invariant action.
    NotInvariantBase {
        /// The refinement counterexample.
        violation: RefinementViolation,
    },
    /// Premise (I2) failed on gates: the invariant action fails from a store
    /// where the replacement `M'` does not.
    ReplacementGateTooWeak {
        /// The input store.
        store: GlobalStore,
        /// The arguments of `M`.
        args: Vec<Value>,
        /// The invariant action's failure.
        reason: String,
        /// A firing sequence of `P` reaching the input store, when one exists.
        witness: Option<Trace>,
    },
    /// Premise (I2) failed on transitions: a PA-free invariant transition is
    /// not a transition of the replacement `M'`.
    ReplacementMissesTransition {
        /// The input store.
        store: GlobalStore,
        /// The arguments of `M`.
        args: Vec<Value>,
        /// The end store of the missing transition.
        target: GlobalStore,
        /// A firing sequence of `P` reaching the input store, when one exists.
        witness: Option<Trace>,
    },
    /// The choice function returned nothing (or an invalid PA) for a
    /// transition with pending asyncs to `E`.
    ChoiceInvalid {
        /// Description of the offending transition and returned value.
        message: String,
    },
    /// Premise (I3), first half: the abstraction's gate does not hold right
    /// after the invariant transition that the choice function extends.
    AbstractionGateNotDischarged {
        /// The eliminated action.
        action: ActionName,
        /// The store after the invariant transition.
        store: GlobalStore,
        /// The chosen PA's arguments.
        args: Vec<Value>,
        /// The gate failure.
        reason: String,
        /// A firing sequence of `P` reaching the store, when it is reachable
        /// (rather than produced only by the invariant action).
        witness: Option<Trace>,
    },
    /// Premise (I3), second half: composing the invariant transition with a
    /// step of the chosen abstraction leaves the invariant.
    NotInductive {
        /// The eliminated action whose elimination broke inductiveness.
        action: ActionName,
        /// The input store of the invariant transition.
        store: GlobalStore,
        /// The arguments of `M`.
        args: Vec<Value>,
        /// The end store of the composed transition.
        target: GlobalStore,
        /// A firing sequence of `P` reaching the input store, when one exists.
        witness: Option<Trace>,
    },
    /// Premise (LM) failed: an abstraction is not a left mover w.r.t. the
    /// program.
    NotLeftMover {
        /// The eliminated action.
        action: ActionName,
        /// The mover counterexample.
        violation: MoverViolation,
        /// A firing sequence of `P` reaching the counterexample's store,
        /// when it is reachable (rather than an invariant pseudo-store).
        witness: Option<Trace>,
    },
    /// Premise (CO) failed: an abstraction cannot always step while
    /// decreasing the well-founded measure.
    CooperationViolated {
        /// The eliminated action.
        action: ActionName,
        /// The store from which no decreasing step exists.
        store: GlobalStore,
        /// The PA's arguments.
        args: Vec<Value>,
        /// The measure in use.
        measure: String,
        /// A firing sequence of `P` reaching the store, when it is reachable.
        witness: Option<Trace>,
    },
    /// Exploration failed (budget, unknown action, …).
    Exploration {
        /// Description of the failure.
        message: String,
    },
}

impl IsViolation {
    /// A stable label naming the violated premise, independent of the
    /// witness payload.
    ///
    /// Differential harnesses compare violations found by the sequential
    /// and engine-scheduled check paths; the paths agree on *which* premise
    /// fails but legitimately differ in witness detail (both retain parent
    /// forests, but the parallel explorer's visit order — and hence the
    /// reconstructed firing sequence — is scheduling-dependent), so
    /// equality is asserted on this label rather than on [`fmt::Display`]
    /// output.
    #[must_use]
    pub fn premise(&self) -> &'static str {
        match self {
            IsViolation::Structural { .. } => "structural",
            IsViolation::AbstractionNotSound { .. } => "abstraction-soundness",
            IsViolation::NotInvariantBase { .. } => "I1",
            IsViolation::ReplacementGateTooWeak { .. }
            | IsViolation::ReplacementMissesTransition { .. } => "I2",
            IsViolation::ChoiceInvalid { .. }
            | IsViolation::AbstractionGateNotDischarged { .. }
            | IsViolation::NotInductive { .. } => "I3",
            IsViolation::NotLeftMover { .. } => "LM",
            IsViolation::CooperationViolated { .. } => "CO",
            IsViolation::Exploration { .. } => "exploration",
        }
    }
}

impl fmt::Display for IsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsViolation::Structural { message } => write!(f, "IS structural error: {message}"),
            IsViolation::AbstractionNotSound { action, violation } => {
                write!(f, "`{action}` does not refine its abstraction: {violation}")
            }
            IsViolation::NotInvariantBase { violation } => {
                write!(
                    f,
                    "(I1) target action is not summarised by the invariant action: {violation}"
                )
            }
            IsViolation::ReplacementGateTooWeak {
                store,
                args,
                reason,
                witness,
            } => {
                write!(
                    f,
                    "(I2) invariant action fails at {store} (args {args:?}) where the \
                     replacement does not: {reason}"
                )?;
                write_witness(f, witness)
            }
            IsViolation::ReplacementMissesTransition {
                store,
                args,
                target,
                witness,
            } => {
                write!(
                    f,
                    "(I2) PA-free invariant transition {store} -> {target} (args {args:?}) \
                     is not a transition of the replacement"
                )?;
                write_witness(f, witness)
            }
            IsViolation::ChoiceInvalid { message } => {
                write!(f, "choice function invalid: {message}")
            }
            IsViolation::AbstractionGateNotDischarged {
                action,
                store,
                args,
                reason,
                witness,
            } => {
                write!(
                    f,
                    "(I3) gate of the abstraction of `{action}` (args {args:?}) does not hold \
                     after the invariant transition ending at {store}: {reason}"
                )?;
                write_witness(f, witness)
            }
            IsViolation::NotInductive {
                action,
                store,
                args,
                target,
                witness,
            } => {
                write!(
                    f,
                    "(I3) invariant is not inductive: absorbing `{action}` from {store} \
                     (args {args:?}) reaches {target}, which the invariant cannot produce \
                     in a single transition"
                )?;
                write_witness(f, witness)
            }
            IsViolation::NotLeftMover {
                action,
                violation,
                witness,
            } => {
                write!(
                    f,
                    "(LM) abstraction of `{action}` is not a left mover: {violation}"
                )?;
                write_witness(f, witness)
            }
            IsViolation::CooperationViolated {
                action,
                store,
                args,
                measure,
                witness,
            } => {
                write!(
                    f,
                    "(CO) abstraction of `{action}` (args {args:?}) cannot step from {store} \
                     while decreasing the measure {measure}"
                )?;
                write_witness(f, witness)
            }
            IsViolation::Exploration { message } => write!(f, "exploration error: {message}"),
        }
    }
}

impl Error for IsViolation {}

/// Appends a violation's concrete firing sequence, when one was found.
fn write_witness(f: &mut fmt::Formatter<'_>, witness: &Option<Trace>) -> fmt::Result {
    match witness {
        Some(trace) => write!(f, "; witness run: {trace}"),
        None => Ok(()),
    }
}

/// Observability counters of one IS check, attached to the [`IsReport`].
///
/// Statistics never influence a verdict and are excluded from the report's
/// [`PartialEq`]: two checks agree when their deterministic counts agree,
/// regardless of cache traffic or wall clock (see `inseq-obs`).
#[derive(Debug, Clone, Default)]
pub struct IsStats {
    /// Configuration-interner traffic during instance exploration (merged
    /// across shards under [`IsApplication::check_with`]).
    pub intern: HitMissSnapshot,
    /// Successor-cache traffic during instance exploration: hits skipped
    /// an evaluation (summed across shards under
    /// [`IsApplication::check_with`]).
    pub succ_cache: HitMissSnapshot,
    /// Parallel-exploration shape: worker count, per-shard occupancy, and
    /// steal traffic. Default (zero workers) on sequential checks.
    pub engine: EngineSnapshot,
    /// The mover checker's evaluation-cache traffic during (LM).
    pub mover_cache: HitMissSnapshot,
    /// `(mover, partner, store)` triples examined during (LM).
    pub pairwise_checks: u64,
    /// Action-evaluation backend counters (compiled bytecode vs. the
    /// tree-walk interpreter), summed over the program's actions.
    pub exec: ExecStats,
    /// Wall clock and item counts of the `"explore"` prefix, then of each
    /// discharged obligation in canonical premise order
    /// ([`IsApplication::obligations`]).
    pub premises: Vec<PhaseStat>,
}

/// Statistics of a successful IS check, for reporting and benchmarking.
#[derive(Debug, Clone, Default)]
pub struct IsReport {
    /// Configurations reachable in the program instance(s).
    pub reachable_configs: usize,
    /// Transition edges traversed while exploring the instance(s).
    pub edges: usize,
    /// `(store, args)` inputs at which the target action was checked.
    pub target_inputs: usize,
    /// Invariant transitions examined (the sequentialization prefixes).
    pub invariant_transitions: usize,
    /// Invariant transitions still carrying PAs to `E` (induction steps).
    pub induction_steps: usize,
    /// Eliminated actions.
    pub eliminated_actions: usize,
    /// Stores in the quantification universe.
    pub universe_stores: usize,
    /// Observability counters (cache traffic, per-premise timing). Excluded
    /// from equality: reports are compared on their deterministic counts.
    pub stats: IsStats,
}

impl PartialEq for IsReport {
    fn eq(&self, other: &Self) -> bool {
        // `stats` deliberately excluded: wall clocks and cache traffic vary
        // between runs of the same check.
        self.reachable_configs == other.reachable_configs
            && self.edges == other.edges
            && self.target_inputs == other.target_inputs
            && self.invariant_transitions == other.invariant_transitions
            && self.induction_steps == other.induction_steps
            && self.eliminated_actions == other.eliminated_actions
            && self.universe_stores == other.universe_stores
    }
}

impl Eq for IsReport {}

impl fmt::Display for IsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IS ok: {} reachable configs ({} edges), {} target inputs, {} invariant transitions \
             ({} induction steps), {} eliminated actions, {} universe stores",
            self.reachable_configs,
            self.edges,
            self.target_inputs,
            self.invariant_transitions,
            self.induction_steps,
            self.eliminated_actions,
            self.universe_stores
        )?;
        if self.stats.intern.lookups() > 0 {
            write!(f, "; interner {}", self.stats.intern)?;
        }
        if self.stats.succ_cache.lookups() > 0 {
            write!(f, "; successor cache {}", self.stats.succ_cache)?;
        }
        if self.stats.engine.ran() {
            write!(f, "; engine {}", self.stats.engine)?;
        }
        if self.stats.pairwise_checks > 0 {
            write!(
                f,
                "; mover cache {} over {} pairwise checks",
                self.stats.mover_cache, self.stats.pairwise_checks
            )?;
        }
        if !self.stats.premises.is_empty() {
            let rendered: Vec<String> = self
                .stats
                .premises
                .iter()
                .map(PhaseStat::to_string)
                .collect();
            write!(f, "; premises [{}]", rendered.join(", "))?;
        }
        Ok(())
    }
}

/// One application of the IS proof rule: the given `(P, M, E)` frame plus the
/// invented artifacts `(I, M', f, α, ≫)` and the finite instance(s) to check
/// them on.
///
/// Construct with [`IsApplication::new`], configure with the builder
/// methods, then call [`check`](IsApplication::check) and
/// [`apply`](IsApplication::apply).
#[derive(Clone)]
pub struct IsApplication {
    program: Program,
    target: ActionName,
    eliminated: BTreeSet<ActionName>,
    invariant: Option<Arc<dyn ActionSemantics>>,
    replacement: Option<Arc<dyn ActionSemantics>>,
    choice: Option<ChoiceFn>,
    abstractions: BTreeMap<ActionName, Arc<dyn ActionSemantics>>,
    measure: Measure,
    instances: Vec<Config>,
    budget: usize,
}

impl fmt::Debug for IsApplication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IsApplication")
            .field("target", &self.target)
            .field("eliminated", &self.eliminated)
            .field("instances", &self.instances.len())
            .finish()
    }
}

impl IsApplication {
    /// Starts an IS application on `program`, rewriting action `target`.
    #[must_use]
    pub fn new(program: Program, target: impl Into<ActionName>) -> Self {
        IsApplication {
            program,
            target: target.into(),
            eliminated: BTreeSet::new(),
            invariant: None,
            replacement: None,
            choice: None,
            abstractions: BTreeMap::new(),
            measure: Measure::pending_async_count(),
            instances: Vec::new(),
            budget: inseq_kernel::DEFAULT_CONFIG_BUDGET,
        }
    }

    /// Adds an action to the eliminated set `E`.
    #[must_use]
    pub fn eliminate(mut self, action: impl Into<ActionName>) -> Self {
        self.eliminated.insert(action.into());
        self
    }

    /// Sets the invariant action `I`.
    #[must_use]
    pub fn invariant(mut self, invariant: Arc<dyn ActionSemantics>) -> Self {
        self.invariant = Some(invariant);
        self
    }

    /// Sets the replacement action `M'`.
    #[must_use]
    pub fn replacement(mut self, replacement: Arc<dyn ActionSemantics>) -> Self {
        self.replacement = Some(replacement);
        self
    }

    /// Sets the choice function `f`.
    #[must_use]
    pub fn choice<F>(mut self, f: F) -> Self
    where
        F: Fn(&InvariantTransition<'_>) -> Option<PendingAsync> + Send + Sync + 'static,
    {
        self.choice = Some(Arc::new(f));
        self
    }

    /// Supplies the abstraction `α(action)`. Eliminated actions without an
    /// explicit abstraction default to themselves (`α(A) = P(A)`).
    #[must_use]
    pub fn abstraction(
        mut self,
        action: impl Into<ActionName>,
        abstraction: Arc<dyn ActionSemantics>,
    ) -> Self {
        self.abstractions.insert(action.into(), abstraction);
        self
    }

    /// Sets the well-founded measure `≫` (defaults to the PA count).
    #[must_use]
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Adds a finite instance: an initialized configuration of `P` over
    /// which all premises are checked.
    #[must_use]
    pub fn instance(mut self, init: Config) -> Self {
        self.instances.push(init);
        self
    }

    /// Bounds each exploration (default: the kernel's budget).
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// The program `P` this application operates on.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn set_program(&mut self, program: Program) {
        self.program = program;
    }

    /// The target action name `M`.
    #[must_use]
    pub fn target(&self) -> &ActionName {
        &self.target
    }

    /// The eliminated set `E`.
    #[must_use]
    pub fn eliminated(&self) -> &BTreeSet<ActionName> {
        &self.eliminated
    }

    /// The invariant action `I`, if set.
    #[must_use]
    pub fn invariant_action(&self) -> Option<&Arc<dyn ActionSemantics>> {
        self.invariant.as_ref()
    }

    /// The replacement action `M'`, if set.
    #[must_use]
    pub fn replacement_action(&self) -> Option<&Arc<dyn ActionSemantics>> {
        self.replacement.as_ref()
    }

    /// The choice function, if set.
    #[must_use]
    pub fn choice_fn(&self) -> Option<&ChoiceFn> {
        self.choice.as_ref()
    }

    /// The configured initial instances.
    #[must_use]
    pub fn instances(&self) -> &[Config] {
        &self.instances
    }

    /// The visited-configuration budget for exploration.
    #[must_use]
    pub fn budget_limit(&self) -> usize {
        self.budget
    }

    /// The label of the well-founded measure used by premise (CO).
    #[must_use]
    pub fn measure_label(&self) -> &str {
        self.measure.label()
    }

    /// Whether a custom abstraction (one that is not the action itself) was
    /// supplied for `action`.
    #[must_use]
    pub fn has_custom_abstraction(&self, action: &ActionName) -> bool {
        self.abstractions.contains_key(action)
    }

    /// `α(action)`, defaulting to the program's own action; `Err` when the
    /// action is unknown.
    ///
    /// # Errors
    ///
    /// Returns [`IsViolation::Structural`] for unknown actions.
    pub fn abstraction_of(
        &self,
        action: &ActionName,
    ) -> Result<Arc<dyn ActionSemantics>, IsViolation> {
        self.alpha(action)
    }

    /// The transformed program `P' = P[M ↦ M']`.
    ///
    /// # Panics
    ///
    /// Panics if no replacement was supplied.
    #[must_use]
    pub fn apply(&self) -> Program {
        let replacement = self
            .replacement
            .as_ref()
            .expect("IS application has no replacement action");
        self.program
            .with_action(self.target.clone(), Arc::clone(replacement))
    }

    /// Checks all premises of the IS rule (Fig. 3) on the configured
    /// instances, in canonical premise order on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the first violated premise with a concrete witness.
    pub fn check(&self) -> Result<IsReport, IsViolation> {
        let run = self.drive(Explore::Sequential, Executor::InThread, None, &|_| {})?;
        Ok(run.verdict()?.incremental.report)
    }

    /// Checks all premises and, on success, returns the transformed program.
    ///
    /// # Errors
    ///
    /// Propagates the first violated premise.
    pub fn check_and_apply(&self) -> Result<(Program, IsReport), IsViolation> {
        let report = self.check()?;
        Ok((self.apply(), report))
    }

    /// The exploration [`check`](IsApplication::check) quantifies over,
    /// for a caller that checks on it with [`check_on`](Self::check_on)
    /// and reads it elsewhere too. Structural problems are reported first,
    /// as `check` reports them.
    ///
    /// # Errors
    ///
    /// Returns a structural problem or the failed exploration.
    pub fn explore(&self) -> Result<Exploration, IsViolation> {
        self.artifacts()?;
        self.explore_sequential()
    }

    /// Like [`check`](IsApplication::check), but quantifies over an
    /// exploration the caller made instead of exploring the instances.
    /// `exploration` must be an unreduced sequential exploration of this
    /// application's program from exactly its instances, such as
    /// [`explore`](Self::explore) returns or any other unreduced
    /// [`Explorer`] run from the same seeds: then the report, statistics
    /// included, is `check`'s, except that the `"explore"` premise phase
    /// times only the universe built over it. The universe interns the
    /// invariant's pseudo-configurations (stores and bags only) into the
    /// exploration's interner.
    ///
    /// # Errors
    ///
    /// Returns the first violated premise with a concrete witness.
    pub fn check_on(&self, exploration: &Exploration) -> Result<IsReport, IsViolation> {
        let given = Explore::Given(exploration);
        let run = self.drive(given, Executor::InThread, None, &|_| {})?;
        Ok(run.verdict()?.incremental.report)
    }

    /// Like [`check`](IsApplication::check), but discharges the premises
    /// concurrently on an [`Engine`].
    ///
    /// The instance exploration runs on a [`ParallelExplorer`] with one
    /// shard per engine thread; the obligations — `A ≼ α(A)` per eliminated
    /// action, (I1), (I2), (I3), and the per-action (LM) and (CO)
    /// conditions — then run as one engine job each. The returned
    /// [`EngineReport`] carries per-obligation wall clock.
    ///
    /// The verdict is identical to `check`'s, and so is the violated
    /// premise when several fail: every obligation runs, and the first
    /// failure in canonical premise order is returned. Its witness trace
    /// may differ from `check`'s, because parallel traces are not
    /// necessarily shortest (DESIGN.md §4f).
    ///
    /// # Errors
    ///
    /// Returns the first violated premise with a concrete witness.
    pub fn check_with(&self, engine: &Engine) -> Result<(IsReport, EngineReport), IsViolation> {
        let explore = Explore::Parallel(engine.threads());
        let run = self.drive(explore, Executor::Engine(engine), None, &|_| {})?;
        let run = run.verdict()?;
        let engine_report = run.engine.expect("the engine executor reports its jobs");
        Ok((run.incremental.report, engine_report))
    }

    /// Resolves `I`, `M'` and `f` and checks that the named actions exist
    /// and fit together: the prelude of every check path.
    pub(crate) fn artifacts(&self) -> Result<Artifacts<'_>, IsViolation> {
        let missing = |what: &str| IsViolation::Structural {
            message: format!("no {what} supplied"),
        };
        let invariant = self
            .invariant
            .as_ref()
            .ok_or_else(|| missing("invariant action `I`"))?;
        let replacement = self
            .replacement
            .as_ref()
            .ok_or_else(|| missing("replacement action `M'`"))?;
        let choice = self
            .choice
            .as_ref()
            .ok_or_else(|| missing("choice function"))?;
        if !self.program.defines(&self.target) {
            return Err(IsViolation::Structural {
                message: format!("target action `{}` is not in the program", self.target),
            });
        }
        for name in &self.eliminated {
            if !self.program.defines(name) {
                return Err(IsViolation::Structural {
                    message: format!("eliminated action `{name}` is not in the program"),
                });
            }
        }
        for name in self.abstractions.keys() {
            if !self.eliminated.contains(name) {
                return Err(IsViolation::Structural {
                    message: format!("abstraction given for `{name}`, which is not in E"),
                });
            }
        }
        if self.eliminated.contains(&self.target) {
            return Err(IsViolation::Structural {
                message: format!("target `{}` cannot be in the eliminated set", self.target),
            });
        }
        if self.instances.is_empty() {
            return Err(IsViolation::Structural {
                message: "no instances supplied (nothing to check against)".into(),
            });
        }
        Ok(Artifacts {
            invariant,
            replacement,
            choice,
        })
    }

    /// Explores the instances on the chosen explorer and evaluates the
    /// invariant at every target input: the shared prefix of all Fig. 3
    /// obligations. Both explorers keep a parent forest, so every premise
    /// can attach a concrete firing sequence to its counterexample.
    ///
    /// The universe indexes the exploration's own interner. The invariant's
    /// transitions are the partial sequentializations: their
    /// pseudo-configurations are interned into that interner (store and
    /// bag only, never as configurations) and added to the universe *after*
    /// the reachable ones. The (LM) and (CO) conditions must hold at these
    /// sequential-context stores even though `P` itself may never reach
    /// them, while provenance keeps naming a reachable configuration
    /// whenever one has the same store.
    pub(crate) fn prepare(
        &self,
        explore: Explore<'_>,
        invariant: &Arc<dyn ActionSemantics>,
    ) -> Result<CheckPrep, IsViolation> {
        let mut report = IsReport {
            eliminated_actions: self.eliminated.len(),
            ..IsReport::default()
        };
        // Either explorer's result reads as one `Exploration`; only the
        // engine's own counters are parallel-only.
        let (sequential, parallel);
        let exploration: &Exploration = match explore {
            Explore::Sequential => {
                sequential = self.explore_sequential()?;
                &sequential
            }
            Explore::Parallel(workers) => {
                parallel = ParallelExplorer::new(&self.program)
                    .with_workers(workers)
                    .with_budget(self.budget)
                    .explore(self.instances.iter().cloned())
                    .map_err(exploration_error)?;
                report.stats.engine = parallel.stats().engine_snapshot();
                &parallel
            }
            Explore::Given(exploration) => exploration,
        };
        report.reachable_configs = exploration.config_count();
        report.edges = exploration.edge_count();
        report.stats.intern = exploration.intern_stats();
        report.stats.succ_cache = exploration.succ_cache_stats();
        let mut universe = StateUniverse::from_exploration(exploration);

        let target_inputs: Vec<(StoreId, PaId)> = universe.enabled_at(&self.target).to_vec();
        report.target_inputs = target_inputs.len();

        let interner = Arc::clone(universe.interner());
        let mut pseudo = Vec::new();
        let mut inv_transitions: Vec<(StoreId, PaId, InvOutcome)> = Vec::new();
        for &(g, pa) in &target_inputs {
            match invariant.eval(interner.store(g), &interner.pa(pa).args) {
                ActionOutcome::Failure { reason } => {
                    // ρ_I may be narrower than ρ_M only where M' also fails;
                    // checked by (I2), which replays the recorded reason.
                    inv_transitions.push((g, pa, InvOutcome::Failure(reason)));
                }
                ActionOutcome::Transitions(ts) => {
                    let set: BTreeSet<Transition> = ts.into_iter().collect();
                    for t in &set {
                        pseudo.push((
                            interner.intern_store(&t.globals),
                            interner.intern_bag(&t.created),
                        ));
                    }
                    report.invariant_transitions += set.len();
                    report.induction_steps += set
                        .iter()
                        .filter(|t| !self.pa_e(&t.created).is_empty())
                        .count();
                    inv_transitions.push((g, pa, InvOutcome::Transitions(set)));
                }
            }
        }
        universe.extend(pseudo);
        report.universe_stores = universe.store_count();
        Ok(CheckPrep {
            universe,
            target_inputs,
            inv_transitions,
            report,
        })
    }

    /// The sequential exploration of the instances that
    /// [`check`](IsApplication::check) quantifies over, within this
    /// application's budget.
    fn explore_sequential(&self) -> Result<Exploration, IsViolation> {
        Explorer::new(&self.program)
            .with_budget(self.budget)
            .explore(self.instances.iter().cloned())
            .map_err(exploration_error)
    }

    /// Premise `A ≼ α(A)` for one eliminated action.
    pub(crate) fn check_abstraction_sound(
        &self,
        prep: &CheckPrep,
        action_name: &ActionName,
    ) -> Result<(), IsViolation> {
        let concrete = self
            .program
            .action(action_name)
            .map_err(|e| IsViolation::Structural {
                message: e.to_string(),
            })?;
        let alpha = self.alpha(action_name)?;
        check_action_refinement(concrete, &alpha, prep.universe.enabled_inputs(action_name))
            .map_err(|violation| IsViolation::AbstractionNotSound {
                action: action_name.clone(),
                violation,
            })
    }

    /// Premise (I1): `M ≼ I` at every target input.
    pub(crate) fn check_i1(
        &self,
        prep: &CheckPrep,
        invariant: &Arc<dyn ActionSemantics>,
    ) -> Result<(), IsViolation> {
        let target_action =
            self.program
                .action(&self.target)
                .map_err(|e| IsViolation::Structural {
                    message: e.to_string(),
                })?;
        check_action_refinement(target_action, invariant, prep.target_inputs())
            .map_err(|violation| IsViolation::NotInvariantBase { violation })
    }

    /// Premise (I2): `I` restricted to PA_E-free transitions refines `M'`.
    pub(crate) fn check_i2(
        &self,
        prep: &CheckPrep,
        replacement: &Arc<dyn ActionSemantics>,
    ) -> Result<(), IsViolation> {
        for &(g_id, pa, ref outcome) in &prep.inv_transitions {
            let (g, args) = prep.input(g_id, pa);
            let m_ts = match replacement.eval(g, args) {
                ActionOutcome::Failure { .. } => continue, // M' fails: vacuous
                ActionOutcome::Transitions(ts) => ts,
            };
            // ρ_{M'} holds here, so ρ_I must as well; the preparation step
            // recorded why it did not.
            let i_ts = match outcome {
                InvOutcome::Failure(reason) => {
                    return Err(IsViolation::ReplacementGateTooWeak {
                        store: g.clone(),
                        args: args.to_vec(),
                        reason: reason.clone(),
                        witness: prep.trace_for(g_id),
                    });
                }
                InvOutcome::Transitions(ts) => ts,
            };
            for t in i_ts {
                if self.pa_e(&t.created).is_empty() && !m_ts.contains(t) {
                    return Err(IsViolation::ReplacementMissesTransition {
                        store: g.clone(),
                        args: args.to_vec(),
                        target: t.globals.clone(),
                        witness: prep.trace_for(g_id),
                    });
                }
            }
        }
        Ok(())
    }

    /// Premise (I3): absorbing the chosen PA into the invariant is inductive.
    pub(crate) fn check_i3(&self, prep: &CheckPrep, choice: &ChoiceFn) -> Result<(), IsViolation> {
        for &(g_id, pa, ref outcome) in &prep.inv_transitions {
            let InvOutcome::Transitions(i_ts) = outcome else {
                continue; // a failed gate records no transitions to extend
            };
            let (g, args) = prep.input(g_id, pa);
            for t in i_ts {
                if self.pa_e(&t.created).is_empty() {
                    continue;
                }
                let view = InvariantTransition {
                    input_globals: g,
                    args,
                    output_globals: &t.globals,
                    created: &t.created,
                };
                let chosen = choice(&view).ok_or_else(|| IsViolation::ChoiceInvalid {
                    message: format!(
                        "no PA chosen for a transition to {} creating {}",
                        t.globals, t.created
                    ),
                })?;
                if !self.eliminated.contains(&chosen.action) || !t.created.contains(&chosen) {
                    return Err(IsViolation::ChoiceInvalid {
                        message: format!(
                            "chosen PA {chosen} is not a created pending async to E in {}",
                            t.created
                        ),
                    });
                }
                let alpha = self.alpha(&chosen.action)?;
                let alpha_ts = match alpha.eval(&t.globals, &chosen.args) {
                    ActionOutcome::Failure { reason } => {
                        return Err(IsViolation::AbstractionGateNotDischarged {
                            action: chosen.action.clone(),
                            store: t.globals.clone(),
                            args: chosen.args.clone(),
                            reason,
                            witness: prep.trace_for_store(&t.globals),
                        });
                    }
                    ActionOutcome::Transitions(ts) => ts,
                };
                let remaining = t
                    .created
                    .without(&chosen)
                    .expect("chosen PA is in the created multiset");
                for ta in &alpha_ts {
                    let composed =
                        Transition::new(ta.globals.clone(), remaining.union(&ta.created));
                    if !i_ts.contains(&composed) {
                        return Err(IsViolation::NotInductive {
                            action: chosen.action.clone(),
                            store: g.clone(),
                            args: args.to_vec(),
                            target: ta.globals.clone(),
                            witness: prep.trace_for(g_id),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Premise (LM) for one eliminated action, on `checker`.
    pub(crate) fn check_left_mover(
        &self,
        prep: &CheckPrep,
        action_name: &ActionName,
        checker: &MoverChecker<'_>,
    ) -> Result<(), IsViolation> {
        let alpha = self.alpha(action_name)?;
        checker
            .check_left(&alpha, action_name)
            .map_err(|violation| {
                let witness = prep.trace_for_store(violation.store());
                IsViolation::NotLeftMover {
                    action: action_name.clone(),
                    violation,
                    witness,
                }
            })
    }

    /// Premise (CO) for one eliminated action.
    pub(crate) fn check_cooperation(
        &self,
        prep: &CheckPrep,
        action_name: &ActionName,
    ) -> Result<(), IsViolation> {
        let alpha = self.alpha(action_name)?;
        let interner = prep.universe.interner();
        for &(g_id, pa_id) in prep.universe.enabled_at(action_name) {
            let (g, pa) = (interner.store(g_id), interner.pa(pa_id));
            match alpha.eval(g, &pa.args) {
                ActionOutcome::Failure { .. } => {} // outside the gate
                ActionOutcome::Transitions(ts) => {
                    let decreases = ts
                        .iter()
                        .any(|t| self.measure.decreases(g, pa, &t.globals, &t.created));
                    if !decreases {
                        return Err(IsViolation::CooperationViolated {
                            action: action_name.clone(),
                            store: g.clone(),
                            args: pa.args.clone(),
                            measure: self.measure.label().to_owned(),
                            witness: prep.trace_for(g_id),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// `α(A)`, defaulting to `P(A)` itself.
    pub(crate) fn alpha(
        &self,
        action: &ActionName,
    ) -> Result<Arc<dyn ActionSemantics>, IsViolation> {
        if let Some(a) = self.abstractions.get(action) {
            return Ok(Arc::clone(a));
        }
        self.program
            .action(action)
            .cloned()
            .map_err(|e| IsViolation::Structural {
                message: e.to_string(),
            })
    }

    /// `PA_E(t)` restricted to the created multiset.
    fn pa_e(&self, created: &Multiset<PendingAsync>) -> Vec<PendingAsync> {
        created
            .distinct()
            .filter(|pa| self.eliminated.contains(&pa.action))
            .cloned()
            .collect()
    }
}

/// The invariant action's outcome at one target input, as recorded by the
/// shared preparation step. Recording the failure reason lets (I2) replay
/// it instead of re-evaluating the invariant.
pub(crate) enum InvOutcome {
    /// `I`'s gate failed with this reason.
    Failure(String),
    /// The invariant's transitions at this input.
    Transitions(BTreeSet<Transition>),
}

fn exploration_error(e: inseq_kernel::ExploreError) -> IsViolation {
    IsViolation::Exploration {
        message: e.to_string(),
    }
}

/// The artifacts every premise reads, resolved once per check by
/// [`IsApplication::artifacts`].
pub(crate) struct Artifacts<'a> {
    pub(crate) invariant: &'a Arc<dyn ActionSemantics>,
    pub(crate) replacement: &'a Arc<dyn ActionSemantics>,
    pub(crate) choice: &'a ChoiceFn,
}

/// Which explorer builds the universe the premises quantify over.
pub(crate) enum Explore<'e> {
    /// The sequential kernel [`Explorer`].
    Sequential,
    /// The sharded [`ParallelExplorer`] with this many workers.
    Parallel(usize),
    /// None: an unreduced exploration of the instances the caller made.
    Given(&'e Exploration),
}

/// The shared prefix of all Fig. 3 obligations: the explored universe, the
/// target inputs, and the invariant's outcome at each of them. Produced
/// once per check by [`IsApplication::prepare`] and read by every
/// obligation. Stores and pending asyncs are ids into the universe's
/// interner, which also holds the exploration's parent edges for witness
/// traces.
pub(crate) struct CheckPrep {
    pub(crate) universe: StateUniverse,
    pub(crate) target_inputs: Vec<(StoreId, PaId)>,
    pub(crate) inv_transitions: Vec<(StoreId, PaId, InvOutcome)>,
    pub(crate) report: IsReport,
}

impl CheckPrep {
    /// The input store and arguments of a pending async at a store.
    pub(crate) fn input(&self, store: StoreId, pa: PaId) -> (&GlobalStore, &[Value]) {
        let interner = self.universe.interner();
        (interner.store(store), &interner.pa(pa).args)
    }

    /// The target inputs, resolved.
    pub(crate) fn target_inputs(&self) -> impl Iterator<Item = (&GlobalStore, &[Value])> {
        self.target_inputs.iter().map(|&(g, pa)| self.input(g, pa))
    }

    /// A firing sequence of `P` reaching `store`, when a reachable
    /// configuration has it (rather than only an invariant
    /// pseudo-configuration).
    pub(crate) fn trace_for(&self, store: StoreId) -> Option<Trace> {
        let config = self.universe.provenance(store)?;
        Some(self.universe.interner().trace_from(config))
    }

    /// [`trace_for`](Self::trace_for) a store given by value.
    pub(crate) fn trace_for_store(&self, store: &GlobalStore) -> Option<Trace> {
        self.trace_for(self.universe.interner().find_store(store)?)
    }
}
