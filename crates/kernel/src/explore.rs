//! Exhaustive small-step exploration of asynchronous programs.
//!
//! This module realises the transition relation of §3: in configuration
//! `(g, Ω)` any pending async may be scheduled; if its gate is violated the
//! program moves to the failure configuration, otherwise each enabled
//! transition updates the globals and adds the created pending asyncs to `Ω`.
//!
//! The [`Explorer`] enumerates *all* reachable configurations, which is the
//! explicit-state substitute for the SMT-backed reasoning of the paper's
//! CIVL implementation (see DESIGN.md §2 for the substitution argument).
//!
//! Exploration runs over *interned* state (see [`crate::intern`]) in a
//! [`ConcurrentInterner`] used from one thread: the visited set is the
//! configuration arena itself, successor stores are interned as diffs
//! against the parent (bounded by the firing action's write footprint) so
//! unchanged slots are shared, and successor pending bags are small-diff
//! rebuilds of the parent's interned entry vector. Duplicate detection — the
//! hot operation of explicit-state search — therefore hashes two `u32` ids
//! instead of a full configuration tree. Each configuration is interned
//! with the edge that discovered it; breadth-first order makes that
//! parent-edge log a shortest-path forest, from which every witness trace
//! is read ([`ConcurrentInterner::trace_from`]).

use std::collections::HashMap;
use std::fmt;

use crate::action::{ActionName, ActionOutcome, PendingAsync};
use crate::cintern::{ConcurrentInterner, ConfigReq};
use crate::config::{Config, Step};
use crate::error::ExploreError;
use crate::intern::{BagId, ConfigId, PaId, StoreId};
use crate::program::Program;
use crate::reduce::{canonical_parts, ReductionPolicy};
use crate::store::GlobalStore;

/// Default bound on the number of distinct configurations explored.
pub const DEFAULT_CONFIG_BUDGET: usize = 4_000_000;

/// An exhaustive breadth-first explorer for a [`Program`].
pub struct Explorer<'p> {
    program: &'p Program,
    budget: usize,
    reduction: Option<&'p dyn ReductionPolicy>,
}

impl fmt::Debug for Explorer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Explorer")
            .field("budget", &self.budget)
            .field("reduced", &self.reduction.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> Explorer<'p> {
    /// Creates an explorer with the default configuration budget.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Explorer {
            program,
            budget: DEFAULT_CONFIG_BUDGET,
            reduction: None,
        }
    }

    /// Sets the maximum number of distinct configurations to visit before
    /// giving up with [`ExploreError::BudgetExceeded`].
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Explores under a reduction policy: configurations whose pending
    /// asyncs the policy proves commuting expand only an ample singleton,
    /// and successors are canonicalized under the policy's symmetry
    /// quotient (if any) before interning. Verdicts (failure-freedom,
    /// deadlock-freedom, orbit-expanded terminal stores) are preserved;
    /// visited/edge counts refer to the *reduced* graph.
    #[must_use]
    pub fn with_reduction(mut self, policy: &'p dyn ReductionPolicy) -> Self {
        self.reduction = Some(policy);
        self
    }

    /// Explores all configurations reachable from the given initial
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BudgetExceeded`] when the state space exceeds
    /// the budget and [`ExploreError::Kernel`] when a pending async refers to
    /// an unknown action or has the wrong arity.
    pub fn explore(
        &self,
        initial: impl IntoIterator<Item = Config>,
    ) -> Result<Exploration, ExploreError> {
        // One-time action setup (e.g. compiling to bytecode) before the hot
        // loop, so first-evaluation cost never lands mid-exploration.
        self.program.prepare_actions();
        let interner = ConcurrentInterner::new();
        let mut initial_ids = Vec::new();
        let mut edges = Vec::new();
        let mut failures = Vec::new();
        let mut deadlocks = Vec::new();
        let mut frontier: Vec<ConfigId> = Vec::new();
        for config in initial {
            let (id, _) = interner.intern_config(&config, None);
            initial_ids.push(id.index());
            frontier.push(id);
        }
        // Write footprints per action, fetched once so successor stores are
        // diffed against the parent over the footprint's write set only.
        let footprints: HashMap<ActionName, Vec<usize>> = self
            .program
            .actions()
            .filter_map(|(name, a)| a.footprint().map(|f| (name.clone(), f.writes)))
            .collect();
        // Reused across configurations: the distinct pending asyncs of the
        // configuration under expansion. Bag entries are canonically sorted
        // in `Multiset` iteration order, so firing order (and hence edge and
        // discovery order) is that of the plain multiset semantics.
        let mut pa_buf: Vec<PaId> = Vec::new();
        let sym = self.reduction.and_then(ReductionPolicy::symmetry);
        // Raw successor parts → canonical parts, so each orbit is
        // canonicalized once (ids are append-only, keys never go stale).
        let mut canon_cache: HashMap<(StoreId, BagId), (StoreId, BagId)> = HashMap::new();
        let mut outcomes: Vec<(PaId, ActionOutcome)> = Vec::new();
        let mut round = Round::default();
        let mut pruned: u64 = 0;
        let mut orbit_collapses: u64 = 0;
        let mut cursor = 0;
        while cursor < frontier.len() {
            let id = frontier[cursor];
            cursor += 1;
            let (sid, bagid) = interner.config_parts(id);
            pa_buf.clear();
            pa_buf.extend(interner.bag_entries(bagid).iter().map(|&(p, _)| p));
            // An ample singleton, when the policy proves one sound here.
            let ample: Option<PaId> = match self.reduction {
                Some(policy) if pa_buf.len() >= 2 => {
                    let pending: Vec<(PendingAsync, usize)> = interner
                        .bag_entries(bagid)
                        .iter()
                        .map(|&(p, n)| (interner.pa(p).clone(), n as usize))
                        .collect();
                    policy
                        .ample(self.program, interner.store(sid), &pending)
                        .map(|i| pa_buf[i])
                }
                _ => None,
            };
            let mut progressed = pa_buf.is_empty();
            let mut to_expand: Vec<PaId> = match ample {
                Some(p) => vec![p],
                None => pa_buf.clone(),
            };
            let mut ample_round = ample.is_some();
            loop {
                let mut any_fresh = false;
                let mut at = 0;
                while at < to_expand.len() {
                    // Evaluate a chunk of the round, then intern its
                    // successors as one batch. The chunk ends at an
                    // evaluation error, or once interning its successors
                    // could cross the budget: nothing is evaluated past a
                    // point where a one-at-a-time run would already have
                    // stopped, so errors and budget exhaustion surface
                    // exactly as they would firing one pending at a time.
                    outcomes.clear();
                    let mut successors = 0;
                    let mut error = None;
                    while at < to_expand.len()
                        && interner.config_count() + successors <= self.budget
                    {
                        let paid = to_expand[at];
                        at += 1;
                        let outcome =
                            match self.program.eval_pa(interner.store(sid), interner.pa(paid)) {
                                Ok(outcome) => outcome,
                                Err(err) => {
                                    error = Some(err);
                                    break;
                                }
                            };
                        match &outcome {
                            ActionOutcome::Failure { reason } => {
                                progressed = true;
                                failures.push(Failure {
                                    config: id,
                                    fired: paid,
                                    reason: reason.clone(),
                                });
                            }
                            ActionOutcome::Transitions(ts) => {
                                progressed |= !ts.is_empty();
                                successors += ts.len();
                            }
                        }
                        outcomes.push((paid, outcome));
                    }
                    round.intern_successors(&interner, (sid, bagid), &outcomes, &footprints);
                    // Configs go in one at a time, in firing order, so
                    // config ids stay in discovery order.
                    for k in 0..round.fired.len() {
                        let mut next = (round.stores[k], round.bags[k]);
                        if let Some(spec) = sym {
                            let canon = canonical_parts(&interner, &mut canon_cache, spec, next);
                            if canon != next {
                                orbit_collapses += 1;
                                next = canon;
                            }
                        }
                        let fired = round.fired[k];
                        let (next_id, fresh) = interner.intern_config_parts(ConfigReq {
                            store: next.0,
                            bag: next.1,
                            edge: Some((id, fired)),
                        });
                        edges.push(Edge {
                            from: id.index(),
                            fired,
                            to: next_id.index(),
                        });
                        if fresh {
                            any_fresh = true;
                            if interner.config_count() > self.budget {
                                // The parent edge to `next_id` is already
                                // recorded, so the exhaustion point has a
                                // concrete (shortest) witness run.
                                return Err(ExploreError::BudgetExceeded {
                                    limit: self.budget,
                                    visited: interner.config_count(),
                                    trace: Some(interner.trace_from(next_id)),
                                });
                            }
                            frontier.push(next_id);
                        }
                    }
                    if let Some(err) = error {
                        return Err(err.into());
                    }
                }
                if ample_round {
                    if any_fresh {
                        // The ample expansion discovered a new configuration;
                        // the pruned pendings fire from there eventually.
                        pruned += (pa_buf.len() - 1) as u64;
                        break;
                    }
                    // Cycle proviso: every ample successor was already
                    // visited, so postponing the others could starve them
                    // around a cycle. Fall back to full expansion.
                    let chosen = to_expand[0];
                    to_expand = pa_buf.iter().copied().filter(|&p| p != chosen).collect();
                    ample_round = false;
                } else {
                    break;
                }
            }
            if !progressed {
                deadlocks.push(id);
            }
        }
        let configs = interner
            .config_ids()
            .map(|cid| interner.resolve_config(cid))
            .collect();
        Ok(Exploration {
            interner,
            configs,
            initial: initial_ids,
            edges,
            failures,
            deadlocks,
            pruned,
            orbit_collapses,
        })
    }

    /// Computes the program summary (the data of Def. 3.2) for a single
    /// initialized configuration.
    ///
    /// # Errors
    ///
    /// Propagates exploration errors.
    pub fn summarize(&self, initial: Config) -> Result<Summary, ExploreError> {
        let exp = self.explore([initial])?;
        Ok(Summary {
            good: !exp.has_failure(),
            terminal: exp.terminal_stores().cloned().collect(),
        })
    }
}

/// An edge of the explored configuration graph. The fired pending async is
/// stored by interned id; resolve through the exploration's interner.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Edge {
    from: usize,
    fired: PaId,
    to: usize,
}

/// The interned successors of one batch of evaluated pendings, one entry
/// per transition, aligned by index; the buffers are reused across batches.
#[derive(Default)]
struct Round {
    /// The pending async each transition fired.
    fired: Vec<PaId>,
    /// The successor stores.
    stores: Vec<StoreId>,
    /// The successor bags.
    bags: Vec<BagId>,
    /// Per transition: its span of changed slots, then of `bag_data`.
    spans: Vec<(usize, usize)>,
    /// Every transition's created entries, back to back.
    created: Vec<(PaId, u32)>,
    /// Every successor bag's merged entries, back to back.
    bag_data: Vec<(PaId, u32)>,
}

impl Round {
    /// Interns the successors of the configuration `(sid, bagid)` under
    /// the batch's evaluated `outcomes`, one batch per kind: the changed
    /// values and stores (diffed over each action's footprint write set),
    /// the created pendings, and the merged bags.
    fn intern_successors(
        &mut self,
        interner: &ConcurrentInterner,
        (sid, bagid): (StoreId, BagId),
        outcomes: &[(PaId, ActionOutcome)],
        footprints: &HashMap<ActionName, Vec<usize>>,
    ) {
        self.fired.clear();
        self.spans.clear();
        let mut changed = Vec::new();
        let mut created = Vec::new();
        for (paid, outcome) in outcomes {
            let ActionOutcome::Transitions(transitions) = outcome else {
                continue;
            };
            let hint = footprints.get(&interner.pa(*paid).action);
            for t in transitions {
                let start = changed.len();
                interner.changed_slots(sid, &t.globals, hint.map(Vec::as_slice), &mut changed);
                self.spans.push((start, changed.len()));
                self.fired.push(*paid);
                created.push(&t.created);
            }
        }
        interner.intern_successor_stores(sid, &changed, &self.spans, &mut self.stores);
        interner.intern_created(&created, &mut self.created);
        self.spans.clear();
        self.bag_data.clear();
        let mut at = 0;
        for (&fired, bag) in self.fired.iter().zip(&created) {
            let next = at + bag.distinct_len();
            let start = self.bag_data.len();
            interner.bag_after(bagid, fired, &self.created[at..next], &mut self.bag_data);
            self.spans.push((start, self.bag_data.len()));
            at = next;
        }
        interner.intern_bags(&self.bag_data, &self.spans, &mut self.bags);
    }
}

/// A recorded gate violation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Failure {
    config: ConfigId,
    fired: PaId,
    reason: String,
}

/// A **witness**: a concrete firing sequence from an initial configuration
/// to a configuration of interest — a gate failure, a deadlock, a budget
/// exhaustion point, or the configuration that contributed a store to a
/// violated premise.
///
/// Structurally identical to [`Execution`]; the separate type marks the
/// *role* (counterexample evidence rather than arbitrary behaviour) and
/// carries the compact one-line `Display` used in error messages. Full
/// Fig. 2-style renderings go through [`crate::render::render_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The steps, in firing order.
    pub steps: Vec<Step>,
}

/// Maximum firings shown by [`Trace`]'s compact `Display`.
const TRACE_DISPLAY_CAP: usize = 12;

impl Trace {
    /// The fired pending asyncs, in order.
    pub fn firings(&self) -> impl Iterator<Item = &PendingAsync> {
        self.steps.iter().map(|s| &s.fired)
    }

    /// The configuration the trace ends in (`None` for the empty trace,
    /// whose target is an initial configuration).
    #[must_use]
    pub fn last(&self) -> Option<&Config> {
        self.steps.last().map(|s| &s.after)
    }

    /// Number of firings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the trace has no firings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl From<Execution> for Trace {
    fn from(e: Execution) -> Self {
        Trace { steps: e.steps }
    }
}

impl From<Trace> for Execution {
    fn from(t: Trace) -> Self {
        Execution { steps: t.steps }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "(initial configuration)");
        }
        for (i, step) in self.steps.iter().take(TRACE_DISPLAY_CAP).enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            write!(f, "{}", step.fired)?;
        }
        if self.steps.len() > TRACE_DISPLAY_CAP {
            write!(f, " … (+{} more)", self.steps.len() - TRACE_DISPLAY_CAP)?;
        }
        Ok(())
    }
}

/// A gate violation paired with its concrete witness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureWitness {
    /// Firing sequence from an initial configuration to the configuration
    /// at which the gate is violated.
    pub trace: Trace,
    /// The pending async whose gate fails after the trace.
    pub fired: PendingAsync,
    /// The gate's failure message.
    pub reason: String,
}

impl fmt::Display for FailureWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "after {}, executing {} fails: {}",
            self.trace, self.fired, self.reason
        )
    }
}

/// The result of exhaustively exploring a program: the reachable
/// configuration graph plus all gate violations encountered.
///
/// Configurations are kept both interned (for O(1) membership probes and
/// the parent-edge log behind every witness trace) and materialized (so
/// `configs()` can hand out `&Config` without rebuilding).
#[derive(Debug)]
pub struct Exploration {
    interner: ConcurrentInterner,
    configs: Vec<Config>,
    initial: Vec<usize>,
    edges: Vec<Edge>,
    failures: Vec<Failure>,
    deadlocks: Vec<ConfigId>,
    pruned: u64,
    orbit_collapses: u64,
}

impl Exploration {
    fn resolve_pa(&self, id: PaId) -> PendingAsync {
        self.interner.pa(id).clone()
    }

    /// Number of distinct reachable configurations.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// Number of transitions in the explored graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all reachable configurations.
    pub fn configs(&self) -> impl Iterator<Item = &Config> {
        self.configs.iter()
    }

    /// Whether any reachable configuration can fail.
    #[must_use]
    pub fn has_failure(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Human-readable descriptions of all gate violations found.
    #[must_use]
    pub fn failure_reports(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|f| {
                format!(
                    "executing {} from {} fails: {}",
                    self.interner.pa(f.fired),
                    self.configs[f.config.index()],
                    f.reason
                )
            })
            .collect()
    }

    /// Configurations with pending asyncs but no enabled transition and no
    /// failure — **deadlocks**: the program can neither proceed nor
    /// terminate from them. (A blocked pending async is not by itself a
    /// deadlock; some other pending async may still run.)
    pub fn deadlocked_configs(&self) -> impl Iterator<Item = &Config> {
        self.deadlocks.iter().map(|&id| &self.configs[id.index()])
    }

    /// Whether any reachable configuration is a deadlock.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// Global stores of terminating configurations (empty `Ω`).
    pub fn terminal_stores(&self) -> impl Iterator<Item = &GlobalStore> {
        self.configs
            .iter()
            .filter(|c| c.is_terminal())
            .map(|c| &c.globals)
    }

    /// All steps `(before, fired, after)` of the explored graph.
    pub fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        self.edges.iter().map(|e| Step {
            before: self.configs[e.from].clone(),
            fired: self.resolve_pa(e.fired),
            after: self.configs[e.to].clone(),
        })
    }

    /// Reconstructs one shortest execution from an initial configuration to
    /// `target`, or `None` when `target` is unreachable.
    #[must_use]
    pub fn execution_reaching(&self, target: &Config) -> Option<Execution> {
        self.trace_to(target).map(Execution::from)
    }

    /// Reconstructs one shortest witness trace from an initial configuration
    /// to `target`, or `None` when `target` is unreachable.
    #[must_use]
    pub fn trace_to(&self, target: &Config) -> Option<Trace> {
        let id = self.interner.find_config(target)?;
        Some(self.interner.trace_from(id))
    }

    /// All gate violations, each with a concrete firing sequence reaching
    /// the configuration at which the gate fails.
    #[must_use]
    pub fn failure_witnesses(&self) -> Vec<FailureWitness> {
        self.failures
            .iter()
            .map(|fail| FailureWitness {
                trace: self.interner.trace_from(fail.config),
                fired: self.resolve_pa(fail.fired),
                reason: fail.reason.clone(),
            })
            .collect()
    }

    /// A concrete firing sequence reaching each deadlocked configuration.
    #[must_use]
    pub fn deadlock_witnesses(&self) -> Vec<Trace> {
        self.deadlocks
            .iter()
            .map(|&id| self.interner.trace_from(id))
            .collect()
    }

    /// Configuration-dedup statistics of the interner that backed this
    /// exploration (hits = duplicate configurations not re-explored).
    #[must_use]
    pub fn intern_stats(&self) -> inseq_obs::HitMissSnapshot {
        self.interner.intern_stats()
    }

    /// Pending asyncs left unexpanded by partial-order reduction (0 for
    /// unreduced explorations).
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Successors whose orbit representative differed from the raw
    /// successor under the symmetry quotient (0 without symmetry).
    #[must_use]
    pub fn orbit_collapses(&self) -> u64 {
        self.orbit_collapses
    }

    /// Enumerates terminating executions as step sequences, up to `limit`
    /// executions. Useful for the Fig. 2 rewriting demonstration; the number
    /// of interleavings explodes, so a limit is mandatory.
    #[must_use]
    pub fn terminating_executions(&self, limit: usize) -> Vec<Execution> {
        let mut out = Vec::new();
        let mut adjacency: HashMap<usize, Vec<&Edge>> = HashMap::new();
        for e in &self.edges {
            adjacency.entry(e.from).or_default().push(e);
        }
        for &start in &self.initial {
            let mut stack: Vec<(usize, Vec<Step>)> = vec![(start, Vec::new())];
            while let Some((id, path)) = stack.pop() {
                if out.len() >= limit {
                    return out;
                }
                let config = &self.configs[id];
                if config.is_terminal() {
                    out.push(Execution { steps: path });
                    continue;
                }
                // Cycles cannot occur on a terminating path twice with the
                // same config because each step consumes a PA or changes
                // state; still, guard against revisiting within one path.
                if let Some(edges) = adjacency.get(&id) {
                    for e in edges {
                        if path.len() >= self.configs.len() * 4 {
                            continue;
                        }
                        let mut next = path.clone();
                        next.push(Step {
                            before: self.configs[e.from].clone(),
                            fired: self.resolve_pa(e.fired),
                            after: self.configs[e.to].clone(),
                        });
                        stack.push((e.to, next));
                    }
                }
            }
        }
        out
    }
}

/// A finite execution: a sequence of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl Execution {
    /// The first configuration of the execution.
    #[must_use]
    pub fn first(&self) -> Option<&Config> {
        self.steps.first().map(|s| &s.before)
    }

    /// The last configuration of the execution.
    #[must_use]
    pub fn last(&self) -> Option<&Config> {
        self.steps.last().map(|s| &s.after)
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the execution has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The summary of a program from one initialized configuration: whether it is
/// failure-free (`Good`) and the set of terminating global stores (`Trans`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// `true` iff no failing execution exists (`g·ℓ ∈ Good(P)`).
    pub good: bool,
    /// The final stores of terminating executions (`Trans(P)` restricted to
    /// the initial store).
    pub terminal: std::collections::BTreeSet<GlobalStore>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{counter_program, failing_program};
    use crate::error::KernelError;
    use crate::multiset::Multiset;
    use crate::value::Value;

    #[test]
    fn counter_reaches_two() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        assert!(!exp.has_failure());
        let terminals: Vec<_> = exp.terminal_stores().collect();
        assert!(!terminals.is_empty());
        for t in terminals {
            assert_eq!(t.get(0), &Value::Int(2));
        }
    }

    #[test]
    fn summary_of_counter() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let s = Explorer::new(&p).summarize(init).unwrap();
        assert!(s.good);
        assert_eq!(s.terminal.len(), 1);
    }

    #[test]
    fn failing_program_is_detected() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        assert!(exp.has_failure());
        let reports = exp.failure_reports();
        assert!(reports.iter().any(|r| r.contains("assert false")));
    }

    #[test]
    fn budget_is_enforced() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let err = Explorer::new(&p)
            .with_budget(1)
            .explore([init])
            .unwrap_err();
        let ExploreError::BudgetExceeded {
            limit: 1,
            visited,
            trace: Some(trace),
        } = err
        else {
            panic!("expected a budget error with a witness, got {err:?}");
        };
        assert!(visited > 1);
        // The trace ends in the configuration whose discovery tripped the
        // budget, and each firing is legal in its pre-configuration.
        assert!(!trace.is_empty());
        assert_chains(&p, &trace.steps);
    }

    #[test]
    fn budget_and_evaluation_errors_surface_in_firing_order() {
        // `Inc` fires before `Zzz` (bag order); `Zzz` names no action.
        let p = counter_program();
        let mut pending = Multiset::new();
        pending.insert(PendingAsync::new("Inc", vec![]));
        pending.insert(PendingAsync::new("Zzz", vec![]));
        let init = Config::new(GlobalStore::new(vec![Value::Int(0)]), pending);
        // `Inc`'s successor crosses the budget before `Zzz` is evaluated.
        let err = Explorer::new(&p)
            .with_budget(1)
            .explore([init.clone()])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::BudgetExceeded {
                    limit: 1,
                    visited: 2,
                    ..
                }
            ),
            "expected the budget to trip first, got {err:?}"
        );
        // With room to spare, the evaluation error is what stops the run.
        let err = Explorer::new(&p).explore([init]).unwrap_err();
        assert!(
            matches!(err, ExploreError::Kernel(KernelError::UnknownAction(ref a)) if a.as_str() == "Zzz"),
            "expected the unknown action, got {err:?}"
        );
    }

    /// Replays `steps` against the program: endpoints chain, every fired
    /// pending async is present in its pre-configuration, and the action's
    /// semantics admit the recorded post-configuration.
    fn assert_chains(p: &crate::program::Program, steps: &[Step]) {
        for w in steps.windows(2) {
            assert_eq!(w[0].after, w[1].before, "steps must chain");
        }
        for s in steps {
            assert!(
                s.before.pending.count(&s.fired) > 0,
                "{} not pending in {}",
                s.fired,
                s.before
            );
            let outcome = p.eval_pa(&s.before.globals, &s.fired).unwrap();
            let ActionOutcome::Transitions(ts) = outcome else {
                panic!("fired pending async fails in its pre-configuration");
            };
            let replayed = ts.iter().any(|t| {
                let mut bag = s.before.pending.clone();
                bag.remove_one(&s.fired);
                for (pa, n) in t.created.iter_counts() {
                    bag.insert_n(pa.clone(), n);
                }
                t.globals == s.after.globals && bag == s.after.pending
            });
            assert!(replayed, "no transition of {} replays the step", s.fired);
        }
    }

    #[test]
    fn failure_witness_replays_to_failing_config() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init.clone()]).unwrap();
        let witnesses = exp.failure_witnesses();
        assert_eq!(witnesses.len(), exp.failure_reports().len());
        for w in &witnesses {
            assert_chains(&p, &w.trace.steps);
            let end = w.trace.last().unwrap_or(&init);
            // The violated pending async really is schedulable at the end of
            // the trace, and really fails there.
            assert!(end.pending.count(&w.fired) > 0);
            let outcome = p.eval_pa(&end.globals, &w.fired).unwrap();
            assert!(matches!(outcome, ActionOutcome::Failure { .. }));
            assert!(w.to_string().contains("fails"));
        }
    }

    #[test]
    fn trace_to_reaches_requested_config() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init.clone()]).unwrap();
        // Pick the lexicographically largest reachable config (some
        // non-initial terminal) and reconstruct a path to it.
        let target = exp.configs().max().unwrap().clone();
        let trace = exp.trace_to(&target).expect("reachable");
        assert_chains(&p, &trace.steps);
        assert_eq!(trace.last().unwrap_or(&init), &target);
        // Unreachable configurations yield no trace.
        let ghost = Config::new(
            GlobalStore::new(vec![crate::value::Value::Int(99)]),
            crate::multiset::Multiset::new(),
        );
        assert!(exp.trace_to(&ghost).is_none());
    }

    #[test]
    fn deadlock_witnesses_end_in_deadlocked_configs() {
        use crate::action::{NativeAction, PendingAsync};
        use crate::program::{GlobalSchema, Program};
        let mut b = Program::builder(GlobalSchema::default());
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &crate::store::GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![crate::action::Transition::new(
                    g.clone(),
                    crate::multiset::Multiset::singleton(PendingAsync::new("Stuck", vec![])),
                )])
            }),
        );
        b.action(
            "Stuck",
            NativeAction::new("Stuck", 0, |_: &crate::store::GlobalStore, _: &[Value]| {
                ActionOutcome::blocked()
            }),
        );
        let p = b.build().unwrap();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let witnesses = exp.deadlock_witnesses();
        assert_eq!(witnesses.len(), 1);
        let deadlocked: Vec<_> = exp.deadlocked_configs().collect();
        assert_eq!(witnesses[0].last().unwrap(), deadlocked[0]);
        assert!(witnesses[0].to_string().contains("Main()"));
    }

    #[test]
    fn intern_stats_reflect_dedup() {
        use crate::action::{NativeAction, PendingAsync, Transition};
        use crate::multiset::Multiset;
        use crate::program::{GlobalSchema, Program};
        use crate::store::GlobalStore;
        // Main spawns two commuting writers A and B; both interleavings meet
        // again in the same final configuration, so the second arrival is a
        // dedup hit.
        let write = |slot: usize| {
            move |g: &GlobalStore, _: &[Value]| {
                let mut g = g.clone();
                g.set(slot, Value::Int(1));
                ActionOutcome::Transitions(vec![Transition::new(g, Multiset::new())])
            }
        };
        let mut b = Program::builder(GlobalSchema::new(["a", "b"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                let mut created = Multiset::new();
                created.insert(PendingAsync::new("A", vec![]));
                created.insert(PendingAsync::new("B", vec![]));
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
            }),
        );
        b.action("A", NativeAction::new("A", 0, write(0)));
        b.action("B", NativeAction::new("B", 0, write(1)));
        let p = b.build().unwrap();
        let init = p
            .initial_config_with(GlobalStore::new(vec![Value::Int(0), Value::Int(0)]), vec![])
            .unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let stats = exp.intern_stats();
        // Every distinct config is one miss; the diamond's re-convergence is
        // at least one hit.
        assert_eq!(stats.misses as usize, exp.config_count());
        assert!(stats.hits > 0);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn deadlocks_are_detected() {
        use crate::action::{NativeAction, PendingAsync};
        use crate::program::{GlobalSchema, Program};
        // Main spawns a task that blocks forever.
        let mut b = Program::builder(GlobalSchema::default());
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &crate::store::GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![crate::action::Transition::new(
                    g.clone(),
                    crate::multiset::Multiset::singleton(PendingAsync::new("Stuck", vec![])),
                )])
            }),
        );
        b.action(
            "Stuck",
            NativeAction::new("Stuck", 0, |_: &crate::store::GlobalStore, _: &[Value]| {
                ActionOutcome::blocked()
            }),
        );
        let p = b.build().unwrap();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        assert!(exp.has_deadlock());
        assert_eq!(exp.deadlocked_configs().count(), 1);
        // The counter program has no deadlocks.
        let p = crate::demo::counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        assert!(!exp.has_deadlock());
    }

    #[test]
    fn terminating_executions_have_consistent_endpoints() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init.clone()]).unwrap();
        let execs = exp.terminating_executions(16);
        assert!(!execs.is_empty());
        for e in &execs {
            assert_eq!(e.first().unwrap(), &init);
            assert!(e.last().unwrap().is_terminal());
            for w in e.steps.windows(2) {
                assert_eq!(w[0].after, w[1].before, "steps must chain");
            }
        }
    }
}
