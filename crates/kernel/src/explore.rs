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
//! configuration arena itself, so duplicate detection — the hot operation
//! of explicit-state search — hashes two `u32` ids instead of a full
//! configuration tree. Each configuration is expanded through a
//! [`SuccessorCache`], the same type every worker of the parallel engine
//! expands through: firing a pending async depends only on the
//! `(store, pending async)` pair, so a pair fired before, under any bag,
//! skips evaluation and store interning, and only its bag merge and
//! config intern rerun. Successor stores are interned as diffs against the
//! parent (bounded by the firing action's write footprint) and successor
//! bags as small-diff rebuilds of the parent's entries. Each configuration
//! is interned with the edge that discovered it; breadth-first order makes
//! that parent-edge log a shortest-path forest, from which every witness
//! trace is read ([`ConcurrentInterner::trace_from`]).
//!
//! The result, an [`Exploration`], is a view over that interner and owns
//! no configuration: failures and deadlocks are recorded as config ids,
//! terminal stores as store ids, and the transition relation only as a
//! count. The parallel engine returns the same type.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use crate::action::{ActionOutcome, PendingAsync};
use crate::cintern::{ConcurrentInterner, ConfigReq};
use crate::config::{Config, Step};
use crate::error::ExploreError;
use crate::intern::{BagId, ConfigId, PaId, StoreId};
use crate::program::Program;
use crate::reduce::{canonical_parts, ReductionPolicy};
use crate::store::GlobalStore;
use crate::succ::SuccessorCache;

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
    /// quotient (if any) before interning. A reduced run is a real run, so
    /// every failure, deadlock and terminal store it reports is genuine,
    /// but partial-order reduction can miss deadlocks and terminal stores
    /// (DESIGN.md §4g). Visited/edge counts refer to the *reduced* graph.
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
        let mut record = ExploreRecord::default();
        // Duplicate seeds are expanded once, as in the parallel engine.
        let mut frontier: Vec<ConfigId> = Vec::new();
        for config in initial {
            let (id, fresh) = interner.intern_config(&config, None);
            if fresh {
                frontier.push(id);
            }
        }
        // Reused across configurations: the distinct pending asyncs of the
        // configuration under expansion. Bag entries are canonically sorted
        // in `Multiset` iteration order, so firing order (and hence edge and
        // discovery order) is that of the plain multiset semantics.
        let mut pa_buf: Vec<PaId> = Vec::new();
        let sym = self.reduction.and_then(ReductionPolicy::symmetry);
        // Raw successor parts → canonical parts, so each orbit is
        // canonicalized once (ids are append-only, keys never go stale).
        let mut canon_cache: HashMap<(StoreId, BagId), (StoreId, BagId)> = HashMap::new();
        let mut cache = SuccessorCache::new(self.program);
        let mut outcomes: Vec<(PaId, ActionOutcome)> = Vec::new();
        let mut cursor = 0;
        while cursor < frontier.len() {
            let id = frontier[cursor];
            cursor += 1;
            let (sid, bagid) = interner.config_parts(id);
            pa_buf.clear();
            pa_buf.extend(interner.bag_entries(bagid).iter().map(|&(p, _)| p));
            if pa_buf.is_empty() {
                record.terminal.push(sid);
            }
            cache.begin(pa_buf.len());
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
                    // Probe or evaluate a chunk of the round, then apply it
                    // as one batch. The chunk ends at an evaluation error,
                    // or once its successors could cross the budget (a
                    // cache hit knows its count without evaluating):
                    // nothing is evaluated past a point where a
                    // one-at-a-time run would already have stopped, so
                    // errors and budget exhaustion surface exactly as they
                    // would firing one pending at a time.
                    outcomes.clear();
                    let start = at;
                    let mut successors = 0;
                    let mut error = None;
                    while at < to_expand.len()
                        && interner.config_count() + successors <= self.budget
                    {
                        let paid = to_expand[at];
                        if let Some(n) = cache.probe(sid, paid) {
                            successors += n;
                        } else {
                            match self.program.eval_pa(interner.store(sid), interner.pa(paid)) {
                                Ok(outcome) => {
                                    if let ActionOutcome::Transitions(ts) = &outcome {
                                        successors += ts.len();
                                    }
                                    outcomes.push((paid, outcome));
                                }
                                Err(err) => {
                                    error = Some(err);
                                    break;
                                }
                            }
                        }
                        at += 1;
                    }
                    cache.fill(&interner, sid, outcomes.iter().map(|(p, o)| (*p, o.into())));
                    let Ok(stepped) =
                        cache.apply(&interner, bagid, &to_expand[start..at], |fired, reason| {
                            record.failures.push((id, fired, reason.to_owned()));
                            Ok::<(), Infallible>(())
                        });
                    progressed |= stepped;
                    // Configs go in one at a time, in firing order, so
                    // config ids stay in discovery order.
                    for (fired, mut next) in cache.successors() {
                        if let Some(spec) = sym {
                            let canon = canonical_parts(&interner, &mut canon_cache, spec, next);
                            if canon != next {
                                record.orbit_collapses += 1;
                                next = canon;
                            }
                        }
                        let (next_id, fresh) = interner.intern_config_parts(ConfigReq {
                            store: next.0,
                            bag: next.1,
                            edge: Some((id, fired)),
                        });
                        record.edges += 1;
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
                        record.pruned += (pa_buf.len() - 1) as u64;
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
                record.deadlocks.push(id);
            }
        }
        record.succ_cache = cache.stats();
        record.succ_bypass = cache.bypassed();
        Ok(Exploration::new(interner, record))
    }

    /// Computes the program summary (the data of Def. 3.2) for a single
    /// initialized configuration.
    ///
    /// # Errors
    ///
    /// Propagates exploration errors.
    pub fn summarize(&self, initial: Config) -> Result<Summary, ExploreError> {
        Ok(self.explore([initial])?.summary())
    }
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

/// What an explorer records while it runs, besides the configurations and
/// parent edges it interns: everything is an interned id or a count, and
/// [`Exploration`] resolves it on demand. The parallel engine fills one
/// from its workers' outputs and hands it to [`Exploration::new`].
#[derive(Debug, Default)]
pub struct ExploreRecord {
    /// Transitions fired: one per successor interned, duplicates included.
    pub edges: usize,
    /// Gate violations: the configuration at which the gate fails, the
    /// fired pending async, and the gate's reason.
    pub failures: Vec<(ConfigId, PaId, String)>,
    /// Configurations with pending asyncs but no enabled transition and no
    /// failure.
    pub deadlocks: Vec<ConfigId>,
    /// Stores of the configurations expanded with an empty bag, in the
    /// order [`Exploration::terminal_stores`] yields them.
    pub terminal: Vec<StoreId>,
    /// Pending asyncs left unexpanded by partial-order reduction.
    pub pruned: u64,
    /// Successors whose orbit representative differed from the raw
    /// successor under the symmetry quotient.
    pub orbit_collapses: u64,
    /// Successor-cache hits and misses; see [`crate::succ`].
    pub succ_cache: inseq_obs::HitMissSnapshot,
    /// Whether a successor cache went to bypass after its warmup.
    pub succ_bypass: bool,
}

/// The result of exhaustively exploring a program, from either explorer: a
/// view over the interner that holds the reachable configurations and
/// their parent edges, plus the [`ExploreRecord`] of failures, deadlocks
/// and terminal stores.
///
/// Nothing is materialized: [`configs`](Self::configs),
/// [`deadlocked_configs`](Self::deadlocked_configs) and
/// [`failure_reports`](Self::failure_reports) resolve configurations from
/// the arenas on demand, [`terminal_stores`](Self::terminal_stores) borrows
/// them, and the transition relation is not kept at all (only its size, in
/// [`edge_count`](Self::edge_count)); [`steps`](Self::steps) re-derives it.
#[derive(Debug)]
pub struct Exploration {
    interner: Arc<ConcurrentInterner>,
    record: ExploreRecord,
}

impl Exploration {
    /// An exploration over the configurations interned in `interner`.
    #[must_use]
    pub fn new(interner: ConcurrentInterner, record: ExploreRecord) -> Self {
        Exploration {
            interner: Arc::new(interner),
            record,
        }
    }

    /// The interner holding this exploration's configurations and their
    /// parent edges. A [`StateUniverse`](crate::StateUniverse) built from
    /// the exploration shares it.
    #[must_use]
    pub fn interner(&self) -> &Arc<ConcurrentInterner> {
        &self.interner
    }

    /// Number of distinct reachable configurations.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.interner.config_count()
    }

    /// Number of transitions in the explored graph (counted, not stored).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.record.edges
    }

    /// Iterates over all reachable configurations in id order, resolving
    /// each from the arenas. For the sequential explorer that is discovery
    /// order; for the parallel engine the order is schedule-dependent.
    pub fn configs(&self) -> impl Iterator<Item = Config> + '_ {
        self.interner
            .config_ids()
            .map(|id| self.interner.resolve_config(id))
    }

    /// Whether any reachable configuration can fail.
    #[must_use]
    pub fn has_failure(&self) -> bool {
        !self.record.failures.is_empty()
    }

    /// Human-readable descriptions of all gate violations found.
    #[must_use]
    pub fn failure_reports(&self) -> Vec<String> {
        self.record
            .failures
            .iter()
            .map(|(config, fired, reason)| {
                format!(
                    "executing {} from {} fails: {reason}",
                    self.interner.pa(*fired),
                    self.interner.resolve_config(*config),
                )
            })
            .collect()
    }

    /// Configurations with pending asyncs but no enabled transition and no
    /// failure — **deadlocks**: the program can neither proceed nor
    /// terminate from them. (A blocked pending async is not by itself a
    /// deadlock; some other pending async may still run.)
    pub fn deadlocked_configs(&self) -> impl Iterator<Item = Config> + '_ {
        self.record
            .deadlocks
            .iter()
            .map(|&id| self.interner.resolve_config(id))
    }

    /// Whether any reachable configuration is a deadlock.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        !self.record.deadlocks.is_empty()
    }

    /// Global stores of terminating configurations (empty `Ω`).
    pub fn terminal_stores(&self) -> impl Iterator<Item = &GlobalStore> {
        self.record
            .terminal
            .iter()
            .map(|&sid| self.interner.store(sid))
    }

    /// The program summary (the data of Def. 3.2): `good` iff no gate
    /// violation was found, plus the set of terminating stores.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            good: !self.has_failure(),
            terminal: self.terminal_stores().cloned().collect(),
        }
    }

    /// All steps `(before, fired, after)` of the *unreduced* transition
    /// relation out of the explored configurations, re-derived by firing
    /// every distinct pending async of each configuration (in id order)
    /// under `program`, which must be the explored program. The order is
    /// that of the explorer's firings, so for an unreduced sequential
    /// exploration this is its edge list, of length
    /// [`edge_count`](Self::edge_count). A reduced exploration's steps also
    /// include the firings it pruned and their raw (uncanonicalized)
    /// successors; a firing whose evaluation errs, which only a pruned
    /// firing can, contributes no step.
    pub fn steps<'a>(&'a self, program: &'a Program) -> impl Iterator<Item = Step> + 'a {
        self.configs()
            .flat_map(move |before| fire_all(program, &before))
    }

    /// Reconstructs one shortest execution from an initial configuration to
    /// `target`, or `None` when `target` is unreachable.
    #[must_use]
    pub fn execution_reaching(&self, target: &Config) -> Option<Execution> {
        self.trace_to(target).map(Execution::from)
    }

    /// Reconstructs a witness trace from an initial configuration to
    /// `target`, or `None` when `target` is unreachable. Sequential
    /// explorations return a shortest one; the parallel engine's traces are
    /// valid firing sequences but not guaranteed shortest.
    #[must_use]
    pub fn trace_to(&self, target: &Config) -> Option<Trace> {
        let id = self.interner.find_config(target)?;
        Some(self.interner.trace_from(id))
    }

    /// All gate violations, each with a concrete firing sequence reaching
    /// the configuration at which the gate fails.
    #[must_use]
    pub fn failure_witnesses(&self) -> Vec<FailureWitness> {
        self.record
            .failures
            .iter()
            .map(|(config, fired, reason)| FailureWitness {
                trace: self.interner.trace_from(*config),
                fired: self.interner.pa(*fired).clone(),
                reason: reason.clone(),
            })
            .collect()
    }

    /// A concrete firing sequence reaching each deadlocked configuration.
    #[must_use]
    pub fn deadlock_witnesses(&self) -> Vec<Trace> {
        self.record
            .deadlocks
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

    /// Successor-cache probes answered without evaluation (hits) and
    /// probes that evaluated (misses); see [`crate::succ`].
    #[must_use]
    pub fn succ_cache_stats(&self) -> inseq_obs::HitMissSnapshot {
        self.record.succ_cache
    }

    /// Whether the successor cache went to bypass after its warmup.
    #[must_use]
    pub fn succ_bypass(&self) -> bool {
        self.record.succ_bypass
    }

    /// Pending asyncs left unexpanded by partial-order reduction (0 for
    /// unreduced explorations).
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.record.pruned
    }

    /// Successors whose orbit representative differed from the raw
    /// successor under the symmetry quotient (0 without symmetry).
    #[must_use]
    pub fn orbit_collapses(&self) -> u64 {
        self.record.orbit_collapses
    }

    /// Enumerates terminating executions as step sequences, up to `limit`
    /// executions, by a depth-first walk of the relation
    /// [`steps`](Self::steps) lists, from each initial configuration (the
    /// configurations with no parent edge).
    /// Useful for the Fig. 2 rewriting demonstration; the number of
    /// interleavings explodes, so a limit is mandatory.
    #[must_use]
    pub fn terminating_executions(&self, program: &Program, limit: usize) -> Vec<Execution> {
        let mut out = Vec::new();
        // Cycles cannot occur on a terminating path twice with the same
        // config because each step consumes a PA or changes state; still,
        // bound the path length.
        let max_len = self.config_count() * 4;
        let seeds = self
            .interner
            .config_ids()
            .filter(|&id| self.interner.parent_edge(id).is_none());
        for start in seeds {
            let mut stack = vec![(self.interner.resolve_config(start), Vec::new())];
            while let Some((config, path)) = stack.pop() {
                if out.len() >= limit {
                    return out;
                }
                if config.is_terminal() {
                    out.push(Execution { steps: path });
                    continue;
                }
                if path.len() >= max_len {
                    continue;
                }
                for step in fire_all(program, &config) {
                    let after = step.after.clone();
                    let mut next = path.clone();
                    next.push(step);
                    stack.push((after, next));
                }
            }
        }
        out
    }
}

/// The steps out of `before` under the plain multiset semantics: each
/// distinct pending async in bag order, each of its transitions in order.
fn fire_all(program: &Program, before: &Config) -> Vec<Step> {
    let mut steps = Vec::new();
    for fired in before.pending.distinct() {
        let Ok(ActionOutcome::Transitions(ts)) = program.eval_pa(&before.globals, fired) else {
            continue;
        };
        let mut rest = before.pending.clone();
        rest.remove_one(fired);
        for t in ts {
            steps.push(Step {
                before: before.clone(),
                fired: fired.clone(),
                after: Config::new(t.globals, rest.union(&t.created)),
            });
        }
    }
    steps
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
        let target = exp.configs().max().unwrap();
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
        assert_eq!(witnesses[0].last().unwrap(), &deadlocked[0]);
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
        let execs = exp.terminating_executions(&p, 16);
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
