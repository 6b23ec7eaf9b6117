//! The left-mover conditions of §3 (and their right-mover duals), checked by
//! enumeration over a state universe.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use inseq_kernel::hash::FxHashMap;
use inseq_kernel::{
    ActionName, ActionOutcome, ActionSemantics, BagId, ConcurrentInterner, GlobalStore, PaId,
    PendingAsync, Program, StateUniverse, StoreId,
};
use inseq_obs::HitMissSnapshot;

use crate::types::MoverType;

/// A violated mover condition, with a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoverViolation {
    /// Condition (1): the mover's gate was not forward-preserved by a step of
    /// another action.
    GateNotForwardPreserved {
        /// The candidate mover PA.
        mover: PendingAsync,
        /// The action that destroyed the gate.
        other: PendingAsync,
        /// The store at which the other action stepped.
        store: GlobalStore,
        /// The failure reason after the step.
        reason: String,
    },
    /// Condition (2): the other action's gate held after the mover but not
    /// before it.
    GateNotBackwardPreserved {
        /// The candidate mover PA.
        mover: PendingAsync,
        /// The action whose gate was manufactured by the mover.
        other: PendingAsync,
        /// The store before the mover's step.
        store: GlobalStore,
    },
    /// Condition (3): executing `other; mover` reached a state that
    /// `mover; other` cannot reach (with identical created pending asyncs).
    DoesNotCommute {
        /// The candidate mover PA.
        mover: PendingAsync,
        /// The action it fails to commute with.
        other: PendingAsync,
        /// The store at which commutation fails.
        store: GlobalStore,
        /// The end store reachable only in the original order.
        target: GlobalStore,
    },
    /// Condition (4): the mover blocks from a store satisfying its gate.
    Blocking {
        /// The candidate mover PA.
        mover: PendingAsync,
        /// The store at which the mover has no transition.
        store: GlobalStore,
    },
}

impl MoverViolation {
    /// The store at which the violated condition was observed. Every
    /// variant carries one; when the store entered the universe from an
    /// exploration, [`inseq_kernel::StateUniverse::provenance`] names a
    /// reachable configuration exhibiting it, from which the originating
    /// exploration can reconstruct a concrete witness run.
    #[must_use]
    pub fn store(&self) -> &GlobalStore {
        match self {
            MoverViolation::GateNotForwardPreserved { store, .. }
            | MoverViolation::GateNotBackwardPreserved { store, .. }
            | MoverViolation::DoesNotCommute { store, .. }
            | MoverViolation::Blocking { store, .. } => store,
        }
    }
}

impl fmt::Display for MoverViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoverViolation::GateNotForwardPreserved {
                mover,
                other,
                store,
                reason,
            } => write!(
                f,
                "gate of {mover} is not forward-preserved by {other} at {store}: {reason}"
            ),
            MoverViolation::GateNotBackwardPreserved {
                mover,
                other,
                store,
            } => write!(
                f,
                "gate of {other} is not backward-preserved by {mover} at {store}"
            ),
            MoverViolation::DoesNotCommute {
                mover,
                other,
                store,
                target,
            } => write!(
                f,
                "{mover} does not commute past {other} at {store}: end store {target} \
                 is unreachable in the commuted order"
            ),
            MoverViolation::Blocking { mover, store } => {
                write!(f, "{mover} blocks at {store} although its gate holds")
            }
        }
    }
}

/// Memoization key: action identity (by `Arc` address) plus the *interned*
/// input store and pending async. A [`PaId`] is injective on (name, args),
/// so it names the argument list exactly; the action pointer still
/// separates an abstraction from the program's own action of the same
/// name. The same `(store, args)` inputs recur across many co-enabled
/// pairs, so caching turns the quadratic pairwise sweep into mostly
/// lookups — and with id keys a lookup hashes three machine words instead
/// of a store-and-arguments tree.
type EvalKey = (usize, StoreId, PaId);

type EvalCache = FxHashMap<EvalKey, Rc<CachedOutcome>>;

/// An action outcome with interned post-stores and created bags. Cached
/// behind `Rc` so a memo hit is a pointer bump, not an outcome deep-clone,
/// and so the pairwise conditions compare end stores and created multisets
/// by id equality.
#[derive(Debug)]
enum CachedOutcome {
    Failure(String),
    Transitions(Vec<CachedTransition>),
}

#[derive(Debug, Clone, Copy)]
struct CachedTransition {
    globals: StoreId,
    created: BagId,
}

/// Observability counters of one [`MoverChecker`]: evaluation-cache
/// effectiveness plus the number of pairwise condition checks performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoverStats {
    /// Hits/misses of the `(action, store, pending async)` evaluation cache.
    pub eval_cache: HitMissSnapshot,
    /// `(mover, partner, store)` triples checked against conditions (1)-(3)
    /// or their right-mover duals.
    pub pairwise_checks: u64,
}

impl MoverStats {
    /// Component-wise sum, for aggregating per-job checkers.
    #[must_use]
    pub fn merged(self, other: MoverStats) -> MoverStats {
        MoverStats {
            eval_cache: self.eval_cache.merged(other.eval_cache),
            pairwise_checks: self.pairwise_checks + other.pairwise_checks,
        }
    }
}

/// A mover-condition checker bound to a program and a quantification
/// universe. Action evaluations are memoized for the checker's lifetime.
#[derive(Debug)]
pub struct MoverChecker<'a> {
    program: &'a Program,
    universe: &'a StateUniverse,
    interner: ConcurrentInterner,
    cache: RefCell<EvalCache>,
    /// Stats live in `Cell`s (the checker is single-threaded by
    /// construction — the memo is a `RefCell`) so read-only checking
    /// methods can count without widening their borrows.
    eval_hits: Cell<u64>,
    eval_misses: Cell<u64>,
    pairwise: Cell<u64>,
}

impl<'a> MoverChecker<'a> {
    /// Creates a checker for `program` quantifying over `universe`.
    #[must_use]
    pub fn new(program: &'a Program, universe: &'a StateUniverse) -> Self {
        // One-time action setup (e.g. compiling to bytecode) ahead of the
        // quadratic pairwise-eval loops.
        program.prepare_actions();
        MoverChecker {
            program,
            universe,
            interner: ConcurrentInterner::new(),
            cache: RefCell::new(EvalCache::default()),
            eval_hits: Cell::new(0),
            eval_misses: Cell::new(0),
            pairwise: Cell::new(0),
        }
    }

    /// The checker's counters so far. Observability data only; resetting or
    /// ignoring them never changes a verdict.
    #[must_use]
    pub fn stats(&self) -> MoverStats {
        MoverStats {
            eval_cache: HitMissSnapshot::new(self.eval_hits.get(), self.eval_misses.get()),
            pairwise_checks: self.pairwise.get(),
        }
    }

    fn outcome_at(
        &self,
        action: &Arc<dyn ActionSemantics>,
        store: StoreId,
        pa: PaId,
    ) -> Rc<CachedOutcome> {
        let key = (Arc::as_ptr(action).cast::<()>() as usize, store, pa);
        if let Some(hit) = self.cache.borrow().get(&key) {
            self.eval_hits.set(self.eval_hits.get() + 1);
            return Rc::clone(hit);
        }
        self.eval_misses.set(self.eval_misses.get() + 1);
        let interner = &self.interner;
        let out = action.eval(interner.store(store), &interner.pa(pa).args);
        let cached = Rc::new(match out {
            ActionOutcome::Failure { reason } => CachedOutcome::Failure(reason),
            ActionOutcome::Transitions(ts) => CachedOutcome::Transitions(
                ts.iter()
                    .map(|t| CachedTransition {
                        globals: interner.intern_store(&t.globals),
                        created: interner.intern_bag(&t.created),
                    })
                    .collect(),
            ),
        });
        self.cache.borrow_mut().insert(key, Rc::clone(&cached));
        cached
    }

    /// Checks that `mover` (which executes wherever PAs named `mover_name`
    /// appear in the universe) is a **left mover** w.r.t. every action of the
    /// program — the paper's `LeftMover(l, P)`.
    ///
    /// `mover` may be an *abstraction* of the action named `mover_name`; the
    /// paper's (LM) condition checks exactly this situation.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition with a concrete witness.
    pub fn check_left(
        &self,
        mover: &Arc<dyn ActionSemantics>,
        mover_name: &ActionName,
    ) -> Result<(), MoverViolation> {
        // The mover may be an abstraction outside the program's action map,
        // so it gets its own setup call.
        mover.prepare();
        // Conditions (1)-(3): pairwise against every co-enabled partner.
        for (pa_l, pa_x, stores) in self.universe.coenabled_with_first(mover_name) {
            let x = match self.program.action(&pa_x.action) {
                Ok(x) => x,
                Err(_) => continue, // partner no longer in the pool
            };
            let l_id = self.interner.intern_pa(pa_l);
            let x_id = self.interner.intern_pa(pa_x);
            for g in stores {
                self.check_pair_left(mover, (pa_l, l_id), x, (pa_x, x_id), g)?;
            }
        }
        // Condition (4): non-blocking from every store where the gate holds.
        for (g, args) in self.universe.enabled_at(mover_name) {
            let pa = PendingAsync::new(mover_name.clone(), args.clone());
            let g_id = self.interner.intern_store(g);
            let pa_id = self.interner.intern_pa(&pa);
            match &*self.outcome_at(mover, g_id, pa_id) {
                CachedOutcome::Failure(_) => {} // outside the gate: vacuous
                CachedOutcome::Transitions(ts) => {
                    if ts.is_empty() {
                        return Err(MoverViolation::Blocking {
                            mover: pa,
                            store: g.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_pair_left(
        &self,
        l: &Arc<dyn ActionSemantics>,
        (pa_l, l_id): (&PendingAsync, PaId),
        x: &Arc<dyn ActionSemantics>,
        (pa_x, x_id): (&PendingAsync, PaId),
        g: &GlobalStore,
    ) -> Result<(), MoverViolation> {
        self.pairwise.set(self.pairwise.get() + 1);
        let g_id = self.interner.intern_store(g);
        let l_out = self.outcome_at(l, g_id, l_id);
        let x_out = self.outcome_at(x, g_id, x_id);
        let l_fails = matches!(*l_out, CachedOutcome::Failure(_));

        // (1) Forward preservation of ρ_l by x: if ρ_l holds at g and x steps
        // g → g′, then ρ_l holds at g′.
        if !l_fails {
            if let CachedOutcome::Transitions(x_ts) = &*x_out {
                for t in x_ts {
                    if let CachedOutcome::Failure(reason) = &*self.outcome_at(l, t.globals, l_id) {
                        return Err(MoverViolation::GateNotForwardPreserved {
                            mover: pa_l.clone(),
                            other: pa_x.clone(),
                            store: g.clone(),
                            reason: reason.clone(),
                        });
                    }
                }
            }
        }

        // (2) Backward preservation of ρ_x by l: if l steps g → g′ and ρ_x
        // holds at g′, then ρ_x already held at g.
        if let CachedOutcome::Transitions(l_ts) = &*l_out {
            if matches!(*x_out, CachedOutcome::Failure(_)) {
                for t in l_ts {
                    if !matches!(
                        *self.outcome_at(x, t.globals, x_id),
                        CachedOutcome::Failure(_)
                    ) {
                        return Err(MoverViolation::GateNotBackwardPreserved {
                            mover: pa_l.clone(),
                            other: pa_x.clone(),
                            store: g.clone(),
                        });
                    }
                }
            }
        }

        // (3) Commutativity: every outcome of x; l is an outcome of l; x
        // (same end store, same created PAs on both sides — compared by
        // interned id, so each comparison is O(1)).
        if !l_fails {
            if let CachedOutcome::Transitions(x_ts) = &*x_out {
                for tx in x_ts {
                    let l_after = self.outcome_at(l, tx.globals, l_id);
                    if let CachedOutcome::Transitions(l_after) = &*l_after {
                        for tl in l_after {
                            if !self.commuted_order_reaches(
                                l, l_id, x, x_id, g_id, tl.globals, tl.created, tx.created,
                            ) {
                                return Err(MoverViolation::DoesNotCommute {
                                    mover: pa_l.clone(),
                                    other: pa_x.clone(),
                                    store: g.clone(),
                                    target: self.interner.store(tl.globals).clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Is there a path l; x from `g` to `target` creating exactly
    /// (`omega_l`, `omega_x`)? All states and bags are interned ids, so the
    /// membership test is a scan of id comparisons.
    #[allow(clippy::too_many_arguments)]
    fn commuted_order_reaches(
        &self,
        l: &Arc<dyn ActionSemantics>,
        l_id: PaId,
        x: &Arc<dyn ActionSemantics>,
        x_id: PaId,
        g: StoreId,
        target: StoreId,
        omega_l: BagId,
        omega_x: BagId,
    ) -> bool {
        let l_first = self.outcome_at(l, g, l_id);
        let l_ts = match &*l_first {
            CachedOutcome::Transitions(ts) => ts,
            CachedOutcome::Failure(_) => return false,
        };
        for tl in l_ts {
            if tl.created != omega_l {
                continue;
            }
            let x_after = self.outcome_at(x, tl.globals, x_id);
            if let CachedOutcome::Transitions(x_ts) = &*x_after {
                if x_ts
                    .iter()
                    .any(|tx| tx.globals == target && tx.created == omega_x)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Checks that `mover` is a **right mover** w.r.t. every action of the
    /// program: every outcome of `mover; x` is an outcome of `x; mover`, and
    /// gates are preserved in the dual directions.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition with a concrete witness.
    pub fn check_right(
        &self,
        mover: &Arc<dyn ActionSemantics>,
        mover_name: &ActionName,
    ) -> Result<(), MoverViolation> {
        mover.prepare();
        for (pa_r, pa_x, stores) in self.universe.coenabled_with_first(mover_name) {
            let x = match self.program.action(&pa_x.action) {
                Ok(x) => x,
                Err(_) => continue,
            };
            let r_id = self.interner.intern_pa(pa_r);
            let x_id = self.interner.intern_pa(pa_x);
            for g in stores {
                self.check_pair_right(mover, (pa_r, r_id), x, (pa_x, x_id), g)?;
            }
        }
        Ok(())
    }

    fn check_pair_right(
        &self,
        r: &Arc<dyn ActionSemantics>,
        (pa_r, r_id): (&PendingAsync, PaId),
        x: &Arc<dyn ActionSemantics>,
        (pa_x, x_id): (&PendingAsync, PaId),
        g: &GlobalStore,
    ) -> Result<(), MoverViolation> {
        self.pairwise.set(self.pairwise.get() + 1);
        let g_id = self.interner.intern_store(g);
        let r_out = self.outcome_at(r, g_id, r_id);
        // Dual of (1): ρ_x forward-preserved by r — if ρ_x holds at g and r
        // steps g → g1, ρ_x must hold at g1 (else x's failure is lost when x
        // moves before r).
        if let CachedOutcome::Transitions(r_ts) = &*r_out {
            if !matches!(*self.outcome_at(x, g_id, x_id), CachedOutcome::Failure(_)) {
                for t in r_ts {
                    if let CachedOutcome::Failure(reason) = &*self.outcome_at(x, t.globals, x_id) {
                        return Err(MoverViolation::GateNotForwardPreserved {
                            mover: pa_r.clone(),
                            other: pa_x.clone(),
                            store: g.clone(),
                            reason: reason.clone(),
                        });
                    }
                }
            }
            // Commutation r; x ⊑ x; r.
            for tr in r_ts {
                let x_after = self.outcome_at(x, tr.globals, x_id);
                if let CachedOutcome::Transitions(x_ts) = &*x_after {
                    for tx in x_ts {
                        if !self.commuted_order_reaches(
                            x, x_id, r, r_id, g_id, tx.globals, tx.created, tr.created,
                        ) {
                            return Err(MoverViolation::DoesNotCommute {
                                mover: pa_r.clone(),
                                other: pa_x.clone(),
                                store: g.clone(),
                                target: self.interner.store(tx.globals).clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience wrapper: checks `LeftMover(action, program)` for an action of
/// the program itself.
///
/// # Errors
///
/// Returns the first violated condition with a concrete witness.
pub fn check_left_mover(
    program: &Program,
    universe: &StateUniverse,
    name: &ActionName,
) -> Result<(), MoverViolation> {
    let action = program
        .action(name)
        .unwrap_or_else(|_| panic!("action `{name}` not in program"));
    MoverChecker::new(program, universe).check_left(action, name)
}

/// Convenience wrapper: checks that `name` is a right mover in `program`.
///
/// # Errors
///
/// Returns the first violated condition with a concrete witness.
pub fn check_right_mover(
    program: &Program,
    universe: &StateUniverse,
    name: &ActionName,
) -> Result<(), MoverViolation> {
    let action = program
        .action(name)
        .unwrap_or_else(|_| panic!("action `{name}` not in program"));
    MoverChecker::new(program, universe).check_right(action, name)
}

/// Infers the strongest mover type of `name` over the universe.
#[must_use]
pub fn infer_mover_type(
    program: &Program,
    universe: &StateUniverse,
    name: &ActionName,
) -> MoverType {
    let left = check_left_mover(program, universe, name).is_ok();
    let right = check_right_mover(program, universe, name).is_ok();
    MoverType::from_flags(left, right)
}

/// Infers the mover type of **every** action of the program — the mover
/// annotation table CIVL's type checker would produce.
///
/// # Example
///
/// ```
/// use inseq_kernel::demo::counter_program;
/// use inseq_kernel::{Explorer, StateUniverse};
/// use inseq_mover::{classify_actions, MoverType};
///
/// let p = counter_program();
/// let init = p.initial_config(vec![]).unwrap();
/// let exp = Explorer::new(&p).explore([init]).unwrap();
/// let u = StateUniverse::from_exploration(&exp);
/// let table = classify_actions(&p, &u);
/// // Increments of a shared counter commute with each other.
/// assert_eq!(table[&"Inc".into()], MoverType::Both);
/// ```
#[must_use]
pub fn classify_actions(
    program: &Program,
    universe: &StateUniverse,
) -> std::collections::BTreeMap<ActionName, MoverType> {
    program
        .action_names()
        .map(|name| (name.clone(), infer_mover_type(program, universe, name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::counter_program;
    use inseq_kernel::Explorer;

    #[test]
    fn stats_count_pairwise_checks_and_cache_traffic() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let u = StateUniverse::from_exploration(&exp);
        let checker = MoverChecker::new(&p, &u);
        assert_eq!(checker.stats(), MoverStats::default());
        let inc = p.action(&"Inc".into()).unwrap();
        checker.check_left(inc, &"Inc".into()).unwrap();
        let stats = checker.stats();
        // Inc is co-enabled with itself at at least one store, so at least
        // one pairwise triple was checked, and the same (action, store,
        // args) evaluations recur across conditions (1)-(3).
        assert!(stats.pairwise_checks > 0);
        assert!(stats.eval_cache.misses > 0);
        assert!(stats.eval_cache.hits > 0);
        // A second pass over identical queries is answered from the cache.
        let before = checker.stats();
        checker.check_left(inc, &"Inc".into()).unwrap();
        let after = checker.stats();
        assert_eq!(after.eval_cache.misses, before.eval_cache.misses);
        assert!(after.eval_cache.hits > before.eval_cache.hits);
        // Merging is component-wise.
        let merged = before.merged(after);
        assert_eq!(
            merged.pairwise_checks,
            before.pairwise_checks + after.pairwise_checks
        );
    }

    #[test]
    fn every_violation_variant_exposes_its_store() {
        let store = GlobalStore::default();
        let pa = PendingAsync::new("A", vec![]);
        let violations = [
            MoverViolation::GateNotForwardPreserved {
                mover: pa.clone(),
                other: pa.clone(),
                store: store.clone(),
                reason: "r".into(),
            },
            MoverViolation::GateNotBackwardPreserved {
                mover: pa.clone(),
                other: pa.clone(),
                store: store.clone(),
            },
            MoverViolation::DoesNotCommute {
                mover: pa.clone(),
                other: pa.clone(),
                store: store.clone(),
                target: store.clone(),
            },
            MoverViolation::Blocking {
                mover: pa,
                store: store.clone(),
            },
        ];
        for v in &violations {
            assert_eq!(v.store(), &store);
        }
    }
}
