//! The memoizing [`ReductionPolicy`] behind `--reduce`: ample-candidate
//! selection over the kernel's creation-closure commutation check, plus an
//! optional symmetry quotient.
//!
//! The kernel owns the *semantic* primitives ([`pair_commutes_within`],
//! [`SymmetrySpec`]); this module owns the *policy*: which pending async to
//! try as the ample singleton, and how to amortize pair verdicts across the
//! millions of configurations that repeat the same `(p, q, store)` query.
//! Verdicts are memoized in a shared bucketed table following
//! [`crate::memo`]'s pattern — a short-lock probe keyed by an Fx hash, with
//! full-equality comparison on the bucket to rule collisions out. A store's
//! compound values share their payloads ([`inseq_kernel::Shared`]), so a
//! cached entry costs refcounts, not deep clones.
//!
//! # Candidate contract
//!
//! [`Reducer::ample`] returns `Some(i)` only when every obligation of the
//! explorer-side ample contract holds:
//!
//! * pending `i` has at least one enabled transition at the store (so the
//!   configuration itself progresses), and does not fail. This does not
//!   preserve deadlock detection: a deferred sibling that the chosen
//!   pending disables can leave a stuck configuration unvisited (DESIGN.md
//!   §4g);
//! * pending `i` commutes — including gate preservation both ways, and
//!   closed under what the partner *creates* down to
//!   [`inseq_kernel::PAIR_CLOSURE_DEPTH`] — with every *other* distinct
//!   pending and, when its own multiplicity exceeds one, with a further
//!   instance of itself. Since a gate failure of either party counts as a
//!   conflict, an accepted candidate also certifies that no co-pending
//!   async fails at this store.
//!
//! When no candidate qualifies the policy declines (`None`) and the
//! explorer expands exhaustively — reduction degrades to the baseline,
//! never to unsoundness. The explorers add the cycle proviso on top: an
//! ample round that interns nothing fresh falls back to full expansion.
//!
//! A `Reducer` memoizes verdicts for **one program**; build a fresh one per
//! checked program (they are cheap — an empty table).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use inseq_kernel::hash::{fx_hash, mix};
use inseq_kernel::{
    pair_commutes_within, ActionOutcome, GlobalStore, PendingAsync, Program, ReduceMode,
    ReductionPolicy, SymmetrySpec, PAIR_CLOSURE_DEPTH,
};
use inseq_obs::HitMissSnapshot;

/// One memoized pair verdict. The full key is kept for equality comparison
/// on probe — a hash collision costs a comparison, never a wrong verdict.
#[derive(Debug)]
struct PairEntry {
    p: PendingAsync,
    q: PendingAsync,
    store: GlobalStore,
    commutes: bool,
}

/// A memoizing ample/symmetry [`ReductionPolicy`] for the explorers.
///
/// Construct with [`Reducer::new`] from a [`ReduceMode`], optionally attach
/// a [`SymmetrySpec`] with [`Reducer::with_symmetry`], and hand it to
/// [`inseq_kernel::Explorer::with_reduction`] or
/// [`crate::ParallelExplorer::with_reduction`]. With `ReduceMode::Off` the
/// policy is inert (never prunes, no quotient), so callers can wire one
/// code path for all modes.
#[derive(Debug)]
pub struct Reducer {
    mode: ReduceMode,
    symmetry: Option<SymmetrySpec>,
    /// Pair-verdict memo: Fx hash of `(p, q, store)` → entries compared in
    /// full. One mutex suffices — the held section is a probe or a push,
    /// while the verdict itself is computed outside the lock.
    memo: Mutex<HashMap<u64, Vec<PairEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Test-only: skip every soundness obligation and prune on the first
    /// enabled candidate. Exists to prove the reduce oracle catches an
    /// unsound rule; set only through [`Reducer::unsound_prune`].
    unsound: bool,
}

impl Reducer {
    /// Creates a reducer for the given mode with an empty memo and no
    /// symmetry spec.
    #[must_use]
    pub fn new(mode: ReduceMode) -> Self {
        Reducer {
            mode,
            symmetry: None,
            memo: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            unsound: false,
        }
    }

    /// Attaches a symmetry spec, consulted only when the mode has symmetry
    /// on ([`ReduceMode::sym`]).
    #[must_use]
    pub fn with_symmetry(mut self, spec: SymmetrySpec) -> Self {
        self.symmetry = Some(spec);
        self
    }

    /// The mode this reducer was built for.
    #[must_use]
    pub fn mode(&self) -> ReduceMode {
        self.mode
    }

    /// Hit/miss totals of the pair-verdict memo.
    #[must_use]
    pub fn memo_stats(&self) -> HitMissSnapshot {
        HitMissSnapshot::new(
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Test-only: turns this reducer into a deliberately **unsound** one
    /// that skips every commutation and failure check and prunes on the
    /// first enabled candidate. Used by the fuzz harness to prove the
    /// reduced-vs-unreduced oracle catches a broken pruning rule. The fault
    /// is confined to this instance.
    #[doc(hidden)]
    #[must_use]
    pub fn unsound_prune(mut self) -> Self {
        self.unsound = true;
        self
    }

    /// The memoized creation-closure commutation verdict for `(p, q)` at
    /// `store`.
    fn pair_commutes(
        &self,
        program: &Program,
        p: &PendingAsync,
        q: &PendingAsync,
        store: &GlobalStore,
    ) -> bool {
        let key = mix(mix(fx_hash(p), fx_hash(q)), fx_hash(store));
        {
            let memo = self.memo.lock().expect("pair memo poisoned");
            if let Some(bucket) = memo.get(&key) {
                if let Some(entry) = bucket
                    .iter()
                    .find(|e| e.p == *p && e.q == *q && e.store == *store)
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return entry.commutes;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let commutes = pair_commutes_within(program, p, q, store, PAIR_CLOSURE_DEPTH);
        let mut memo = self.memo.lock().expect("pair memo poisoned");
        memo.entry(key).or_default().push(PairEntry {
            p: p.clone(),
            q: q.clone(),
            store: store.clone(),
            commutes,
        });
        commutes
    }
}

impl ReductionPolicy for Reducer {
    fn ample(
        &self,
        program: &Program,
        store: &GlobalStore,
        pending: &[(PendingAsync, usize)],
    ) -> Option<usize> {
        if !self.mode.por() || pending.len() < 2 {
            return None;
        }
        'candidate: for (i, (cand, count)) in pending.iter().enumerate() {
            // Progress obligation: the candidate must actually move.
            match program.eval_pa(store, cand) {
                Ok(ActionOutcome::Transitions(ts)) if !ts.is_empty() => {}
                // Blocked, failing, or erroring candidates cannot stand in
                // for the rest; an eval error will surface during normal
                // expansion if no candidate is found.
                _ => continue,
            }
            if self.unsound {
                return Some(i);
            }
            // Commutation obligations: against a further self-instance when
            // the multiplicity exceeds one, and against every other pending.
            if *count > 1 && !self.pair_commutes(program, cand, cand, store) {
                continue;
            }
            for (j, (other, _)) in pending.iter().enumerate() {
                if j != i && !self.pair_commutes(program, cand, other, store) {
                    continue 'candidate;
                }
            }
            return Some(i);
        }
        None
    }

    fn symmetry(&self) -> Option<&SymmetrySpec> {
        if self.mode.sym() {
            self.symmetry.as_ref()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::counter_program;
    use inseq_kernel::{GlobalSchema, NativeAction, Program as KProgram, Transition, Value};

    /// Two writers to different slots plus one to a shared slot: the
    /// disjoint pair admits an ample candidate, the conflicting one vetoes.
    fn writers(shared: bool) -> KProgram {
        let mut b = KProgram::builder(GlobalSchema::new(["x", "y"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
            }),
        );
        b.action(
            "WriteX",
            NativeAction::new("WriteX", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(1)))])
            }),
        );
        let slot = usize::from(!shared);
        b.action(
            "Other",
            NativeAction::new("Other", 0, move |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.with(slot, Value::Int(2)))])
            }),
        );
        b.build().unwrap()
    }

    fn bag() -> Vec<(PendingAsync, usize)> {
        vec![
            (PendingAsync::new("WriteX", vec![]), 1),
            (PendingAsync::new("Other", vec![]), 1),
        ]
    }

    #[test]
    fn off_mode_never_prunes() {
        let p = writers(false);
        let store = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let r = Reducer::new(ReduceMode::Off);
        assert_eq!(r.ample(&p, &store, &bag()), None);
        assert!(r.symmetry().is_none());
    }

    #[test]
    fn disjoint_writers_admit_an_ample_candidate() {
        let p = writers(false);
        let store = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let r = Reducer::new(ReduceMode::Por);
        assert_eq!(r.ample(&p, &store, &bag()), Some(0));
    }

    #[test]
    fn conflicting_writers_veto_reduction() {
        let p = writers(true);
        let store = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let r = Reducer::new(ReduceMode::Por);
        assert_eq!(r.ample(&p, &store, &bag()), None);
    }

    #[test]
    fn pair_verdicts_are_memoized() {
        let p = writers(false);
        let store = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let r = Reducer::new(ReduceMode::Por);
        assert!(r.ample(&p, &store, &bag()).is_some());
        let after_first = r.memo_stats();
        assert!(after_first.misses > 0);
        assert!(r.ample(&p, &store, &bag()).is_some());
        let after_second = r.memo_stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn reduced_counter_matches_unreduced_verdict() {
        use inseq_kernel::Explorer;
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let plain = Explorer::new(&p).explore([init.clone()]).unwrap();
        let reducer = Reducer::new(ReduceMode::Por);
        let reduced = Explorer::new(&p)
            .with_reduction(&reducer)
            .explore([init])
            .unwrap();
        assert_eq!(reduced.has_failure(), plain.has_failure());
        assert_eq!(reduced.has_deadlock(), plain.has_deadlock());
        let plain_terminals: std::collections::BTreeSet<_> =
            plain.terminal_stores().cloned().collect();
        let reduced_terminals: std::collections::BTreeSet<_> =
            reduced.terminal_stores().cloned().collect();
        assert_eq!(plain_terminals, reduced_terminals);
        assert!(reduced.config_count() <= plain.config_count());
    }

    /// A pending async whose gate fails must veto every candidate — pruning
    /// it away would hide the violation.
    #[test]
    fn failing_copending_vetoes_reduction() {
        let mut b = KProgram::builder(GlobalSchema::new(["x"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
            }),
        );
        b.action(
            "Step",
            NativeAction::new("Step", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(1)))])
            }),
        );
        b.action(
            "Boom",
            NativeAction::new("Boom", 0, |_: &GlobalStore, _: &[Value]| {
                ActionOutcome::Failure {
                    reason: "boom".into(),
                }
            }),
        );
        let p = b.build().unwrap();
        let store = GlobalStore::new(vec![Value::Int(0)]);
        let pending = vec![
            (PendingAsync::new("Step", vec![]), 1),
            (PendingAsync::new("Boom", vec![]), 1),
        ];
        let r = Reducer::new(ReduceMode::Por);
        assert_eq!(r.ample(&p, &store, &pending), None);
    }

    /// Self-commutation is checked when a candidate's multiplicity exceeds
    /// one: an action that does not commute with itself cannot prune its
    /// own siblings. `Swap` maps 0→1 but 1→panic-free 0 asymmetrically via
    /// gate: use an action that fails on its second firing.
    #[test]
    fn non_self_commuting_multiplicity_vetoes() {
        let mut b = KProgram::builder(GlobalSchema::new(["x"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
            }),
        );
        // Fails when x is already 1 — two instances conflict: the first
        // sets x to 1, the second then fails.
        b.action(
            "Once",
            NativeAction::new("Once", 0, |g: &GlobalStore, _: &[Value]| {
                if g.get(0) == &Value::Int(1) {
                    ActionOutcome::Failure {
                        reason: "already done".into(),
                    }
                } else {
                    ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(1)))])
                }
            }),
        );
        // A bystander that commutes with everything (pure no-op).
        b.action(
            "Noop",
            NativeAction::new("Noop", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
            }),
        );
        let p = b.build().unwrap();
        let store = GlobalStore::new(vec![Value::Int(0)]);
        let pending = vec![
            (PendingAsync::new("Once", vec![]), 2),
            (PendingAsync::new("Noop", vec![]), 1),
        ];
        let r = Reducer::new(ReduceMode::Por);
        // `Once` is vetoed by its own second instance; `Noop` is vetoed
        // because it must commute with `Once` × `Once`'s failures — but a
        // Noop firing first leaves the Once/Once conflict intact, so Noop
        // itself commutes with each single Once. The explorer would then
        // still reach the conflict through the pruned state. Either verdict
        // on Noop is sound; the pinned behaviour is that Once is never the
        // ample choice.
        assert_ne!(r.ample(&p, &store, &pending), Some(0));
    }
}
