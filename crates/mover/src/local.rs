//! Localized commutation: the per-store pair verdicts behind `--reduce por`,
//! surfaced next to the global mover machinery they approximate.
//!
//! [`MoverChecker`](crate::MoverChecker) discharges the paper's mover
//! conditions *universally* over a [`StateUniverse`]: an action is a
//! left/right mover when the commutation conditions hold at **every**
//! enumerated store. Partial-order reduction needs the opposite
//! quantification — at **this** store, do these two pending asyncs commute?
//! — because an ample singleton is chosen per configuration, not per
//! action. The kernel owns that primitive
//! ([`inseq_kernel::pair_commutes_at`], closed under creation by
//! [`inseq_kernel::pair_commutes_within`]); this module re-exports it from
//! the mover crate's vocabulary and adds the universe-level bridge
//! [`commutes_over`], which requantifies the localized check so it can be
//! compared — and is regression-tested — against `MoverChecker` verdicts:
//! a both-mover commutes pairwise at every universe store, and a pair that
//! fails the localized check at some reachable store cannot be a
//! both-mover pair.
//!
//! The localized check is *symmetric and exact at its store* (it compares
//! the full joint outcome sets of both orders, counting a gate failure or
//! an asymmetric block as a conflict), whereas the mover conditions are
//! directional and quantified; neither subsumes the other. Reduction
//! soundness is argued in DESIGN.md §4g and enforced empirically by the
//! reduced-vs-unreduced fuzz oracle.

pub use inseq_kernel::{pair_commutes_at, pair_commutes_within, PAIR_CLOSURE_DEPTH};

use inseq_kernel::{PendingAsync, Program, StateUniverse, StoreId};

/// Whether `p` and `q` commute — including creation closure to
/// [`PAIR_CLOSURE_DEPTH`] — at **every** store of the universe where both
/// are co-enabled (falling back to all stores when the universe records no
/// co-enabled pairs).
///
/// This is the universe-quantified form of the localized check, directly
/// comparable with [`crate::MoverChecker`] verdicts: a pair of both-movers
/// satisfies it, and a counterexample store here is a commutation conflict
/// the mover conditions would also reject.
#[must_use]
pub fn commutes_over(
    program: &Program,
    universe: &StateUniverse,
    p: &PendingAsync,
    q: &PendingAsync,
) -> bool {
    let interner = universe.interner();
    let mut saw_coenabled = false;
    for store in coenabled_stores(universe, p, q) {
        saw_coenabled = true;
        if !pair_commutes_within(program, p, q, interner.store(store), PAIR_CLOSURE_DEPTH) {
            return false;
        }
    }
    if saw_coenabled {
        return true;
    }
    universe.stores().iter().all(|&store| {
        pair_commutes_within(program, p, q, interner.store(store), PAIR_CLOSURE_DEPTH)
    })
}

/// Stores at which the universe records `p` and `q` as co-enabled.
fn coenabled_stores<'u>(
    universe: &'u StateUniverse,
    p: &'u PendingAsync,
    q: &'u PendingAsync,
) -> impl Iterator<Item = StoreId> + 'u {
    let interner = universe.interner();
    universe
        .coenabled()
        .filter(move |&(a, b, _)| {
            let (a, b) = (interner.pa(a), interner.pa(b));
            (a == p && b == q) || (a == q && b == p)
        })
        .flat_map(|(_, _, stores)| stores.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_mover_type;
    use crate::MoverType;
    use inseq_kernel::{
        ActionOutcome, Explorer, GlobalSchema, GlobalStore, NativeAction, Transition, Value,
    };

    /// Two slot-writers: disjoint slots commute, the same slot conflicts.
    fn program(other_slot: usize) -> Program {
        let mut b = Program::builder(GlobalSchema::new(["x", "y"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                let mut created = inseq_kernel::Multiset::new();
                created.insert(PendingAsync::new("WriteX", vec![]));
                created.insert(PendingAsync::new("Other", vec![]));
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
            }),
        );
        b.action(
            "WriteX",
            NativeAction::new("WriteX", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(1)))])
            }),
        );
        b.action(
            "Other",
            NativeAction::new("Other", 0, move |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(
                    g.with(other_slot, Value::Int(2)),
                )])
            }),
        );
        b.build().unwrap()
    }

    fn universe_of(p: &Program) -> StateUniverse {
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(p).explore([init]).unwrap();
        StateUniverse::from_exploration(&exp)
    }

    /// The localized verdict, quantified over the universe, agrees with the
    /// global mover classification on both the commuting and the
    /// conflicting pair.
    #[test]
    fn universe_quantified_verdict_is_consistent_with_mover_checker() {
        // Disjoint slots: both actions are both-movers, and the localized
        // check agrees at every store.
        let p = program(1);
        let u = universe_of(&p);
        assert_eq!(infer_mover_type(&p, &u, &"WriteX".into()), MoverType::Both);
        assert_eq!(infer_mover_type(&p, &u, &"Other".into()), MoverType::Both);
        assert!(commutes_over(
            &p,
            &u,
            &PendingAsync::new("WriteX", vec![]),
            &PendingAsync::new("Other", vec![]),
        ));

        // Same slot: the writers conflict — the localized check refutes
        // commutation at some reachable store, and the mover checker
        // likewise refuses to classify them as both-movers.
        let p = program(0);
        let u = universe_of(&p);
        assert!(!commutes_over(
            &p,
            &u,
            &PendingAsync::new("WriteX", vec![]),
            &PendingAsync::new("Other", vec![]),
        ));
        assert_ne!(infer_mover_type(&p, &u, &"WriteX".into()), MoverType::Both);
    }

    /// The re-exported primitive is the kernel's: a conflict at one store
    /// does not depend on the universe at all.
    #[test]
    fn reexported_primitive_matches_kernel() {
        let p = program(0);
        let store = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let a = PendingAsync::new("WriteX", vec![]);
        let b = PendingAsync::new("Other", vec![]);
        assert!(!pair_commutes_at(&p, &a, &b, &store));
        assert_eq!(
            pair_commutes_at(&p, &a, &b, &store),
            inseq_kernel::pair_commutes_at(&p, &a, &b, &store)
        );
    }
}
