//! State universes: the finite quantification domains over which mover and
//! IS side conditions are discharged.
//!
//! The paper's CIVL implementation discharges conditions like "action `l`
//! commutes to the left of action `x`" as SMT validity queries quantified
//! over *all* stores. Our explicit-state substitute collects, from an
//! exhaustive exploration, every global store, every pending async, and
//! every co-enabled pair of pending asyncs (with the stores at which they
//! co-occur), and checks the conditions over those. This is complete for
//! the explored instances (see DESIGN.md §2 and §4).
//!
//! A universe is an **index of interned ids** over the exploration's own
//! [`ConcurrentInterner`], which it shares through an `Arc`: stores are
//! [`StoreId`]s, pending asyncs [`PaId`]s, and provenance names a
//! [`ConfigId`]. It never clones a store, a pending async or a
//! configuration; callers resolve ids through [`StateUniverse::interner`],
//! and the mover checker evaluates on that same interner instead of
//! re-interning every store into one of its own.
//!
//! Iteration order is the structural order of the resolved objects — stores
//! by `GlobalStore` order, pairs by `(PendingAsync, PendingAsync)` order,
//! inputs by `(GlobalStore, args)` — not id (discovery) order. That order
//! decides which violation, and which witness, a premise reports first, so
//! it is kept exactly: the stores are sorted once, and every per-pair and
//! per-action list is ordered by the resulting rank.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::action::ActionName;
use crate::cintern::ConcurrentInterner;
use crate::explore::Exploration;
use crate::hash::FxHashMap;
use crate::intern::{BagId, ConfigId, PaId, StoreId};
use crate::store::GlobalStore;
use crate::value::Value;

/// The quantification domain for semantic side conditions: global stores,
/// enabled pending asyncs, and co-enabled pairs of an exploration, as ids
/// into its interner.
#[derive(Debug, Clone)]
pub struct StateUniverse {
    interner: Arc<ConcurrentInterner>,
    /// Every store, in `GlobalStore` order.
    stores: Vec<StoreId>,
    /// For each ordered pair of pending asyncs simultaneously present in
    /// some absorbed configuration, the stores at which they co-occur, in
    /// store order. The pairs are in `(PendingAsync, PendingAsync)` order.
    coenabled: Vec<((PaId, PaId), Vec<StoreId>)>,
    /// Per action, the `(store, pending async)` pairs at which a PA of it is
    /// present, in `(store, args)` order.
    enabled_at: BTreeMap<ActionName, Vec<(StoreId, PaId)>>,
    /// By store index: the first configuration (in id order) exhibiting the
    /// store. Only reachable configurations are recorded, so an entry is
    /// what lets a violated premise over a store be turned into a concrete
    /// witness run.
    provenance: Vec<Option<ConfigId>>,
}

impl StateUniverse {
    /// Indexes every configuration interned in `interner` so far. Both
    /// explorers intern reachable configurations only, so each of them is
    /// the provenance of its store unless an earlier one (by id) is.
    #[must_use]
    pub fn new(interner: Arc<ConcurrentInterner>) -> Self {
        let mut provenance = vec![None; interner.store_count()];
        let parts: Vec<(StoreId, BagId)> = interner
            .config_ids()
            .map(|id| {
                let (store, bag) = interner.config_parts(id);
                provenance[store.index()].get_or_insert(id);
                (store, bag)
            })
            .collect();
        let mut universe = StateUniverse {
            interner,
            stores: Vec::new(),
            coenabled: Vec::new(),
            enabled_at: BTreeMap::new(),
            provenance,
        };
        universe.extend(parts);
        universe
    }

    /// Builds the universe of an exploration from either explorer, sharing its
    /// interner.
    #[must_use]
    pub fn from_exploration(exp: &Exploration) -> Self {
        StateUniverse::new(Arc::clone(exp.interner()))
    }

    /// Adds the store, pending asyncs and co-enabled pairs of each
    /// `(store, bag)`, interned into [`interner`](Self::interner). Used for
    /// the pseudo-configurations produced by invariant-action transitions
    /// during inductive sequentialization, which need not be reachable in
    /// the original program: they get no provenance, so a store only they
    /// contribute has no witness run.
    pub fn extend(&mut self, parts: impl IntoIterator<Item = (StoreId, BagId)>) {
        let parts: Vec<(StoreId, BagId)> = parts.into_iter().collect();
        let interner = Arc::clone(&self.interner);
        let mut seen = vec![false; interner.store_count()];
        for store in &self.stores {
            seen[store.index()] = true;
        }
        let mut pair_at: FxHashMap<(PaId, PaId), usize> = self
            .coenabled
            .iter()
            .enumerate()
            .map(|(i, (pair, _))| (*pair, i))
            .collect();
        for (store, bag) in parts {
            if !std::mem::replace(&mut seen[store.index()], true) {
                self.stores.push(store);
            }
            let entries = interner.bag_entries(bag);
            for &(pa, _) in entries {
                let action = &interner.pa(pa).action;
                match self.enabled_at.get_mut(action) {
                    Some(list) => list.push((store, pa)),
                    None => {
                        self.enabled_at.insert(action.clone(), vec![(store, pa)]);
                    }
                }
            }
            for &(a, count) in entries {
                for &(b, _) in entries {
                    // A PA co-occurs with another instance of itself only if
                    // its multiplicity is at least two.
                    if a == b && count < 2 {
                        continue;
                    }
                    let coenabled = &mut self.coenabled;
                    let i = *pair_at.entry((a, b)).or_insert_with(|| {
                        coenabled.push(((a, b), Vec::new()));
                        coenabled.len() - 1
                    });
                    coenabled[i].1.push(store);
                }
            }
        }
        self.sort();
    }

    /// Restores structural order after an [`extend`](Self::extend): sorts
    /// the stores once, then orders (and dedups) every list by store rank.
    /// Already-sorted prefixes make a re-sort after a small extension
    /// cheap.
    fn sort(&mut self) {
        let interner = &*self.interner;
        self.stores.sort_by(|&a, &b| store_order(interner, a, b));
        let mut rank = vec![u32::MAX; interner.store_count()];
        for (r, store) in self.stores.iter().enumerate() {
            rank[store.index()] = u32::try_from(r).expect("store ids fit in u32");
        }
        for (_, stores) in &mut self.coenabled {
            stores.sort_by_key(|s| rank[s.index()]);
            stores.dedup();
        }
        self.coenabled.sort_by(|((a1, b1), _), ((a2, b2), _)| {
            (interner.pa(*a1), interner.pa(*b1)).cmp(&(interner.pa(*a2), interner.pa(*b2)))
        });
        for list in self.enabled_at.values_mut() {
            list.sort_by(|&(s1, p1), &(s2, p2)| {
                rank[s1.index()]
                    .cmp(&rank[s2.index()])
                    .then_with(|| interner.pa(p1).cmp(interner.pa(p2)))
            });
            list.dedup();
        }
    }

    /// The interner every id of this universe resolves in.
    #[must_use]
    pub fn interner(&self) -> &Arc<ConcurrentInterner> {
        &self.interner
    }

    /// All global stores in the universe, in `GlobalStore` order.
    #[must_use]
    pub fn stores(&self) -> &[StoreId] {
        &self.stores
    }

    /// All ordered co-enabled pairs with the stores at which they co-occur.
    pub fn coenabled(&self) -> impl Iterator<Item = (PaId, PaId, &[StoreId])> {
        self.coenabled
            .iter()
            .map(|((a, b), stores)| (*a, *b, stores.as_slice()))
    }

    /// Ordered co-enabled pairs where the *first* component is a PA of
    /// `action` (the candidate mover).
    pub fn coenabled_with_first(
        &self,
        action: &ActionName,
    ) -> impl Iterator<Item = (PaId, PaId, &[StoreId])> + '_ {
        let action = action.clone();
        self.coenabled()
            .filter(move |(a, _, _)| self.interner.pa(*a).action == action)
    }

    /// The `(store, pending async)` pairs at which a PA of `action` is
    /// present.
    #[must_use]
    pub fn enabled_at(&self, action: &ActionName) -> &[(StoreId, PaId)] {
        self.enabled_at.get(action).map_or(&[], Vec::as_slice)
    }

    /// [`enabled_at`](Self::enabled_at), resolved: the input store and
    /// arguments of each PA of `action`.
    pub fn enabled_inputs(
        &self,
        action: &ActionName,
    ) -> impl Iterator<Item = (&GlobalStore, &[Value])> {
        self.enabled_at(action).iter().map(|&(store, pa)| {
            (
                self.interner.store(store),
                self.interner.pa(pa).args.as_slice(),
            )
        })
    }

    /// The reachable configuration that first contributed `store` to the
    /// universe, or `None` when only an [`extend`](Self::extend)ed
    /// pseudo-configuration (or nothing) did. The interner's
    /// [`trace_from`](ConcurrentInterner::trace_from) turns it into a
    /// concrete witness run.
    #[must_use]
    pub fn provenance(&self, store: StoreId) -> Option<ConfigId> {
        self.provenance.get(store.index()).copied().flatten()
    }

    /// Number of stores in the universe.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stores.len()
    }
}

/// `GlobalStore` order on interned stores: slot by slot, comparing values
/// only where the slot ids differ (equal ids are equal values), then by
/// length — exactly the derived order of the resolved stores.
fn store_order(interner: &ConcurrentInterner, a: StoreId, b: StoreId) -> Ordering {
    let (a, b) = (interner.store_slots(a), interner.store_slots(b));
    for (&x, &y) in a.iter().zip(b) {
        if x != y {
            return interner.value(x).cmp(interner.value(y));
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PendingAsync;
    use crate::demo::counter_program;
    use crate::explore::Explorer;
    use crate::multiset::Multiset;

    #[test]
    fn universe_collects_stores_and_pas() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let u = StateUniverse::from_exploration(&exp);
        // The uninitialised store plus counter values 0, 1, 2.
        assert_eq!(u.store_count(), 4);
        // The stores come out in `GlobalStore` order.
        let stores: Vec<&GlobalStore> = u.stores().iter().map(|&s| u.interner().store(s)).collect();
        assert!(stores.windows(2).all(|w| w[0] < w[1]));
        // The two Inc PAs co-exist (multiplicity 2), so Inc is co-enabled
        // with itself, at a recorded store.
        let inc = PendingAsync::new("Inc", vec![]);
        let (a, b, at) = u
            .coenabled_with_first(&"Inc".into())
            .next()
            .expect("Inc pair present");
        assert_eq!((u.interner().pa(a), u.interner().pa(b)), (&inc, &inc));
        assert!(!at.is_empty());
        assert!(!u.enabled_at(&"Inc".into()).is_empty());
    }

    #[test]
    fn provenance_names_first_reachable_config() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let mut u = StateUniverse::from_exploration(&exp);
        for &store in u.stores() {
            let config = u
                .provenance(store)
                .expect("reachable stores have provenance");
            assert_eq!(u.interner().config_parts(config).0, store);
        }
        // A pseudo-configuration's fresh store joins the universe without
        // provenance.
        let ghost = GlobalStore::new(vec![Value::Int(99)]);
        let interner = Arc::clone(u.interner());
        let store = interner.intern_store(&ghost);
        let bag = interner.intern_bag(&Multiset::singleton(PendingAsync::new("Inc", vec![])));
        u.extend([(store, bag)]);
        assert_eq!(u.store_count(), 5);
        assert!(u.provenance(store).is_none());
        assert!(u.enabled_at(&"Inc".into()).iter().any(|&(s, _)| s == store));
    }
}
