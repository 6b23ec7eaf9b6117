//! Property-based tests for the hash-consing interner: interning is a
//! *bijection* between distinct structural values and ids, so the interned
//! representation preserves `Eq`, `Ord`, and `Hash` of the plain one
//! exactly — on randomized deeply nested [`Value`]s and on randomized
//! [`Config`]s.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use inseq_kernel::{ConcurrentInterner, Config, GlobalStore, Map, Multiset, PendingAsync, Value};

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Randomized values covering every [`Value`] variant, nested up to three
/// levels deep.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        (false..true).prop_map(Value::Bool),
        (-8i64..8).prop_map(Value::Int),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Value::some),
            Just(Value::none()),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::tuple),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Value::set(items.into_iter().collect())),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Value::bag(items.into_iter().collect())),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::seq),
            (
                inner.clone(),
                proptest::collection::vec((inner.clone(), inner), 0..3)
            )
                .prop_map(|(default, entries)| {
                    let mut map = Map::new(default);
                    for (k, v) in entries {
                        map.set_in_place(k, v);
                    }
                    Value::map(map)
                }),
        ]
    })
}

/// Randomized configurations: a small global store plus a bag of pending
/// asyncs over a few action names with value arguments.
fn config_strategy() -> impl Strategy<Value = Config> {
    let store = proptest::collection::vec(value_strategy(), 1..4).prop_map(GlobalStore::new);
    let name = prop_oneof![Just("A"), Just("B")];
    let pa = (name, proptest::collection::vec(value_strategy(), 0..2))
        .prop_map(|(name, args)| PendingAsync::new(name, args));
    let bag = proptest::collection::vec(pa, 0..5)
        .prop_map(|pas| pas.into_iter().collect::<Multiset<PendingAsync>>());
    (store, bag).prop_map(|(globals, pending)| Config::new(globals, pending))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: resolving an interned value yields a structurally equal
    /// value, so `Eq`/`Ord`/`Hash` are preserved verbatim.
    #[test]
    fn value_roundtrip_preserves_eq_ord_hash(v in value_strategy()) {
        let interner = ConcurrentInterner::new();
        let id = interner.intern_value(&v);
        let back = interner.value(id).clone();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.cmp(&v), std::cmp::Ordering::Equal);
        prop_assert_eq!(hash_of(&back), hash_of(&v));
    }

    /// Id identity mirrors structural identity: two values receive the same
    /// id exactly when they are equal, and id order/hash agreement mirrors
    /// value equality (ids are assigned in first-intern order, so only
    /// *equality* transfers to the id domain — which is the O(1) property
    /// the explorer relies on).
    #[test]
    fn value_ids_are_injective(a in value_strategy(), b in value_strategy()) {
        let interner = ConcurrentInterner::new();
        let ia = interner.intern_value(&a);
        let ib = interner.intern_value(&b);
        prop_assert_eq!(ia == ib, a == b);
        if a == b {
            prop_assert_eq!(ia.cmp(&ib), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(&ia), hash_of(&ib));
        } else {
            prop_assert_eq!(interner.value(ia), &a);
            prop_assert_eq!(interner.value(ib), &b);
        }
    }

    /// Config round trip: `resolve_config(intern_config(c)) == c`, interning
    /// is idempotent (`fresh` only on first sight), and id equality mirrors
    /// config equality.
    #[test]
    fn config_roundtrip_and_id_identity(a in config_strategy(), b in config_strategy()) {
        let interner = ConcurrentInterner::new();
        let (ia, fresh_a) = interner.intern_config(&a, None);
        prop_assert!(fresh_a);
        let (ia2, fresh_a2) = interner.intern_config(&a, None);
        prop_assert_eq!(ia, ia2);
        prop_assert!(!fresh_a2);
        let (ib, _) = interner.intern_config(&b, None);
        prop_assert_eq!(ia == ib, a == b);
        let ra = interner.resolve_config(ia);
        let rb = interner.resolve_config(ib);
        prop_assert_eq!(&ra, &a);
        prop_assert_eq!(&rb, &b);
        prop_assert_eq!(hash_of(&ra), hash_of(&a));
        prop_assert_eq!(ra.cmp(&a), std::cmp::Ordering::Equal);
    }

    /// Store interning through the diff path agrees with full interning:
    /// diffing against any parent, with or without a (correct) write-set
    /// hint, must yield the same id as interning from scratch.
    #[test]
    fn store_diff_agrees_with_full_intern(
        base in proptest::collection::vec(value_strategy(), 1..4),
        patch in value_strategy(),
        slot in 0usize..4,
    ) {
        let parent = GlobalStore::new(base.clone());
        let slot = slot % base.len();
        let mut changed = base;
        changed[slot] = patch;
        let new = GlobalStore::new(changed);

        let a = ConcurrentInterner::new();
        let pid = a.intern_store(&parent);
        let mut ids = Vec::new();
        let mut changed = Vec::new();
        a.changed_slots(pid, &new, None, &mut changed);
        a.intern_successor_stores(pid, &changed, &[(0, changed.len())], &mut ids);
        let diffed = ids[0];
        changed.clear();
        a.changed_slots(pid, &new, Some(&[slot]), &mut changed);
        a.intern_successor_stores(pid, &changed, &[(0, changed.len())], &mut ids);
        let hinted = ids[0];
        let full = a.intern_store(&new);
        prop_assert_eq!(diffed, full);
        prop_assert_eq!(hinted, full);
        prop_assert_eq!(a.store(full), &new);
    }

    /// Bags: interning a multiset of pending asyncs round-trips, and
    /// `bag_after` (the explorers' successor-bag constructor) agrees with
    /// plain multiset semantics.
    #[test]
    fn bag_roundtrip(c in config_strategy(), created in config_strategy()) {
        let interner = ConcurrentInterner::new();
        let id = interner.intern_bag(&c.pending);
        prop_assert_eq!(&interner.resolve_bag(id), &c.pending);
        prop_assert_eq!(interner.find_bag(&c.pending), Some(id));
        if let Some(consumed) = c.pending.distinct().next() {
            let mut entries = Vec::new();
            interner.intern_created(&[&created.pending], &mut entries);
            let mut merged = Vec::new();
            interner.bag_after(id, interner.intern_pa(consumed), &entries, &mut merged);
            let next = interner.intern_bag_entries(&merged);
            let expected = c.pending.without(consumed).unwrap().union(&created.pending);
            prop_assert_eq!(&interner.resolve_bag(next), &expected);
            prop_assert_eq!(interner.intern_bag(&expected), next);
        }
    }
}
