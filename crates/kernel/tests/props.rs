//! Property-based tests for kernel semantics: exploration determinism,
//! summary monotonicity, and diamond confluence of commuting actions.

use proptest::prelude::*;

use inseq_kernel::{
    ActionOutcome, Config, Explorer, GlobalSchema, GlobalStore, Multiset, NativeAction,
    PendingAsync, Program, StateUniverse, Transition, Value,
};

/// A program with `adders` increment tasks and `doublers` ×2 tasks over one
/// counter. Adders commute with adders; doublers commute with doublers; the
/// two kinds do not commute.
fn mixed_program(adders: usize, doublers: usize) -> (Program, Config) {
    let mut b = Program::builder(GlobalSchema::new(["x"]));
    b.action(
        "Main",
        NativeAction::new("Main", 0, move |g: &GlobalStore, _: &[Value]| {
            let mut created = Multiset::new();
            for _ in 0..adders {
                created.insert(PendingAsync::new("Add", vec![]));
            }
            for _ in 0..doublers {
                created.insert(PendingAsync::new("Double", vec![]));
            }
            ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
        }),
    );
    b.action(
        "Add",
        NativeAction::new("Add", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(
                g.with(0, Value::Int(g.get(0).as_int() + 1)),
            )])
        }),
    );
    b.action(
        "Double",
        NativeAction::new("Double", 0, |g: &GlobalStore, _: &[Value]| {
            ActionOutcome::Transitions(vec![Transition::pure(
                g.with(0, Value::Int(g.get(0).as_int() * 2)),
            )])
        }),
    );
    let p = b.build().unwrap();
    let init = p
        .initial_config_with(GlobalStore::new(vec![Value::Int(1)]), vec![])
        .unwrap();
    (p, init)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn exploration_is_deterministic(adders in 0usize..4, doublers in 0usize..3) {
        let (p, init) = mixed_program(adders, doublers);
        let a = Explorer::new(&p).explore([init.clone()]).unwrap();
        let b = Explorer::new(&p).explore([init]).unwrap();
        prop_assert_eq!(a.config_count(), b.config_count());
        prop_assert_eq!(a.edge_count(), b.edge_count());
        let ta: Vec<_> = a.terminal_stores().collect();
        let tb: Vec<_> = b.terminal_stores().collect();
        prop_assert_eq!(ta, tb);
    }

    #[test]
    fn terminal_count_matches_interleaving_semantics(adders in 0usize..4, doublers in 0usize..3) {
        // Final value = ((1 * 2^d_before_adds …)) — order matters between
        // kinds, so the number of distinct terminal stores equals the number
        // of distinct values of interleaving d doublings and a increments.
        let (p, init) = mixed_program(adders, doublers);
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let finals: std::collections::BTreeSet<i64> =
            exp.terminal_stores().map(|s| s.get(0).as_int()).collect();
        // Compute expected set by brute-force recursion.
        fn go(x: i64, a: usize, d: usize, acc: &mut std::collections::BTreeSet<i64>) {
            if a == 0 && d == 0 {
                acc.insert(x);
                return;
            }
            if a > 0 {
                go(x + 1, a - 1, d, acc);
            }
            if d > 0 {
                go(x * 2, a, d - 1, acc);
            }
        }
        let mut expected = std::collections::BTreeSet::new();
        go(1, adders, doublers, &mut expected);
        prop_assert_eq!(finals, expected);
    }

    #[test]
    fn summaries_are_subsets_of_explorations(adders in 1usize..4, doublers in 0usize..2) {
        let (p, init) = mixed_program(adders, doublers);
        let summary = Explorer::new(&p).summarize(init.clone()).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        prop_assert!(summary.good);
        for t in &summary.terminal {
            prop_assert!(exp.terminal_stores().any(|s| s == t));
        }
    }

    #[test]
    fn universe_contains_every_reachable_store(adders in 0usize..4, doublers in 0usize..3) {
        let (p, init) = mixed_program(adders, doublers);
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let u = StateUniverse::from_exploration(&exp);
        for c in exp.configs() {
            prop_assert!(u.stores().iter().any(|&s| u.interner().store(s) == &c.globals));
        }
        prop_assert_eq!(
            u.store_count(),
            exp.configs()
                .map(|c| c.globals.clone())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn execution_reaching_finds_every_terminal(adders in 0usize..3, doublers in 0usize..3) {
        let (p, init) = mixed_program(adders, doublers);
        let exp = Explorer::new(&p).explore([init.clone()]).unwrap();
        for c in exp.configs().filter(|c| c.is_terminal()) {
            let path = exp.execution_reaching(&c).expect("reachable");
            if adders + doublers > 0 {
                prop_assert_eq!(path.first().unwrap(), &init);
                prop_assert_eq!(path.last().unwrap(), &c);
                // Each path fires Main once then every task once.
                prop_assert_eq!(path.len(), 1 + adders + doublers);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn value_ordering_is_consistent_with_equality(a in -10i64..10, b in -10i64..10) {
        let va = Value::Int(a);
        let vb = Value::Int(b);
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
    }

    #[test]
    fn insert_n_then_remove_one_round_trips(
        items in proptest::collection::vec((0u8..5, 1usize..4), 0..6),
        probe in 0u8..5,
    ) {
        // insert_n(x, n) is n single inserts; remove_one undoes exactly one.
        let mut bulk: Multiset<Value> = Multiset::new();
        let mut singles: Multiset<Value> = Multiset::new();
        for &(item, n) in &items {
            let v = Value::Int(i64::from(item));
            bulk.insert_n(v.clone(), n);
            for _ in 0..n {
                singles.insert(v.clone());
            }
        }
        prop_assert_eq!(&bulk, &singles, "insert_n must equal repeated insert");
        prop_assert_eq!(bulk.len(), items.iter().map(|&(_, n)| n).sum::<usize>());

        // insert_n(x, 0) is the identity.
        let before = bulk.clone();
        bulk.insert_n(Value::Int(i64::from(probe)), 0);
        prop_assert_eq!(&bulk, &before, "insert_n(_, 0) must be a no-op");

        // One insert_n then one remove_one of the same element round-trips.
        let v = Value::Int(i64::from(probe));
        let count_before = bulk.count(&v);
        bulk.insert_n(v.clone(), 3);
        prop_assert_eq!(bulk.count(&v), count_before + 3);
        prop_assert!(bulk.remove_one(&v), "just-inserted element must be removable");
        prop_assert_eq!(bulk.count(&v), count_before + 2);
        prop_assert!(bulk.remove_one(&v));
        prop_assert!(bulk.remove_one(&v));
        prop_assert_eq!(&bulk, &before, "remove_one ×3 must undo insert_n(_, 3)");

        // remove_one drains to absence, never to a zero-count entry.
        let mut drain = before.clone();
        let total = drain.count(&v);
        for left in (0..total).rev() {
            prop_assert!(drain.remove_one(&v));
            prop_assert_eq!(drain.count(&v), left);
        }
        prop_assert!(!drain.contains(&v), "drained element must be gone");
        prop_assert!(!drain.remove_one(&v), "removing an absent element reports false");
        prop_assert!(
            drain.iter_counts().all(|(_, c)| c > 0),
            "no zero-count entries may linger"
        );
    }

    #[test]
    fn multiset_iteration_is_canonically_sorted(
        items in proptest::collection::vec((-20i64..20, 1usize..4), 0..10),
    ) {
        // However elements arrive, distinct()/iter_counts()/iter() walk them
        // in strictly ascending order — the canonical form config identity,
        // interning, and the corpus serializer all rely on.
        let mut forward: Multiset<Value> = Multiset::new();
        for &(item, n) in &items {
            forward.insert_n(Value::Int(item), n);
        }
        let mut backward: Multiset<Value> = Multiset::new();
        for &(item, n) in items.iter().rev() {
            for _ in 0..n {
                backward.insert(Value::Int(item));
            }
        }
        prop_assert_eq!(&forward, &backward, "insertion order must not matter");

        let distinct: Vec<&Value> = forward.distinct().collect();
        prop_assert!(
            distinct.windows(2).all(|w| w[0] < w[1]),
            "distinct() must be strictly ascending: {:?}",
            distinct
        );
        let by_counts: Vec<&Value> = forward.iter_counts().map(|(v, _)| v).collect();
        prop_assert_eq!(by_counts, distinct.clone(), "iter_counts() order must match distinct()");
        let mut flat: Vec<&Value> = forward.iter().collect();
        prop_assert!(
            flat.windows(2).all(|w| w[0] <= w[1]),
            "iter() must be ascending with repeats adjacent"
        );
        flat.dedup();
        prop_assert_eq!(flat, distinct, "iter() must flatten iter_counts() exactly");
    }

    #[test]
    fn config_equality_is_structural(pas in proptest::collection::vec(0u8..4, 0..6)) {
        let mk = |items: &[u8]| {
            let pending: Multiset<PendingAsync> = items
                .iter()
                .map(|i| PendingAsync::new("T", vec![Value::Int(i64::from(*i))]))
                .collect();
            Config::new(GlobalStore::new(vec![Value::Int(0)]), pending)
        };
        let mut shuffled = pas.clone();
        shuffled.reverse();
        prop_assert_eq!(mk(&pas), mk(&shuffled), "multisets ignore insertion order");
    }
}
