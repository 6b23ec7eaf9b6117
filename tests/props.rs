//! Property-based tests (proptest) for core data structures and semantic
//! invariants.

use proptest::prelude::*;

use inductive_sequentialization::kernel::{
    ActionOutcome, ActionSemantics, Config, Explorer, GlobalStore, Map, Multiset, NativeAction,
    PendingAsync, Program, Transition, Value,
};
use inductive_sequentialization::refine::{check_action_refinement, check_program_refinement};
use std::sync::Arc;

// ---------- Multiset algebra ----------

fn small_vec() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..6, 0..12)
}

proptest! {
    #[test]
    fn multiset_union_is_commutative(a in small_vec(), b in small_vec()) {
        let ma: Multiset<u8> = a.iter().copied().collect();
        let mb: Multiset<u8> = b.iter().copied().collect();
        prop_assert_eq!(ma.union(&mb), mb.union(&ma));
    }

    #[test]
    fn multiset_union_is_associative(a in small_vec(), b in small_vec(), c in small_vec()) {
        let ma: Multiset<u8> = a.iter().copied().collect();
        let mb: Multiset<u8> = b.iter().copied().collect();
        let mc: Multiset<u8> = c.iter().copied().collect();
        prop_assert_eq!(ma.union(&mb).union(&mc), ma.union(&mb.union(&mc)));
    }

    #[test]
    fn multiset_len_adds_under_union(a in small_vec(), b in small_vec()) {
        let ma: Multiset<u8> = a.iter().copied().collect();
        let mb: Multiset<u8> = b.iter().copied().collect();
        prop_assert_eq!(ma.union(&mb).len(), ma.len() + mb.len());
    }

    #[test]
    fn multiset_insert_remove_roundtrip(items in small_vec(), x in 0u8..6) {
        let ms: Multiset<u8> = items.iter().copied().collect();
        let with = ms.with(x);
        prop_assert!(with.includes(&ms));
        let back = with.without(&x).expect("just inserted");
        prop_assert_eq!(back, ms);
    }

    #[test]
    fn multiset_checked_sub_inverts_union(a in small_vec(), b in small_vec()) {
        let ma: Multiset<u8> = a.iter().copied().collect();
        let mb: Multiset<u8> = b.iter().copied().collect();
        prop_assert_eq!(ma.union(&mb).checked_sub(&mb), Some(ma));
    }

    #[test]
    fn multiset_iteration_is_sorted_and_complete(items in small_vec()) {
        let ms: Multiset<u8> = items.iter().copied().collect();
        let collected: Vec<u8> = ms.iter().copied().collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert_eq!(collected, sorted);
    }
}

// ---------- Map canonicity ----------

proptest! {
    #[test]
    fn map_is_extensional(updates in proptest::collection::vec((0i64..5, 0i64..4), 0..16)) {
        // Applying the same updates in any recorded order yields equal maps
        // iff they agree as functions; in particular writing the default
        // erases the entry.
        let mut m = Map::new(Value::Int(0));
        for (k, v) in &updates {
            m.set_in_place(Value::Int(*k), Value::Int(*v));
        }
        // Rebuild from the final function.
        let mut rebuilt = Map::new(Value::Int(0));
        for k in 0..5 {
            let v = m.get(&Value::Int(k)).clone();
            rebuilt.set_in_place(Value::Int(k), v);
        }
        prop_assert_eq!(m, rebuilt);
    }

    #[test]
    fn map_support_never_stores_defaults(updates in proptest::collection::vec((0i64..5, 0i64..4), 0..16)) {
        let mut m = Map::new(Value::Int(0));
        for (k, v) in &updates {
            m.set_in_place(Value::Int(*k), Value::Int(*v));
        }
        prop_assert!(m.iter().all(|(_, v)| v != &Value::Int(0)));
    }
}

// ---------- Random increment programs: semantic properties ----------

/// A program whose Main spawns one `Add(d)` per listed delta.
fn adder_program(deltas: &[i64]) -> (Program, Config) {
    let mut b = Program::builder(inductive_sequentialization::kernel::GlobalSchema::new([
        "x",
    ]));
    let deltas_owned = deltas.to_vec();
    b.action(
        "Main",
        NativeAction::new("Main", 0, move |g: &GlobalStore, _: &[Value]| {
            let mut created = Multiset::new();
            for d in &deltas_owned {
                created.insert(PendingAsync::new("Add", vec![Value::Int(*d)]));
            }
            ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
        }),
    );
    b.action(
        "Add",
        NativeAction::new("Add", 1, |g: &GlobalStore, args: &[Value]| {
            let next = g.with(0, Value::Int(g.get(0).as_int() + args[0].as_int()));
            ActionOutcome::Transitions(vec![Transition::pure(next)])
        }),
    );
    let p = b.build().unwrap();
    let init = p
        .initial_config_with(GlobalStore::new(vec![Value::Int(0)]), vec![])
        .unwrap();
    (p, init)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn commutative_adders_have_a_unique_final_store(deltas in proptest::collection::vec(-3i64..4, 1..5)) {
        let (p, init) = adder_program(&deltas);
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let terminals: Vec<_> = exp.terminal_stores().collect();
        prop_assert_eq!(terminals.len(), 1, "additions commute");
        let expected: i64 = deltas.iter().sum();
        prop_assert_eq!(terminals[0].get(0), &Value::Int(expected));
    }

    #[test]
    fn program_refinement_is_reflexive_on_random_adders(deltas in proptest::collection::vec(-2i64..3, 1..4)) {
        let (p, init) = adder_program(&deltas);
        check_program_refinement(&p, &p, [init], 1_000_000).unwrap();
    }

    #[test]
    fn action_refinement_is_reflexive_and_respects_superset(
        vals in proptest::collection::vec(-5i64..5, 1..4)
    ) {
        // concrete: x := x + v for a fixed v; abstract: x := x + v or x := x.
        let v = vals[0];
        let concrete: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "C",
            0,
            move |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(
                    g.with(0, Value::Int(g.get(0).as_int() + v)),
                )])
            },
        ));
        let abstract_more: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "A",
            0,
            move |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![
                    Transition::pure(g.with(0, Value::Int(g.get(0).as_int() + v))),
                    Transition::pure(g.clone()),
                ])
            },
        ));
        let stores: Vec<GlobalStore> =
            vals.iter().map(|x| GlobalStore::new(vec![Value::Int(*x)])).collect();
        let empty: &[Value] = &[];
        check_action_refinement(&concrete, &concrete, stores.iter().map(|s| (s, empty))).unwrap();
        check_action_refinement(&concrete, &abstract_more, stores.iter().map(|s| (s, empty)))
            .unwrap();
        // The converse fails: the abstract action has a stutter transition
        // the concrete cannot match (unless v == 0).
        if v != 0 {
            prop_assert!(check_action_refinement(
                &abstract_more,
                &concrete,
                stores.iter().map(|s| (s, empty))
            )
            .is_err());
        }
    }
}

// ---------- DSL interpreter properties ----------

use inductive_sequentialization::lang::build::*;
use inductive_sequentialization::lang::{DslAction, GlobalDecls, Sort};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn deterministic_dsl_actions_have_one_transition(a in -20i64..20, b in -20i64..20) {
        let mut decls = GlobalDecls::new();
        decls.declare("x", Sort::Int);
        let g = Arc::new(decls);
        let action = DslAction::build("A", &g)
            .body(vec![
                assign("x", int(a)),
                if_(gt(var("x"), int(0)), vec![assign("x", add(var("x"), int(b)))]),
            ])
            .finish()
            .unwrap();
        let out = action.eval(&g.initial_store(), &[]);
        let ts = out.transitions().expect("no gate to violate");
        prop_assert_eq!(ts.len(), 1);
        let expected = if a > 0 { a + b } else { a };
        prop_assert_eq!(ts[0].globals.get(0), &Value::Int(expected));
    }

    #[test]
    fn bag_receive_order_does_not_matter(msgs in proptest::collection::vec(0i64..5, 1..5)) {
        // Receiving all messages and folding max is insensitive to order:
        // exactly one outcome despite the nondeterministic receives.
        let mut decls = GlobalDecls::new();
        decls.declare("ch", Sort::bag(Sort::Int));
        decls.declare("best", Sort::Int);
        let g = Arc::new(decls);
        let n = msgs.len() as i64;
        let action = DslAction::build("Drain", &g)
            .local("i", Sort::Int)
            .local("v", Sort::Int)
            .body(vec![for_range("i", int(1), int(n), vec![
                recv("v", "ch"),
                if_(gt(var("v"), var("best")), vec![assign("best", var("v"))]),
            ])])
            .finish()
            .unwrap();
        let mut store = g.initial_store();
        let bag: Multiset<Value> = msgs.iter().map(|m| Value::Int(*m)).collect();
        store.set(0, Value::bag(bag));
        let out = action.eval(&store, &[]);
        let ts = out.transitions().expect("no gate");
        prop_assert_eq!(ts.len(), 1, "all receive orders collapse");
        let expected = *msgs.iter().max().unwrap();
        prop_assert_eq!(ts[0].globals.get(1).as_int(), expected.max(0));
    }
}
