//! Edge-case coverage for collection expressions: unions, inclusions,
//! comprehensions, counts, and their interaction with nondeterminism.

use std::sync::Arc;

use inseq_kernel::{ActionOutcome, ActionSemantics, GlobalStore, Multiset, Value};
use inseq_lang::build::*;
use inseq_lang::{DslAction, GlobalDecls, Sort};

fn run(action: &DslAction, store: &GlobalStore) -> Vec<GlobalStore> {
    match action.eval(store, &[]) {
        ActionOutcome::Transitions(ts) => ts.into_iter().map(|t| t.globals).collect(),
        ActionOutcome::Failure { reason } => panic!("unexpected failure: {reason}"),
    }
}

#[test]
fn set_union_and_inclusion() {
    let mut decls = GlobalDecls::new();
    decls.declare("a", Sort::set(Sort::Int));
    decls.declare("b", Sort::set(Sort::Int));
    decls.declare("u", Sort::set(Sort::Int));
    decls.declare("inc", Sort::Bool);
    let g = Arc::new(decls);
    let action = DslAction::build("A", &g)
        .body(vec![
            assign("a", range(int(1), int(3))),
            assign("b", range(int(3), int(5))),
            assign("u", union(var("a"), var("b"))),
            assign(
                "inc",
                and(
                    included_in(var("a"), var("u")),
                    included_in(var("b"), var("u")),
                ),
            ),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    assert_eq!(out[0].get(2).as_set().len(), 5);
    assert_eq!(out[0].get(3), &Value::Bool(true));
}

#[test]
fn bag_union_adds_multiplicities_and_inclusion_is_multiset() {
    let mut decls = GlobalDecls::new();
    decls.declare("x", Sort::bag(Sort::Int));
    decls.declare("y", Sort::bag(Sort::Int));
    decls.declare("ok", Sort::Bool);
    let g = Arc::new(decls);
    let action = DslAction::build("A", &g)
        .body(vec![
            assign(
                "x",
                with_elem(with_elem(lit(Value::empty_bag()), int(7)), int(7)),
            ),
            assign("y", with_elem(lit(Value::empty_bag()), int(7))),
            // y ⊑ x but x ⋢ y as multisets.
            assign(
                "ok",
                and(
                    included_in(var("y"), var("x")),
                    not(included_in(var("x"), var("y"))),
                ),
            ),
            assign("x", union(var("x"), var("y"))),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    assert_eq!(out[0].get(2), &Value::Bool(true));
    assert_eq!(out[0].get(0).as_bag().count(&Value::Int(7)), 3);
}

#[test]
fn count_and_contains_on_bags() {
    let mut decls = GlobalDecls::new();
    decls.declare("bag", Sort::bag(Sort::Int));
    decls.declare("c", Sort::Int);
    decls.declare("m", Sort::Bool);
    let g = Arc::new(decls);
    let mut store = g.initial_store();
    store.set(
        0,
        Value::bag(
            [4, 4, 9]
                .map(Value::Int)
                .into_iter()
                .collect::<Multiset<_>>(),
        ),
    );
    let action = DslAction::build("A", &g)
        .body(vec![
            assign("c", count(var("bag"), int(4))),
            assign("m", contains(var("bag"), int(9))),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &store);
    assert_eq!(out[0].get(1), &Value::Int(2));
    assert_eq!(out[0].get(2), &Value::Bool(true));
}

#[test]
fn image_collapses_duplicates_filter_keeps_order_irrelevant() {
    let mut decls = GlobalDecls::new();
    decls.declare("sq", Sort::set(Sort::Int));
    decls.declare("odd", Sort::set(Sort::Int));
    let g = Arc::new(decls);
    let action = DslAction::build("A", &g)
        .body(vec![
            // {(i mod 3)² | i ∈ 1..6} = {0, 1, 4} — duplicates collapse.
            assign(
                "sq",
                image(
                    "i",
                    range(int(1), int(6)),
                    mul(
                        inseq_lang::Expr::Bin(
                            inseq_lang::BinOp::Mod,
                            var("i").boxed(),
                            int(3).boxed(),
                        ),
                        inseq_lang::Expr::Bin(
                            inseq_lang::BinOp::Mod,
                            var("i").boxed(),
                            int(3).boxed(),
                        ),
                    ),
                ),
            ),
            assign(
                "odd",
                filter(
                    "i",
                    range(int(1), int(9)),
                    eq(
                        inseq_lang::Expr::Bin(
                            inseq_lang::BinOp::Mod,
                            var("i").boxed(),
                            int(2).boxed(),
                        ),
                        int(1),
                    ),
                ),
            ),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    assert_eq!(out[0].get(0).as_set().len(), 3);
    assert_eq!(out[0].get(1).as_set().len(), 5);
}

#[test]
fn quantifier_domains_include_bags_and_seqs() {
    let mut decls = GlobalDecls::new();
    decls.declare("bag", Sort::bag(Sort::Int));
    decls.declare("seq", Sort::seq(Sort::Int));
    decls.declare("all_pos", Sort::Bool);
    decls.declare("has_five", Sort::Bool);
    let g = Arc::new(decls);
    let mut store = g.initial_store();
    store.set(
        0,
        Value::bag([1, 2].map(Value::Int).into_iter().collect::<Multiset<_>>()),
    );
    store.set(1, Value::seq(vec![Value::Int(5), Value::Int(6)]));
    let action = DslAction::build("A", &g)
        .body(vec![
            assign("all_pos", forall("v", var("bag"), gt(var("v"), int(0)))),
            assign("has_five", exists("v", var("seq"), eq(var("v"), int(5)))),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &store);
    assert_eq!(out[0].get(2), &Value::Bool(true));
    assert_eq!(out[0].get(3), &Value::Bool(true));
}

#[test]
fn nested_choose_branches_multiply_and_dedup() {
    let mut decls = GlobalDecls::new();
    decls.declare("sum", Sort::Int);
    let g = Arc::new(decls);
    let action = DslAction::build("A", &g)
        .local("a", Sort::Int)
        .local("b", Sort::Int)
        .body(vec![
            choose("a", range(int(1), int(2))),
            choose("b", range(int(1), int(2))),
            assign("sum", add(var("a"), var("b"))),
        ])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    // sums 2, 3, 4 — the two (1,2)/(2,1) branches collapse.
    assert_eq!(out.len(), 3);
}

#[test]
fn without_elem_on_absent_is_identity_for_bags() {
    let mut decls = GlobalDecls::new();
    decls.declare("bag", Sort::bag(Sort::Int));
    let g = Arc::new(decls);
    let action = DslAction::build("A", &g)
        .body(vec![assign("bag", without_elem(var("bag"), int(42)))])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    assert_eq!(out, vec![g.initial_store()]);
}

#[test]
fn shadowed_quantifier_variables_nest_correctly() {
    let mut decls = GlobalDecls::new();
    decls.declare("ok", Sort::Bool);
    let g = Arc::new(decls);
    // forall i in 1..2. exists i in 3..4. i >= 3 — inner i shadows outer.
    let action = DslAction::build("A", &g)
        .body(vec![assign(
            "ok",
            forall(
                "i",
                range(int(1), int(2)),
                exists("i", range(int(3), int(4)), ge(var("i"), int(3))),
            ),
        )])
        .finish()
        .unwrap();
    let out = run(&action, &g.initial_store());
    assert_eq!(out[0].get(0), &Value::Bool(true));
}
