//! Negative coverage for the sort checker: every class of ill-sorted body
//! must be rejected at action-build time with an error naming the action.

use std::sync::Arc;

use inseq_lang::build::*;
use inseq_lang::{DslAction, GlobalDecls, Sort, Stmt};

fn g() -> Arc<GlobalDecls> {
    let mut d = GlobalDecls::new();
    d.declare("x", Sort::Int);
    d.declare("flag", Sort::Bool);
    d.declare("ch", Sort::bag(Sort::Int));
    d.declare("q", Sort::seq(Sort::Bool));
    d.declare("m", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
    d.declare("s", Sort::set(Sort::Int));
    Arc::new(d)
}

fn rejects(name: &str, body: Vec<Stmt>) {
    let err = DslAction::build(name, &g())
        .local("i", Sort::Int)
        .local("bset", Sort::set(Sort::Bool))
        .body(body)
        .finish()
        .expect_err("must be rejected");
    assert_eq!(err.action(), name, "error names the action");
}

fn accepts(name: &str, body: Vec<Stmt>) {
    DslAction::build(name, &g())
        .local("i", Sort::Int)
        .local("bset", Sort::set(Sort::Bool))
        .body(body)
        .finish()
        .unwrap_or_else(|e| panic!("must be accepted: {e}"));
}

#[test]
fn assignment_sort_mismatches() {
    rejects("A1", vec![assign("x", boolean(true))]);
    rejects("A2", vec![assign("flag", int(1))]);
    rejects("A3", vec![assign("x", var("flag"))]);
    accepts("A4", vec![assign("x", ite(var("flag"), int(1), int(2)))]);
}

#[test]
fn arithmetic_and_comparison_sorts() {
    rejects("B1", vec![assign("x", add(var("x"), var("flag")))]);
    rejects("B2", vec![assign("flag", lt(var("flag"), int(1)))]);
    rejects("B3", vec![assume(add(int(1), int(2)))]);
    accepts("B4", vec![assume(lt(var("x"), int(5)))]);
    // Equality requires compatible sorts.
    rejects("B5", vec![assume(eq(var("x"), var("flag")))]);
    accepts("B6", vec![assume(eq(var("x"), int(3)))]);
}

#[test]
fn channel_operations() {
    rejects("C1", vec![send("ch", boolean(true))]);
    rejects("C2", vec![send("q", int(1))]);
    accepts("C3", vec![send("ch", var("x")), send("q", var("flag"))]);
    // Receiving into the wrong sort.
    rejects("C4", vec![recv("flag", "ch")]);
    rejects("C5", vec![recv("i", "q")]);
    // Indexed channels.
    rejects("C6", vec![send_to("m", boolean(true), int(1))]);
    rejects("C7", vec![send_to("ch", int(1), int(1))]); // ch is not a map
    accepts("C8", vec![send_to("m", var("x"), int(7))]);
    // Non-channel targets.
    rejects("C9", vec![send("x", int(1))]);
    rejects("C10", vec![recv("i", "flag")]);
}

#[test]
fn loops_and_choice() {
    rejects("D1", vec![for_range("flag", int(1), int(3), vec![])]);
    rejects("D2", vec![for_range("i", boolean(true), int(3), vec![])]);
    rejects("D3", vec![choose("i", var("x"))]);
    rejects("D4", vec![choose("i", var("bset"))]); // Int var, Bool elements
    accepts("D5", vec![choose("i", var("s"))]);
    accepts(
        "D6",
        vec![for_range(
            "i",
            int(1),
            var("x"),
            vec![assign("x", var("i"))],
        )],
    );
}

#[test]
fn collections_and_quantifiers() {
    rejects("E1", vec![assign("x", size(var("x")))]);
    rejects("E2", vec![assume(contains(var("s"), var("flag")))]);
    rejects("E3", vec![assume(forall("k", var("s"), var("k")))]); // body not Bool
    accepts(
        "E4",
        vec![assume(forall("k", var("s"), gt(var("k"), int(0))))],
    );
    rejects("E5", vec![assign("x", min_of(var("bset")))]);
    accepts("E6", vec![assign("x", min_of(var("s")))]);
    // Map operations.
    rejects(
        "F1",
        vec![assign_at(
            "m",
            boolean(true),
            lit(inseq_kernel::Value::empty_bag()),
        )],
    );
    rejects("F2", vec![assign_at("x", int(1), int(2))]);
    accepts(
        "F3",
        vec![assign_at(
            "m",
            int(1),
            lit(inseq_kernel::Value::empty_bag()),
        )],
    );
}

#[test]
fn call_and_async_arity() {
    let gg = g();
    let callee = DslAction::build("Callee", &gg)
        .param("p", Sort::Int)
        .body(vec![assign("x", var("p"))])
        .finish()
        .unwrap();
    // Wrong arity.
    let err = DslAction::build("G1", &gg)
        .body(vec![call(&callee, vec![])])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("argument"));
    // Wrong sort.
    let err = DslAction::build("G2", &gg)
        .body(vec![async_call(&callee, vec![boolean(true)])])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("G2"));
    // Named async with mismatched pattern.
    let err = DslAction::build("G3", &gg)
        .body(vec![async_named("Other", vec![Sort::Int], vec![])])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("argument"));
    // Correct usage.
    DslAction::build("G4", &gg)
        .body(vec![
            call(&callee, vec![int(1)]),
            async_call(&callee, vec![var("x")]),
            async_named("Other", vec![Sort::Int], vec![int(2)]),
        ])
        .finish()
        .unwrap();
}

#[test]
fn empty_collection_literals_unify_with_any_element_sort() {
    accepts(
        "H1",
        vec![assign("s", lit(inseq_kernel::Value::empty_set()))],
    );
    accepts(
        "H2",
        vec![assign("ch", lit(inseq_kernel::Value::empty_bag()))],
    );
    // But a non-empty literal of the wrong element sort is rejected.
    let bad_set = inseq_kernel::Value::set([inseq_kernel::Value::Bool(true)].into_iter().collect());
    rejects("H3", vec![assign("s", lit(bad_set))]);
}

#[test]
fn option_and_tuple_sorts() {
    let mut d = GlobalDecls::new();
    d.declare("o", Sort::opt(Sort::Int));
    d.declare("t", Sort::Tuple(vec![Sort::Int, Sort::Bool]));
    d.declare("y", Sort::Int);
    let gg = Arc::new(d);
    // unwrap on non-option.
    let err = DslAction::build("I1", &gg)
        .body(vec![assign("y", unwrap(var("y")))])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("I1"));
    // Projection out of range.
    let err = DslAction::build("I2", &gg)
        .body(vec![assign("y", proj(var("t"), 5))])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("I2"));
    // Some of the wrong payload.
    let err = DslAction::build("I3", &gg)
        .body(vec![assign("o", some(boolean(true)))])
        .finish()
        .unwrap_err();
    assert!(err.to_string().contains("I3"));
    // Valid.
    DslAction::build("I4", &gg)
        .body(vec![
            assign("o", some(var("y"))),
            if_(is_some(var("o")), vec![assign("y", unwrap(var("o")))]),
            assign("y", proj(var("t"), 0)),
        ])
        .finish()
        .unwrap();
}

/// Adding an element to an empty collection literal gives the collection
/// the element's type. A `choose` from `{} + g0` with `g0 : (opt int)` into
/// an `int` local used to type-check as a choice from a bag of `Unknown`,
/// and the VM then panicked reading an option as an integer.
#[test]
fn adding_to_an_empty_collection_fixes_its_element_type() {
    let mut d = GlobalDecls::new();
    d.declare("g0", Sort::opt(Sort::Int));
    d.declare("x", Sort::Int);
    let gg = Arc::new(d);
    let empty_bag = || lit(inseq_kernel::Value::empty_bag());
    let build = |name: &str, body: Vec<Stmt>| {
        DslAction::build(name, &gg)
            .local("t0", Sort::Int)
            .body(body)
            .finish()
    };
    let err: inseq_lang::TypeError =
        build("J1", vec![choose("t0", with_elem(empty_bag(), var("g0")))])
            .expect_err("an option is not an int");
    assert_eq!(err.action(), "J1");
    let err = build(
        "J2",
        vec![choose(
            "t0",
            without_elem(with_elem(empty_bag(), var("g0")), none()),
        )],
    )
    .expect_err("removing an element keeps the element type");
    assert_eq!(err.action(), "J2");
    // Well-typed additions to an empty bag still build.
    build("J3", vec![choose("t0", with_elem(empty_bag(), var("x")))]).unwrap();
    build(
        "J4",
        vec![choose("t0", with_elem(empty_bag(), unwrap(var("g0"))))],
    )
    .unwrap();
}
