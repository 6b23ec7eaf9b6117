//! Differential tests: the register-bytecode VM against the tree-walk
//! reference interpreter.
//!
//! The interpreter is the reference semantics (DESIGN.md §4c); the compiled
//! path must agree with it *exactly* — same transition sets, same blocking,
//! and the same failure reasons, character for character. The proptest
//! suites below generate random well-typed actions (expressions first, then
//! full statement bodies with channels, loops, and nondeterminism) and
//! compare both evaluation paths on random stores.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use inseq_kernel::{ActionOutcome, ActionSemantics, GlobalStore, Map, Multiset, Value};
use inseq_lang::build::*;
use inseq_lang::{BinOp, DslAction, ExecMode, Expr, GlobalDecls, Sort, Stmt};

/// Global layout shared by every generated action. Slot order follows
/// declaration order: x, y, flag, s, ch, fifo, m, chk.
fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("x", Sort::Int);
    g.declare("y", Sort::Int);
    g.declare("flag", Sort::Bool);
    g.declare("s", Sort::set(Sort::Int));
    g.declare("ch", Sort::bag(Sort::Int));
    g.declare("fifo", Sort::seq(Sort::Int));
    g.declare("m", Sort::map(Sort::Int, Sort::Int));
    g.declare("chk", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
    Arc::new(g)
}

fn div(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Div, a.boxed(), b.boxed())
}

fn modulo(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Mod, a.boxed(), b.boxed())
}

/// Asserts that the VM and the interpreter produce the same outcome — the
/// single property everything in this file reduces to.
fn agree(action: &Arc<DslAction>, store: &GlobalStore, args: &[Value]) -> Result<(), String> {
    let compiled = action
        .eval_compiled(store, args)
        .ok_or_else(|| format!("`{}` failed to compile", action.name()))?;
    let interp = action.eval_interp(store, args);
    if compiled == interp {
        Ok(())
    } else {
        Err(format!(
            "VM and interpreter disagree on `{}` at {store}:\n  vm:     {compiled:?}\n  interp: {interp:?}",
            action.name()
        ))
    }
}

// ---------- Store generation ----------

fn store_strategy() -> BoxedStrategy<GlobalStore> {
    (
        (-3i64..4, -3i64..4, false..true),
        (
            proptest::collection::vec(-3i64..4, 0..4),
            proptest::collection::vec(-3i64..4, 0..4),
            proptest::collection::vec(-3i64..4, 0..3),
        ),
        (
            proptest::collection::vec((-2i64..3, -2i64..3), 0..4),
            proptest::collection::vec((0i64..3, -2i64..3), 0..3),
        ),
    )
        .prop_map(|((x, y, flag), (s, ch, fifo), (m_pairs, chk_pairs))| {
            let set: std::collections::BTreeSet<Value> = s.into_iter().map(Value::Int).collect();
            let bag: Multiset<Value> = ch.into_iter().map(Value::Int).collect();
            let seq: Vec<Value> = fifo.into_iter().map(Value::Int).collect();
            let mut map = Map::new(Value::Int(0));
            for (k, v) in m_pairs {
                map.set_in_place(Value::Int(k), Value::Int(v));
            }
            let mut chk = Map::new(Value::empty_bag());
            for (k, v) in chk_pairs {
                let mut bucket = match chk.get(&Value::Int(k)) {
                    Value::Bag(b) => (**b).clone(),
                    _ => unreachable!("chk buckets are bags"),
                };
                bucket.insert(Value::Int(v));
                chk.set_in_place(Value::Int(k), Value::bag(bucket));
            }
            GlobalStore::new(vec![
                Value::Int(x),
                Value::Int(y),
                Value::Bool(flag),
                Value::set(set),
                Value::bag(bag),
                Value::seq(seq),
                Value::map(map),
                Value::map(chk),
            ])
        })
        .boxed()
}

// ---------- Type-directed expression generation ----------

fn int_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        (-4i64..5).prop_map(int),
        Just(var("x")),
        Just(var("y")),
        Just(var("p")),
        Just(var("t")),
    ]
    .boxed()
}

fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        return int_leaf();
    }
    let a = int_expr(depth - 1);
    let b = int_expr(depth - 1);
    let cond = bool_expr(depth - 1);
    let set = set_expr(depth - 1);
    prop_oneof![
        int_leaf(),
        (a.clone(), b.clone()).prop_map(|(a, b)| add(a, b)),
        (a.clone(), b.clone()).prop_map(|(a, b)| sub(a, b)),
        (a.clone(), b.clone()).prop_map(|(a, b)| mul(a, b)),
        // Division and modulo keep their right operand arbitrary: a zero
        // divisor must fail identically on both paths.
        (a.clone(), b.clone()).prop_map(|(a, b)| div(a, b)),
        (a.clone(), b.clone()).prop_map(|(a, b)| modulo(a, b)),
        a.clone().prop_map(|e| Expr::Neg(e.boxed())),
        (cond, a.clone(), b.clone()).prop_map(|(c, t, e)| ite(c, t, e)),
        set.clone().prop_map(size),
        set.clone().prop_map(sum_of),
        // min/max fail on empty collections — on both paths.
        set.clone().prop_map(min_of),
        set.prop_map(max_of),
        (b.clone()).prop_map(|k| get(var("m"), k)),
        (b.clone()).prop_map(|k| get(var("fifo"), k)),
        a.clone().prop_map(|e| unwrap(some(e))),
        (a, b).prop_map(|(a, b)| proj(tuple(vec![a, b]), 1)),
    ]
    .boxed()
}

fn bool_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        (false..true).prop_map(boolean),
        Just(var("flag")),
        Just(var("c")),
    ]
    .boxed()
}

fn bool_expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        return bool_leaf();
    }
    let a = bool_expr(depth - 1);
    let b = bool_expr(depth - 1);
    let ia = int_expr(depth - 1);
    let ib = int_expr(depth - 1);
    let set = set_expr(depth - 1);
    let cmp = prop_oneof![
        (ia.clone(), ib.clone()).prop_map(|(a, b)| eq(a, b)),
        (ia.clone(), ib.clone()).prop_map(|(a, b)| ne(a, b)),
        (ia.clone(), ib.clone()).prop_map(|(a, b)| lt(a, b)),
        (ia.clone(), ib.clone()).prop_map(|(a, b)| le(a, b)),
        (ia.clone(), ib.clone()).prop_map(|(a, b)| gt(a, b)),
        (ia.clone(), ib.clone()).prop_map(|(a, b)| ge(a, b)),
    ];
    prop_oneof![
        bool_leaf(),
        cmp,
        (a.clone(), b.clone()).prop_map(|(a, b)| and(a, b)),
        (a.clone(), b.clone()).prop_map(|(a, b)| or(a, b)),
        (a.clone(), b).prop_map(|(a, b)| implies(a, b)),
        a.prop_map(not),
        (set.clone(), ia.clone()).prop_map(|(s, e)| contains(s, e)),
        (set.clone(), set.clone()).prop_map(|(a, b)| included_in(a, b)),
        (set.clone(), ib.clone()).prop_map(|(s, k)| forall("qb", s, le(var("qb"), k))),
        (set, ib).prop_map(|(s, k)| exists("qb", s, eq(var("qb"), k))),
        ia.prop_map(|e| is_some(some(e))),
    ]
    .boxed()
}

fn set_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(var("s")),
        (-2i64..3, -2i64..3).prop_map(|(lo, hi)| range(int(lo), int(hi))),
    ]
    .boxed()
}

fn set_expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        return set_leaf();
    }
    let a = set_expr(depth - 1);
    let b = set_expr(depth - 1);
    let e = int_expr(depth - 1);
    prop_oneof![
        set_leaf(),
        (a.clone(), e.clone()).prop_map(|(s, e)| with_elem(s, e)),
        (a.clone(), e.clone()).prop_map(|(s, e)| without_elem(s, e)),
        (a.clone(), b.clone()).prop_map(|(a, b)| union(a, b)),
        (a.clone(), e.clone()).prop_map(|(s, k)| filter("qb", s, lt(var("qb"), k))),
        (a, e).prop_map(|(s, k)| image("qb", s, add(var("qb"), k))),
    ]
    .boxed()
}

// ---------- Statement generation ----------

fn stmt_leaf(depth: u32) -> BoxedStrategy<Stmt> {
    let ie = int_expr(depth);
    let be = bool_expr(depth);
    let se = set_expr(depth);
    prop_oneof![
        ie.clone().prop_map(|e| assign("x", e)),
        ie.clone().prop_map(|e| assign("y", e)),
        ie.clone().prop_map(|e| assign("t", e)),
        be.clone().prop_map(|e| assign("flag", e)),
        be.clone().prop_map(|e| assign("c", e)),
        se.clone().prop_map(|e| assign("s", e)),
        (ie.clone(), ie.clone()).prop_map(|(k, v)| assign_at("m", k, v)),
        be.clone().prop_map(assume),
        be.prop_map(|e| assert_msg(e, "generated gate")),
        se.prop_map(|e| choose("t", e)),
        ie.clone().prop_map(|e| send("ch", e)),
        ie.clone().prop_map(|e| send("fifo", e)),
        Just(recv("t", "ch")),
        Just(recv("t", "fifo")),
        (ie.clone(), ie.clone()).prop_map(|(k, msg)| send_to("chk", k, msg)),
        ie.clone().prop_map(|k| recv_from("t", "chk", k)),
        ie.prop_map(|e| async_named("Aux", vec![Sort::Int], vec![e])),
        Just(skip()),
    ]
    .boxed()
}

fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    if depth == 0 {
        return stmt_leaf(1);
    }
    let body = proptest::collection::vec(stmt(depth - 1), 0..3);
    let body2 = proptest::collection::vec(stmt(depth - 1), 0..3);
    prop_oneof![
        stmt_leaf(depth),
        (bool_expr(1), body.clone(), body2).prop_map(|(c, t, e)| if_else(c, t, e)),
        ((-2i64..2), (0i64..4), body).prop_map(|(lo, hi, b)| for_range("i", int(lo), int(hi), b)),
    ]
    .boxed()
}

fn build_action(body: Vec<Stmt>) -> Arc<DslAction> {
    DslAction::build("Rand", &decls())
        .param("p", Sort::Int)
        .local("t", Sort::Int)
        .local("c", Sort::Bool)
        .local("i", Sort::Int)
        .body(body)
        .finish()
        .expect("type-directed generation produces well-typed actions")
}

// ---------- The differential properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn random_int_exprs_agree(e in int_expr(3), store in store_strategy(), p in -3i64..4) {
        let action = build_action(vec![assign("x", e)]);
        prop_assert!(agree(&action, &store, &[Value::Int(p)]).is_ok());
    }

    #[test]
    fn random_bool_exprs_agree(e in bool_expr(3), store in store_strategy(), p in -3i64..4) {
        let action = build_action(vec![assign("flag", e)]);
        prop_assert!(agree(&action, &store, &[Value::Int(p)]).is_ok());
    }

    #[test]
    fn random_gates_agree(e in bool_expr(2), store in store_strategy(), p in -3i64..4) {
        // assert/assume over the same expression: failure reasons and
        // blocking must match exactly.
        let action = build_action(vec![assert_msg(e.clone(), "gate"), assume(e), assign("x", int(1))]);
        prop_assert!(agree(&action, &store, &[Value::Int(p)]).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]
    #[test]
    fn random_bodies_agree(body in proptest::collection::vec(stmt(2), 1..5),
                           store in store_strategy(),
                           p in -3i64..4) {
        let action = build_action(body);
        match agree(&action, &store, &[Value::Int(p)]) {
            Ok(()) => {}
            Err(e) => prop_assert!(false, "{}", e),
        }
    }
}

// ---------- Targeted corner cases ----------

#[test]
fn short_circuit_skips_failing_right_operand() {
    // `false && (1 div 0 == 0)` must not evaluate the division on either
    // path; `true || …` likewise.
    let g = decls();
    let store = g.initial_store();
    for (cond, guard) in [
        (and(boolean(false), eq(div(int(1), int(0)), int(0))), "and"),
        (or(boolean(true), eq(div(int(1), int(0)), int(0))), "or"),
        (
            implies(boolean(false), eq(div(int(1), int(0)), int(0))),
            "implies",
        ),
    ] {
        let action = DslAction::build("Lazy", &g)
            .body(vec![assign("flag", cond)])
            .finish()
            .unwrap();
        let out = action.eval_compiled(&store, &[]).expect("Lazy compiles");
        assert!(
            !out.is_failure(),
            "short-circuit `{guard}` evaluated its RHS"
        );
        assert_eq!(out, action.eval_interp(&store, &[]));
    }
}

#[test]
fn runtime_failures_are_not_folded_away() {
    // Constant folding must leave failing subexpressions for runtime so the
    // VM still reports them — with the interpreter's exact message.
    let g = decls();
    let store = g.initial_store();
    let cases: Vec<(Expr, &str)> = vec![
        (div(int(1), int(0)), "division by zero in `F`"),
        (modulo(int(1), int(0)), "modulo by zero in `F`"),
        (unwrap(none()), "unwrap of None in `F`"),
        (
            min_of(range(int(1), int(0))),
            "min/max of an empty collection in `F`",
        ),
        (
            get(var("fifo"), int(7)),
            "sequence index 7 out of range in `F`",
        ),
    ];
    for (e, expected) in cases {
        let action = DslAction::build("F", &g)
            .local("t", Sort::Int)
            .body(vec![assign("t", e)])
            .finish()
            .unwrap();
        let compiled = action.eval_compiled(&store, &[]).expect("F compiles");
        let interp = action.eval_interp(&store, &[]);
        assert_eq!(compiled, interp);
        match compiled {
            ActionOutcome::Failure { reason } => assert_eq!(reason, expected),
            other => panic!("expected failure `{expected}`, got {other:?}"),
        }
    }
}

#[test]
fn quantifier_shadowing_agrees() {
    // The inner binder shadows both the outer binder and the global `x`.
    let g = decls();
    let e = forall(
        "x",
        range(int(1), int(3)),
        exists("x", range(int(0), var("x")), eq(var("x"), int(0))),
    );
    let action = DslAction::build("Shadow", &g)
        .body(vec![assign("flag", e)])
        .finish()
        .unwrap();
    let store = g.initial_store().with(0, Value::Int(99));
    let out = action.eval_compiled(&store, &[]).expect("Shadow compiles");
    assert_eq!(out, action.eval_interp(&store, &[]));
    match out {
        ActionOutcome::Transitions(ts) => {
            assert_eq!(ts[0].globals.get(2), &Value::Bool(true));
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn choose_and_recv_branch_identically() {
    let g = decls();
    let bag: Multiset<Value> = [1i64, 2, 2].into_iter().map(Value::Int).collect();
    let store = g.initial_store().with(4, Value::bag(bag));
    let action = DslAction::build("Branch", &g)
        .local("t", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            recv("t", "ch"),
            choose("i", range(int(0), var("t"))),
            assign("x", add(mul(var("t"), int(10)), var("i"))),
        ])
        .finish()
        .unwrap();
    let compiled = action.eval_compiled(&store, &[]).expect("Branch compiles");
    let interp = action.eval_interp(&store, &[]);
    assert_eq!(compiled, interp);
    match compiled {
        ActionOutcome::Transitions(ts) => assert!(ts.len() > 1, "expected branching"),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn inlined_calls_agree() {
    let g = decls();
    let callee = DslAction::build("Callee", &g)
        .param("v", Sort::Int)
        .local("w", Sort::Int)
        .body(vec![
            assert_msg(ge(var("v"), int(0)), "negative argument"),
            choose("w", range(int(0), var("v"))),
            assign("x", add(var("x"), var("w"))),
        ])
        .finish()
        .unwrap();
    let caller = DslAction::build("Caller", &g)
        .param("p", Sort::Int)
        .body(vec![
            call(&callee, vec![var("p")]),
            call(&callee, vec![int(1)]),
        ])
        .finish()
        .unwrap();
    let store = g.initial_store();
    for p in [-1i64, 0, 2] {
        let args = [Value::Int(p)];
        let compiled = caller
            .eval_compiled(&store, &args)
            .expect("Caller compiles");
        assert_eq!(compiled, caller.eval_interp(&store, &args));
    }
}

#[test]
fn exec_mode_override_selects_backend() {
    let g = decls();
    let action = DslAction::build("Mode", &g)
        .body(vec![assign("x", add(var("x"), int(1)))])
        .finish()
        .unwrap();
    let store = g.initial_store();
    let compiled = action.with_exec_mode(ExecMode::Compiled);
    let interp = action.with_exec_mode(ExecMode::Interp);
    assert_eq!(compiled.eval(&store, &[]), interp.eval(&store, &[]));
    // The compiled instance reports VM traffic once prepared and evaluated.
    compiled.prepare();
    let stats = compiled.exec_stats();
    assert_eq!(stats.compiled_actions, 1);
    assert!(stats.vm_evals >= 1);
}
