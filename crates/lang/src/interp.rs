//! The nondeterministic interpreter: computes an action's gate and
//! transition relation from its body.
//!
//! Evaluation of a body from an input store produces a *set* of evaluation
//! states (nondeterminism branches at `choose` and bag `receive`), pruned by
//! `assume` and by blocking receives, deduplicated at every statement
//! boundary to keep branching polynomial in practice. If **any** branch
//! violates an `assert` (or evaluates a partial operation outside its
//! domain), the input store lies outside the gate `ρ` and the whole
//! evaluation reports failure — exactly the gate/transition separation of
//! §3 of the paper.
//!
//! This tree walk is the *reference semantics*: the register VM
//! ([`crate::vm`]) must produce bit-identical outcomes, and the differential
//! test suite holds it to that. Value-level operations are shared with the
//! VM through [`crate::rt`] so the two evaluators cannot drift on results or
//! diagnostic strings.

use std::collections::BTreeSet;

use inseq_kernel::{ActionOutcome, GlobalStore, Multiset, PendingAsync, Value};

use crate::action::{DslAction, Slot};
use crate::expr::{BinOp, Expr};
use crate::rt::{self, EvalState, Fail};
use crate::stmt::Stmt;

type Branches = Result<BTreeSet<EvalState>, Fail>;

/// Quantifier bindings, innermost last. Quantifier loops bind in place —
/// push one slot per quantifier, overwrite it per domain item, pop on the
/// way out — instead of re-cloning the environment per item.
type Bound<'a> = Vec<(&'a str, Value)>;

/// Entry point used by `DslAction`'s `ActionSemantics` implementation.
pub(crate) fn run_action(
    action: &DslAction,
    globals: &GlobalStore,
    args: &[Value],
) -> ActionOutcome {
    assert_eq!(
        args.len(),
        action.params().len(),
        "arity mismatch calling `{}`",
        action.name()
    );
    let mut locals: Vec<Value> = args.to_vec();
    locals.extend(action.locals().iter().map(|(_, s)| s.default_value()));
    let init = EvalState {
        globals: globals.clone(),
        locals,
        created: Multiset::new(),
    };
    let mut states = BTreeSet::new();
    states.insert(init);
    match exec_block(action, action.body(), states) {
        Err(Fail(reason)) => ActionOutcome::Failure { reason },
        Ok(states) => ActionOutcome::Transitions(rt::states_to_transitions(states)),
    }
}

fn exec_block(action: &DslAction, stmts: &[Stmt], mut states: BTreeSet<EvalState>) -> Branches {
    for stmt in stmts {
        let mut next = BTreeSet::new();
        for state in states {
            next.extend(exec_stmt(action, stmt, state)?);
        }
        states = next;
        if states.is_empty() {
            break; // every branch blocked; later statements are unreachable
        }
    }
    Ok(states)
}

fn exec_stmt(action: &DslAction, stmt: &Stmt, mut state: EvalState) -> Branches {
    let mut out = BTreeSet::new();
    match stmt {
        Stmt::Skip => {
            out.insert(state);
        }
        Stmt::Assign(x, e) => {
            let v = eval_top(action, &state, e)?;
            write_var(action, &mut state, x, v)?;
            out.insert(state);
        }
        Stmt::AssignAt(x, k, v) => {
            let key = eval_top(action, &state, k)?;
            let val = eval_top(action, &state, v)?;
            let cur = read_var(action, &state, x)?;
            let updated = rt::assign_at_value(cur, key, val, x, action.name())?;
            write_var(action, &mut state, x, updated)?;
            out.insert(state);
        }
        Stmt::Assume(e) => {
            if eval_top(action, &state, e)?.as_bool() {
                out.insert(state);
            }
        }
        Stmt::Assert(e, msg) => {
            if eval_top(action, &state, e)?.as_bool() {
                out.insert(state);
            } else {
                return Err(Fail(format!("{} (in `{}`)", msg, action.name())));
            }
        }
        Stmt::If(c, t, e) => {
            let cond = eval_top(action, &state, c)?.as_bool();
            let branch = if cond { t } else { e };
            let mut states = BTreeSet::new();
            states.insert(state);
            return exec_block(action, branch, states);
        }
        Stmt::ForRange(x, lo, hi, body) => {
            let lo = eval_top(action, &state, lo)?.as_int();
            let hi = eval_top(action, &state, hi)?.as_int();
            let mut states = BTreeSet::new();
            states.insert(state);
            for i in lo..=hi {
                let mut bound = BTreeSet::new();
                for mut s in states {
                    write_var(action, &mut s, x, Value::Int(i))?;
                    bound.insert(s);
                }
                states = exec_block(action, body, bound)?;
                if states.is_empty() {
                    break;
                }
            }
            return Ok(states);
        }
        Stmt::Choose(x, domain) => {
            let dom = eval_top(action, &state, domain)?;
            for v in rt::choose_elems(dom, action.name())? {
                let mut s = state.clone();
                write_var(action, &mut s, x, v)?;
                out.insert(s);
            }
        }
        Stmt::Send { chan, key, msg } => {
            let m = eval_top(action, &state, msg)?;
            update_channel(action, &mut state, chan, key, |c| {
                Ok(vec![(rt::send_value(c, &m, action.name())?, None)])
            })?
            .into_iter()
            .for_each(|(s, _)| {
                out.insert(s);
            });
        }
        Stmt::Recv { var, chan, key } => {
            let branches = update_channel(action, &mut state, chan, key, |c| {
                Ok(rt::recv_branches(c, action.name())?
                    .into_iter()
                    .map(|(rest, msg)| (rest, Some(msg)))
                    .collect())
            })?;
            for (mut s, msg) in branches {
                let msg = msg.expect("receive branches carry a message");
                write_var(action, &mut s, var, msg)?;
                out.insert(s);
            }
        }
        Stmt::Async { callee, args } => {
            let vals = args
                .iter()
                .map(|a| eval_top(action, &state, a))
                .collect::<Result<Vec<_>, _>>()?;
            state.created.insert(PendingAsync::new(callee.name(), vals));
            out.insert(state);
        }
        Stmt::AsyncNamed { name, args, .. } => {
            let vals = args
                .iter()
                .map(|a| eval_top(action, &state, a))
                .collect::<Result<Vec<_>, _>>()?;
            state.created.insert(PendingAsync::new(name.as_str(), vals));
            out.insert(state);
        }
        Stmt::Call { callee, args } => {
            let vals = args
                .iter()
                .map(|a| eval_top(action, &state, a))
                .collect::<Result<Vec<_>, _>>()?;
            let mut callee_locals = vals;
            callee_locals.extend(callee.locals().iter().map(|(_, s)| s.default_value()));
            let sub = EvalState {
                globals: state.globals.clone(),
                locals: callee_locals,
                created: state.created.clone(),
            };
            let mut states = BTreeSet::new();
            states.insert(sub);
            let results = exec_block(callee, callee.body(), states)?;
            for r in results {
                out.insert(EvalState {
                    globals: r.globals,
                    locals: state.locals.clone(),
                    created: r.created,
                });
            }
        }
    }
    Ok(out)
}

/// Applies `f` to the channel value named by `chan`/`key`, producing for
/// each result branch the updated evaluation state plus an optional payload
/// (the received message).
fn update_channel(
    action: &DslAction,
    state: &mut EvalState,
    chan: &str,
    key: &Option<Expr>,
    f: impl FnOnce(Value) -> Result<Vec<(Value, Option<Value>)>, Fail>,
) -> Result<Vec<(EvalState, Option<Value>)>, Fail> {
    let current = read_var(action, state, chan)?;
    match key {
        None => {
            let branches = f(current)?;
            branches
                .into_iter()
                .map(|(v, payload)| {
                    let mut s = state.clone();
                    write_var(action, &mut s, chan, v)?;
                    Ok((s, payload))
                })
                .collect()
        }
        Some(kexpr) => {
            let k = eval_top(action, state, kexpr)?;
            let map = match current {
                Value::Map(m) => m,
                other => {
                    return Err(Fail(format!(
                        "indexed channel `{chan}` must be a map, found {other} in `{}`",
                        action.name()
                    )))
                }
            };
            let inner = map.get(&k).clone();
            let branches = f(inner)?;
            branches
                .into_iter()
                .map(|(v, payload)| {
                    let mut s = state.clone();
                    let updated = Value::map(map.set(k.clone(), v));
                    write_var(action, &mut s, chan, updated)?;
                    Ok((s, payload))
                })
                .collect()
        }
    }
}

fn read_var(action: &DslAction, state: &EvalState, name: &str) -> Result<Value, Fail> {
    match action.slot(name) {
        Some(Slot::Local(i)) => Ok(state.locals[i].clone()),
        Some(Slot::Global(i)) => Ok(state.globals.get(i).clone()),
        None => Err(Fail(format!(
            "unbound variable `{name}` in `{}`",
            action.name()
        ))),
    }
}

fn write_var(
    action: &DslAction,
    state: &mut EvalState,
    name: &str,
    value: Value,
) -> Result<(), Fail> {
    match action.slot(name) {
        Some(Slot::Local(i)) => {
            state.locals[i] = value;
            Ok(())
        }
        Some(Slot::Global(i)) => {
            state.globals.set(i, value);
            Ok(())
        }
        None => Err(Fail(format!(
            "unbound variable `{name}` in `{}`",
            action.name()
        ))),
    }
}

/// Evaluates a statement-level expression (no enclosing quantifier).
fn eval_top(action: &DslAction, state: &EvalState, expr: &Expr) -> Result<Value, Fail> {
    eval(action, state, &mut Vec::new(), expr)
}

/// Evaluates a pure expression. `bound` is the stack of quantifier bindings,
/// innermost last; quantifier arms push a slot, rebind it per item, and pop
/// it before returning.
fn eval<'a>(
    action: &DslAction,
    state: &EvalState,
    bound: &mut Bound<'a>,
    expr: &'a Expr,
) -> Result<Value, Fail> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(x) => {
            if let Some((_, v)) = bound.iter().rev().find(|(n, _)| n == x) {
                return Ok(v.clone());
            }
            read_var(action, state, x)
        }
        Expr::Neg(e) => rt::neg_value(&eval(action, state, bound, e)?, action.name()),
        Expr::Not(e) => Ok(Value::Bool(!eval(action, state, bound, e)?.as_bool())),
        Expr::Bin(op, a, b) => eval_bin(action, state, bound, *op, a, b),
        Expr::Ite(c, t, e) => {
            if eval(action, state, bound, c)?.as_bool() {
                eval(action, state, bound, t)
            } else {
                eval(action, state, bound, e)
            }
        }
        Expr::SomeOf(e) => Ok(Value::some(eval(action, state, bound, e)?)),
        Expr::IsSome(e) => Ok(Value::Bool(matches!(
            eval(action, state, bound, e)?,
            Value::Opt(Some(_))
        ))),
        Expr::Unwrap(e) => rt::unwrap_value(eval(action, state, bound, e)?, action.name()),
        Expr::Tuple(es) => Ok(Value::tuple(
            es.iter()
                .map(|e| eval(action, state, bound, e))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Proj(e, i) => rt::proj_value(eval(action, state, bound, e)?, *i, action.name()),
        Expr::MapGet(m, k) => {
            let map = eval(action, state, bound, m)?;
            let key = eval(action, state, bound, k)?;
            rt::map_get_value(map, key, action.name())
        }
        Expr::MapSet(m, k, v) => {
            let map = eval(action, state, bound, m)?;
            let key = eval(action, state, bound, k)?;
            let val = eval(action, state, bound, v)?;
            rt::map_set_value(map, key, val, action.name())
        }
        Expr::SizeOf(e) => {
            let v = eval(action, state, bound, e)?;
            rt::size_of_value(&v, action.name())
        }
        Expr::Contains(c, e) => {
            let coll = eval(action, state, bound, c)?;
            let item = eval(action, state, bound, e)?;
            rt::contains_value(&coll, &item, action.name())
        }
        Expr::CountOf(c, e) => {
            let coll = eval(action, state, bound, c)?;
            let item = eval(action, state, bound, e)?;
            rt::count_of_value(&coll, &item, action.name())
        }
        Expr::WithElem(c, e) => {
            let coll = eval(action, state, bound, c)?;
            let item = eval(action, state, bound, e)?;
            rt::with_elem_value(coll, item, action.name())
        }
        Expr::WithoutElem(c, e) => {
            let coll = eval(action, state, bound, c)?;
            let item = eval(action, state, bound, e)?;
            rt::without_elem_value(coll, item, action.name())
        }
        Expr::UnionOf(a, b) => {
            let va = eval(action, state, bound, a)?;
            let vb = eval(action, state, bound, b)?;
            rt::union_of_value(va, vb, action.name())
        }
        Expr::IncludedIn(a, b) => {
            let va = eval(action, state, bound, a)?;
            let vb = eval(action, state, bound, b)?;
            rt::included_in_value(va, vb, action.name())
        }
        Expr::RangeSet(lo, hi) => {
            let lo = eval(action, state, bound, lo)?.as_int();
            let hi = eval(action, state, bound, hi)?.as_int();
            Ok(rt::range_set_value(lo, hi))
        }
        Expr::MinOf(e) | Expr::MaxOf(e) => {
            let v = eval(action, state, bound, e)?;
            rt::min_max_of_value(&v, matches!(expr, Expr::MinOf(_)), action.name())
        }
        Expr::SumOf(e) => {
            let v = eval(action, state, bound, e)?;
            rt::sum_of_value(&v, action.name())
        }
        Expr::Forall(x, s, body) => {
            let dom = domain_elems(action, state, bound, s)?;
            with_binding(bound, x, |bound| {
                for item in dom {
                    set_last_binding(bound, item);
                    if !eval(action, state, bound, body)?.as_bool() {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            })
        }
        Expr::Exists(x, s, body) => {
            let dom = domain_elems(action, state, bound, s)?;
            with_binding(bound, x, |bound| {
                for item in dom {
                    set_last_binding(bound, item);
                    if eval(action, state, bound, body)?.as_bool() {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            })
        }
        Expr::Filter(x, s, body) => {
            let dom = domain_elems(action, state, bound, s)?;
            with_binding(bound, x, |bound| {
                let mut kept = BTreeSet::new();
                for item in dom {
                    set_last_binding(bound, item.clone());
                    if eval(action, state, bound, body)?.as_bool() {
                        kept.insert(item);
                    }
                }
                Ok(Value::set(kept))
            })
        }
        Expr::MapImage(x, s, body) => {
            let dom = domain_elems(action, state, bound, s)?;
            with_binding(bound, x, |bound| {
                let mut image = BTreeSet::new();
                for item in dom {
                    set_last_binding(bound, item);
                    image.insert(eval(action, state, bound, body)?);
                }
                Ok(Value::set(image))
            })
        }
    }
}

/// Pushes one binding slot for a quantified variable, runs `f`, and pops the
/// slot again — on success *and* on failure — so the caller's environment is
/// never left with a stale binding.
fn with_binding<'a>(
    bound: &mut Bound<'a>,
    x: &'a str,
    f: impl FnOnce(&mut Bound<'a>) -> Result<Value, Fail>,
) -> Result<Value, Fail> {
    bound.push((x, Value::Bool(false)));
    let result = f(bound);
    bound.pop();
    result
}

/// Rebinds the innermost (quantified) variable in place.
fn set_last_binding(inner: &mut Bound<'_>, item: Value) {
    inner
        .last_mut()
        .expect("with_binding always pushes a slot")
        .1 = item;
}

fn domain_elems<'a>(
    action: &DslAction,
    state: &EvalState,
    bound: &mut Bound<'a>,
    s: &'a Expr,
) -> Result<Vec<Value>, Fail> {
    let v = eval(action, state, bound, s)?;
    rt::domain_values(v, action.name())
}

fn eval_bin<'a>(
    action: &DslAction,
    state: &EvalState,
    bound: &mut Bound<'a>,
    op: BinOp,
    a: &'a Expr,
    b: &'a Expr,
) -> Result<Value, Fail> {
    // Short-circuiting boolean operators are control flow, not value ops.
    match op {
        BinOp::And => {
            return Ok(Value::Bool(
                eval(action, state, bound, a)?.as_bool()
                    && eval(action, state, bound, b)?.as_bool(),
            ))
        }
        BinOp::Or => {
            return Ok(Value::Bool(
                eval(action, state, bound, a)?.as_bool()
                    || eval(action, state, bound, b)?.as_bool(),
            ))
        }
        BinOp::Implies => {
            return Ok(Value::Bool(
                !eval(action, state, bound, a)?.as_bool()
                    || eval(action, state, bound, b)?.as_bool(),
            ))
        }
        _ => {}
    }
    let va = eval(action, state, bound, a)?;
    let vb = eval(action, state, bound, b)?;
    rt::bin_values(op, va, vb, action.name())
}
