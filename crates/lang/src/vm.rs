//! The register VM: flat evaluation of compiled actions on the transition
//! hot path.
//!
//! Executes the bytecode produced by [`crate::compile`] with outcomes
//! *bit-identical* to the tree-walk interpreter ([`crate::interp`]), which
//! remains the reference semantics. The correspondence rests on three
//! invariants, each enforced structurally:
//!
//! 1. **Same value semantics.** Every fallible value-level operation is the
//!    same [`crate::rt`] function the interpreter calls, so results and
//!    diagnostic strings cannot drift.
//! 2. **Same branching skeleton.** Evaluation states are deduplicated and
//!    sorted at every statement boundary — a sorted `Vec` here, a `BTreeSet`
//!    there — so branch sets, iteration order, and therefore *which* failure
//!    surfaces first are identical. `VmState`'s field order mirrors
//!    [`rt::EvalState`] and `Cow`'s `Ord` delegates to `GlobalStore`, so the
//!    derived ordering is the interpreter's ordering.
//! 3. **Same laziness.** Short-circuit operands and untaken `if` branches
//!    compile to jumps and are never executed, exactly as the interpreter
//!    never recurses into them.
//!
//! Expressions evaluate over a register file allocated once per action
//! ([`CompiledAction::max_regs`]) and reused across statements. An operation
//! takes its operands out of their registers; loading a constant, a local or
//! a global clones a [`Value`], which for a compound value shares its
//! payload ([`inseq_kernel::Shared`]) instead of copying it, and an update
//! copies one level of a payload only while something else still shares it.
//! Branch states hold the global store copy-on-write: gate-only and blocked
//! evaluations never clone the store, and branching statements clone it only
//! on the branches that actually write a global. Each block gathers a
//! statement's branches in one buffer that it reuses for every statement, and
//! an `if` branch of at most one statement runs in place.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::mem;
#[cfg(feature = "coverage")]
use std::sync::Arc;

use inseq_kernel::{ActionOutcome, GlobalStore, Multiset, PendingAsync, Shared, Transition, Value};

use crate::action::Slot;
use crate::compile::{CExpr, CStmt, CompiledAction, Op, QuantKind};
use crate::rt::{self, Fail};

/// Per-program instrumentation of the register VM, attached to every action
/// [`ProgramSpec::build_with`] builds (so `call` callees carry it too) and
/// copied into each compiled form, where the dispatch loop reads it. Empty
/// without the `coverage` and `fault-injection` features.
///
/// [`ProgramSpec::build_with`]: crate::spec::ProgramSpec::build_with
#[derive(Debug, Clone, Default)]
pub struct VmHooks {
    #[cfg(feature = "coverage")]
    coverage: Option<Arc<crate::coverage::CoverageSink>>,
    #[cfg(feature = "fault-injection")]
    add_offset: i64,
}

impl VmHooks {
    /// These hooks with every VM evaluation recording its dispatch edges
    /// into `sink`.
    #[cfg(feature = "coverage")]
    #[must_use]
    pub fn with_coverage(mut self, sink: Arc<crate::coverage::CoverageSink>) -> Self {
        self.coverage = Some(sink);
        self
    }

    /// Test-only fault: these hooks with `delta` added to every integer
    /// `Add` result the VM computes (the interpreter is untouched), so the
    /// VM/interpreter oracle has a miscompile to catch. Applied at dispatch,
    /// after constant folding, so only runtime additions are perturbed.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_add_offset(mut self, delta: i64) -> Self {
        self.add_offset = delta;
        self
    }
}

/// One evaluation branch, the VM counterpart of [`rt::EvalState`]. The store
/// stays borrowed from the evaluation's input until a global is written.
///
/// Field order matches `EvalState` so the derived `Ord` — and with it branch
/// iteration order and first-failure selection — is identical.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct VmState<'a> {
    globals: Cow<'a, GlobalStore>,
    locals: Vec<Value>,
    created: Multiset<PendingAsync>,
}

/// Evaluates a compiled action: the VM counterpart of
/// [`crate::interp::run_action`].
pub(crate) fn run_compiled(
    ca: &CompiledAction,
    globals: &GlobalStore,
    args: &[Value],
) -> ActionOutcome {
    assert_eq!(
        args.len(),
        ca.params,
        "arity mismatch calling `{}`",
        ca.name
    );
    let Ok(locals) = frame(ca, args.iter().cloned().map(Ok::<_, Infallible>));
    let init = VmState {
        globals: Cow::Borrowed(globals),
        locals,
        created: Multiset::new(),
    };
    let mut regs: Vec<Value> = vec![Value::Unit; ca.max_regs.max(1)];
    match exec_block(ca, &ca.body, vec![init], &mut regs) {
        Err(Fail(reason)) => ActionOutcome::Failure { reason },
        Ok(states) => ActionOutcome::Transitions(states_to_transitions(states)),
    }
}

/// A call frame's locals, allocated once at full size: the arguments, then
/// the declared locals at their defaults.
fn frame<E>(
    callee: &CompiledAction,
    args: impl IntoIterator<Item = Result<Value, E>>,
) -> Result<Vec<Value>, E> {
    let mut locals = Vec::with_capacity(callee.params + callee.local_defaults.len());
    for arg in args {
        locals.push(arg?);
    }
    locals.extend(callee.local_defaults.iter().cloned());
    Ok(locals)
}

/// Collects final branches into the canonical transition list: the same
/// sorted, duplicate-free sequence [`rt::states_to_transitions`] produces via
/// `BTreeSet`, built here by sorting a `Vec`.
fn states_to_transitions(states: Vec<VmState<'_>>) -> Vec<Transition> {
    let mut out: Vec<Transition> = states
        .into_iter()
        .map(|s| Transition::new(s.globals.into_owned(), s.created))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs a statement sequence over a branch set, deduplicating (sorted order)
/// at every statement boundary like the interpreter's `BTreeSet`. The
/// branches of one statement are gathered into a buffer that the block
/// swaps with its input and reuses for every statement.
fn exec_block<'a>(
    ca: &CompiledAction,
    stmts: &[CStmt],
    mut states: Vec<VmState<'a>>,
    regs: &mut Vec<Value>,
) -> Result<Vec<VmState<'a>>, Fail> {
    let mut next = Vec::new();
    for stmt in stmts {
        for state in states.drain(..) {
            exec_stmt(ca, stmt, state, regs, &mut next)?;
        }
        dedup_states(&mut next);
        mem::swap(&mut states, &mut next);
        if states.is_empty() {
            break; // every branch blocked; later statements are unreachable
        }
    }
    Ok(states)
}

fn dedup_states(states: &mut Vec<VmState<'_>>) {
    if states.len() > 1 {
        states.sort_unstable();
        states.dedup();
    }
}

fn exec_stmt<'a>(
    ca: &CompiledAction,
    stmt: &CStmt,
    mut state: VmState<'a>,
    regs: &mut Vec<Value>,
    out: &mut Vec<VmState<'a>>,
) -> Result<(), Fail> {
    match stmt {
        CStmt::Skip => out.push(state),
        CStmt::Assign(slot, e) => {
            let v = eval_expr(ca, &state, regs, e)?;
            write_slot(&mut state, *slot, v);
            out.push(state);
        }
        CStmt::AssignAt {
            slot,
            var,
            key,
            val,
        } => {
            let key = eval_expr(ca, &state, regs, key)?;
            let val = eval_expr(ca, &state, regs, val)?;
            let updated = rt::assign_at_value(read_slot(&state, *slot), key, val, var, &ca.name)?;
            write_slot(&mut state, *slot, updated);
            out.push(state);
        }
        CStmt::Assume(e) => {
            if eval_expr(ca, &state, regs, e)?.as_bool() {
                out.push(state);
            }
        }
        CStmt::Assert(e, msg) => {
            if eval_expr(ca, &state, regs, e)?.as_bool() {
                out.push(state);
            } else {
                return Err(Fail(msg.clone()));
            }
        }
        CStmt::If(c, t, e) => {
            let branch = if eval_expr(ca, &state, regs, c)?.as_bool() {
                t
            } else {
                e
            };
            // A block of at most one statement runs in place: the caller
            // deduplicates `out`, as the block would have.
            match branch.as_slice() {
                [] => out.push(state),
                [only] => exec_stmt(ca, only, state, regs, out)?,
                _ => out.extend(exec_block(ca, branch, vec![state], regs)?),
            }
        }
        CStmt::ForRange(slot, lo, hi, body) => {
            let lo = eval_expr(ca, &state, regs, lo)?.as_int();
            let hi = eval_expr(ca, &state, regs, hi)?.as_int();
            let mut states = vec![state];
            for i in lo..=hi {
                for s in &mut states {
                    write_slot(s, *slot, Value::Int(i));
                }
                dedup_states(&mut states);
                states = exec_block(ca, body, states, regs)?;
                if states.is_empty() {
                    break;
                }
            }
            out.extend(states);
        }
        CStmt::Choose(slot, domain) => {
            let dom = eval_expr(ca, &state, regs, domain)?;
            for v in rt::choose_elems(dom, &ca.name)? {
                let mut s = state.clone();
                write_slot(&mut s, *slot, v);
                out.push(s);
            }
        }
        CStmt::Send {
            chan,
            chan_name,
            key,
            msg,
        } => {
            let m = eval_expr(ca, &state, regs, msg)?;
            match key {
                None => {
                    let updated = rt::send_value(read_slot(&state, *chan), &m, &ca.name)?;
                    write_slot(&mut state, *chan, updated);
                    out.push(state);
                }
                Some(k) => {
                    let kv = eval_expr(ca, &state, regs, k)?;
                    let mut map = read_map_channel(ca, &state, *chan, chan_name)?;
                    let inner = map.get(&kv).clone();
                    let sent = rt::send_value(inner, &m, &ca.name)?;
                    Shared::make_mut(&mut map).set_in_place(kv, sent);
                    write_slot(&mut state, *chan, Value::Map(map));
                    out.push(state);
                }
            }
        }
        CStmt::Recv {
            var,
            chan,
            chan_name,
            key,
        } => match key {
            None => {
                let branches = rt::recv_branches(read_slot(&state, *chan), &ca.name)?;
                for (rest, msg) in branches {
                    let mut s = state.clone();
                    write_slot(&mut s, *chan, rest);
                    write_slot(&mut s, *var, msg);
                    out.push(s);
                }
            }
            Some(k) => {
                let kv = eval_expr(ca, &state, regs, k)?;
                let map = read_map_channel(ca, &state, *chan, chan_name)?;
                let inner = map.get(&kv).clone();
                let branches = rt::recv_branches(inner, &ca.name)?;
                for (rest, msg) in branches {
                    let mut s = state.clone();
                    write_slot(&mut s, *chan, Value::map(map.set(kv.clone(), rest)));
                    write_slot(&mut s, *var, msg);
                    out.push(s);
                }
            }
        },
        CStmt::Async { name, args } => {
            let vals = args
                .iter()
                .map(|a| eval_expr(ca, &state, regs, a))
                .collect::<Result<Vec<_>, _>>()?;
            state.created.insert(PendingAsync::new(name.clone(), vals));
            out.push(state);
        }
        CStmt::Call { callee, args } => {
            let locals = frame(callee, args.iter().map(|a| eval_expr(ca, &state, regs, a)))?;
            let sub = VmState {
                globals: state.globals.clone(),
                locals,
                created: state.created.clone(),
            };
            if regs.len() < callee.max_regs {
                regs.resize(callee.max_regs, Value::Unit);
            }
            let results = exec_block(callee, &callee.body, vec![sub], regs)?;
            for r in results {
                out.push(VmState {
                    globals: r.globals,
                    locals: state.locals.clone(),
                    created: r.created,
                });
            }
        }
    }
    Ok(())
}

fn read_slot(state: &VmState<'_>, slot: Slot) -> Value {
    match slot {
        Slot::Local(i) => state.locals[i].clone(),
        Slot::Global(i) => state.globals.get(i).clone(),
    }
}

fn write_slot(state: &mut VmState<'_>, slot: Slot, value: Value) {
    match slot {
        Slot::Local(i) => state.locals[i] = value,
        Slot::Global(i) => state.globals.to_mut().set(i, value),
    }
}

/// Reads an indexed channel, which must hold a map of channels.
fn read_map_channel(
    ca: &CompiledAction,
    state: &VmState<'_>,
    chan: Slot,
    chan_name: &str,
) -> Result<Shared<inseq_kernel::Map>, Fail> {
    match read_slot(state, chan) {
        Value::Map(m) => Ok(m),
        other => Err(Fail(format!(
            "indexed channel `{chan_name}` must be a map, found {other} in `{}`",
            ca.name
        ))),
    }
}

/// Evaluates a compiled expression into its result register and moves the
/// value out.
fn eval_expr(
    ca: &CompiledAction,
    state: &VmState<'_>,
    regs: &mut Vec<Value>,
    e: &CExpr,
) -> Result<Value, Fail> {
    exec_ops(ca, state, regs, &e.ops)?;
    Ok(take(regs, e.dst))
}

#[inline]
fn take(regs: &mut [Value], r: u16) -> Value {
    mem::replace(&mut regs[r as usize], Value::Unit)
}

#[inline]
fn put(regs: &mut [Value], r: u16, v: Value) {
    regs[r as usize] = v;
}

/// The dispatch loop: a program counter over a flat op array, no AST
/// recursion (quantifier bodies recurse once per *nesting level*, not per
/// node).
fn exec_ops(
    ca: &CompiledAction,
    state: &VmState<'_>,
    regs: &mut Vec<Value>,
    ops: &[Op],
) -> Result<(), Fail> {
    let name = ca.name.as_str();
    let mut pc = 0usize;
    #[cfg(feature = "coverage")]
    let sink = ca.hooks.coverage.as_deref();
    #[cfg(feature = "coverage")]
    let mut cov_prev = crate::coverage::ENTRY;
    while let Some(op) = ops.get(pc) {
        #[cfg(feature = "coverage")]
        if let Some(sink) = sink {
            let cur = crate::coverage::op_index(op);
            sink.record_edge(cov_prev, cur);
            cov_prev = cur;
        }
        match op {
            Op::Const { dst, idx } => put(regs, *dst, ca.consts[*idx as usize].clone()),
            Op::Local { dst, slot } => put(regs, *dst, state.locals[*slot as usize].clone()),
            Op::Global { dst, slot } => {
                put(regs, *dst, state.globals.get(*slot as usize).clone());
            }
            Op::Copy { dst, src } => {
                let v = regs[*src as usize].clone();
                put(regs, *dst, v);
            }
            Op::Neg { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::neg_value(&v, name)?);
            }
            Op::Not { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, Value::Bool(!v.as_bool()));
            }
            Op::Bin { op, dst } => {
                let a = take(regs, *dst);
                let b = take(regs, *dst + 1);
                let r = rt::bin_values(*op, a, b, name)?;
                #[cfg(feature = "fault-injection")]
                let r = match (op, r) {
                    (crate::expr::BinOp::Add, Value::Int(n)) => Value::Int(n + ca.hooks.add_offset),
                    (_, r) => r,
                };
                put(regs, *dst, r);
            }
            Op::Jump { target } => {
                pc = *target as usize;
                continue;
            }
            Op::JumpIfFalse { reg, target } => {
                if !regs[*reg as usize].as_bool() {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::JumpIfTrue { reg, target } => {
                if regs[*reg as usize].as_bool() {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::SomeOf { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, Value::some(v));
            }
            Op::IsSome { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, Value::Bool(matches!(v, Value::Opt(Some(_)))));
            }
            Op::Unwrap { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::unwrap_value(v, name)?);
            }
            Op::Tuple { dst, len } => {
                let mut vs = Vec::with_capacity(*len as usize);
                for i in 0..*len {
                    vs.push(take(regs, *dst + i));
                }
                put(regs, *dst, Value::tuple(vs));
            }
            Op::Proj { dst, index } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::proj_value(v, *index as usize, name)?);
            }
            Op::MapGet { dst } => {
                let m = take(regs, *dst);
                let k = take(regs, *dst + 1);
                put(regs, *dst, rt::map_get_value(m, k, name)?);
            }
            Op::MapSet { dst } => {
                let m = take(regs, *dst);
                let k = take(regs, *dst + 1);
                let v = take(regs, *dst + 2);
                put(regs, *dst, rt::map_set_value(m, k, v, name)?);
            }
            Op::SizeOf { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::size_of_value(&v, name)?);
            }
            Op::Contains { dst } => {
                let c = take(regs, *dst);
                let i = take(regs, *dst + 1);
                put(regs, *dst, rt::contains_value(&c, &i, name)?);
            }
            Op::CountOf { dst } => {
                let c = take(regs, *dst);
                let i = take(regs, *dst + 1);
                put(regs, *dst, rt::count_of_value(&c, &i, name)?);
            }
            Op::WithElem { dst } => {
                let c = take(regs, *dst);
                let i = take(regs, *dst + 1);
                put(regs, *dst, rt::with_elem_value(c, i, name)?);
            }
            Op::WithoutElem { dst } => {
                let c = take(regs, *dst);
                let i = take(regs, *dst + 1);
                put(regs, *dst, rt::without_elem_value(c, i, name)?);
            }
            Op::UnionOf { dst } => {
                let a = take(regs, *dst);
                let b = take(regs, *dst + 1);
                put(regs, *dst, rt::union_of_value(a, b, name)?);
            }
            Op::IncludedIn { dst } => {
                let a = take(regs, *dst);
                let b = take(regs, *dst + 1);
                put(regs, *dst, rt::included_in_value(a, b, name)?);
            }
            Op::RangeSet { dst } => {
                let lo = take(regs, *dst).as_int();
                let hi = take(regs, *dst + 1).as_int();
                put(regs, *dst, rt::range_set_value(lo, hi));
            }
            Op::MinOf { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::min_max_of_value(&v, true, name)?);
            }
            Op::MaxOf { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::min_max_of_value(&v, false, name)?);
            }
            Op::SumOf { dst } => {
                let v = take(regs, *dst);
                put(regs, *dst, rt::sum_of_value(&v, name)?);
            }
            Op::Quant { kind, dst, body } => {
                let dom = take(regs, *dst);
                let elems = rt::domain_values(dom, name)?;
                let binder = *dst as usize + 1;
                let result = match kind {
                    QuantKind::Forall => {
                        let mut r = Value::Bool(true);
                        for item in elems {
                            regs[binder] = item;
                            exec_ops(ca, state, regs, &body.ops)?;
                            if !take(regs, body.dst).as_bool() {
                                r = Value::Bool(false);
                                break;
                            }
                        }
                        r
                    }
                    QuantKind::Exists => {
                        let mut r = Value::Bool(false);
                        for item in elems {
                            regs[binder] = item;
                            exec_ops(ca, state, regs, &body.ops)?;
                            if take(regs, body.dst).as_bool() {
                                r = Value::Bool(true);
                                break;
                            }
                        }
                        r
                    }
                    QuantKind::Filter => {
                        let mut kept = BTreeSet::new();
                        for item in elems {
                            regs[binder] = item.clone();
                            exec_ops(ca, state, regs, &body.ops)?;
                            if take(regs, body.dst).as_bool() {
                                kept.insert(item);
                            }
                        }
                        Value::set(kept)
                    }
                    QuantKind::MapImage => {
                        let mut image = BTreeSet::new();
                        for item in elems {
                            regs[binder] = item;
                            exec_ops(ca, state, regs, &body.ops)?;
                            image.insert(take(regs, body.dst));
                        }
                        Value::set(image)
                    }
                };
                put(regs, *dst, result);
            }
        }
        pc += 1;
    }
    Ok(())
}
