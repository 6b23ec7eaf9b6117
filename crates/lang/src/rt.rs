//! Shared runtime support for the two evaluators.
//!
//! The tree-walk interpreter ([`crate::interp`], the reference semantics)
//! and the register VM ([`crate::vm`], the hot path) must agree *exactly* —
//! same transitions, same gate verdicts, same diagnostic strings. Every
//! value-level operation that can fail therefore lives here, written once:
//! the interpreter calls these functions after recursively evaluating
//! operands, the VM calls them on registers. Divergence between the two
//! evaluators is then confined to control flow, which the differential test
//! suite exercises directly.

use std::collections::BTreeSet;

use inseq_kernel::{GlobalStore, Map, Multiset, PendingAsync, Shared, Value};

use crate::expr::BinOp;

/// A gate violation or partial-operation error, with a diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fail(pub String);

/// One evaluation branch: the store so far plus the pending asyncs created.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EvalState {
    pub(crate) globals: GlobalStore,
    pub(crate) locals: Vec<Value>,
    pub(crate) created: Multiset<PendingAsync>,
}

/// `unwrap(e)`: the payload of a `Some`, failing on `None`.
pub(crate) fn unwrap_value(v: Value, name: &str) -> Result<Value, Fail> {
    match v {
        Value::Opt(Some(v)) => Ok(Shared::into_inner(v)),
        Value::Opt(None) => Err(Fail(format!("unwrap of None in `{name}`"))),
        other => Err(Fail(format!(
            "unwrap needs an Option, found {other} in `{name}`"
        ))),
    }
}

/// Tuple projection `e.i` (0-based).
pub(crate) fn proj_value(v: Value, i: usize, name: &str) -> Result<Value, Fail> {
    match v {
        Value::Tuple(vs) if i < vs.len() => Ok(vs[i].clone()),
        other => Err(Fail(format!(
            "projection .{i} out of range on {other} in `{name}`"
        ))),
    }
}

/// `m[k]` with total-map semantics, or 0-based sequence indexing.
pub(crate) fn map_get_value(map: Value, key: Value, name: &str) -> Result<Value, Fail> {
    match map {
        Value::Map(m) => Ok(m.get(&key).clone()),
        Value::Seq(s) => {
            let i = key.as_int();
            usize::try_from(i)
                .ok()
                .and_then(|i| s.get(i).cloned())
                .ok_or_else(|| Fail(format!("sequence index {i} out of range in `{name}`")))
        }
        other => Err(Fail(format!(
            "indexing needs a Map or Seq, found {other} in `{name}`"
        ))),
    }
}

/// `m[k := v]` functional map update.
pub(crate) fn map_set_value(map: Value, key: Value, val: Value, name: &str) -> Result<Value, Fail> {
    match map {
        Value::Map(mut m) => {
            set_entry(&mut m, key, val);
            Ok(Value::Map(m))
        }
        other => Err(Fail(format!(
            "map update needs a Map, found {other} in `{name}`"
        ))),
    }
}

/// The statement `var[k] := v`, given `var`'s current value.
pub(crate) fn assign_at_value(
    cur: Value,
    key: Value,
    val: Value,
    var: &str,
    name: &str,
) -> Result<Value, Fail> {
    match cur {
        Value::Map(mut m) => {
            set_entry(&mut m, key, val);
            Ok(Value::Map(m))
        }
        other => Err(Fail(format!(
            "`{var}[..] := ..` needs a map, found {other} in `{name}`"
        ))),
    }
}

/// `m[key] := val` in place; a write that changes nothing copies nothing.
fn set_entry(m: &mut Shared<Map>, key: Value, val: Value) {
    if *m.get(&key) != val {
        Shared::make_mut(m).set_in_place(key, val);
    }
}

/// `|e|` — collection size.
pub(crate) fn size_of_value(v: &Value, name: &str) -> Result<Value, Fail> {
    let n = match v {
        Value::Set(s) => s.len(),
        Value::Bag(b) => b.len(),
        Value::Seq(s) => s.len(),
        Value::Map(m) => m.support_len(),
        other => {
            return Err(Fail(format!(
                "|..| needs a collection, found {other} in `{name}`"
            )))
        }
    };
    Ok(Value::Int(n as i64))
}

/// `item in coll`.
pub(crate) fn contains_value(coll: &Value, item: &Value, name: &str) -> Result<Value, Fail> {
    let b = match coll {
        Value::Set(s) => s.contains(item),
        Value::Bag(b) => b.contains(item),
        Value::Seq(s) => s.contains(item),
        other => {
            return Err(Fail(format!(
                "`in` needs a collection, found {other} in `{name}`"
            )))
        }
    };
    Ok(Value::Bool(b))
}

/// Multiplicity of `item` in a bag.
pub(crate) fn count_of_value(coll: &Value, item: &Value, name: &str) -> Result<Value, Fail> {
    match coll {
        Value::Bag(b) => Ok(Value::Int(b.count(item) as i64)),
        other => Err(Fail(format!(
            "count needs a Bag, found {other} in `{name}`"
        ))),
    }
}

/// `coll` with `item` added (set insert / bag occurrence / seq append).
pub(crate) fn with_elem_value(coll: Value, item: Value, name: &str) -> Result<Value, Fail> {
    match coll {
        Value::Set(mut s) => {
            if !s.contains(&item) {
                Shared::make_mut(&mut s).insert(item);
            }
            Ok(Value::Set(s))
        }
        Value::Bag(mut b) => {
            Shared::make_mut(&mut b).insert(item);
            Ok(Value::Bag(b))
        }
        Value::Seq(mut s) => {
            Shared::make_mut(&mut s).push(item);
            Ok(Value::Seq(s))
        }
        other => Err(Fail(format!(
            "add needs a collection, found {other} in `{name}`"
        ))),
    }
}

/// `coll` with `item` removed (set remove / one bag occurrence).
pub(crate) fn without_elem_value(coll: Value, item: Value, name: &str) -> Result<Value, Fail> {
    match coll {
        Value::Set(mut s) => {
            if s.contains(&item) {
                Shared::make_mut(&mut s).remove(&item);
            }
            Ok(Value::Set(s))
        }
        Value::Bag(mut b) => {
            if b.contains(&item) {
                Shared::make_mut(&mut b).remove_one(&item);
            }
            Ok(Value::Bag(b))
        }
        other => Err(Fail(format!(
            "remove needs a Set or Bag, found {other} in `{name}`"
        ))),
    }
}

/// Union of two sets or two bags.
pub(crate) fn union_of_value(a: Value, b: Value, name: &str) -> Result<Value, Fail> {
    match (a, b) {
        (Value::Set(mut x), Value::Set(y)) => {
            Shared::make_mut(&mut x).extend(y.iter().cloned());
            Ok(Value::Set(x))
        }
        (Value::Bag(mut x), Value::Bag(y)) => {
            Shared::make_mut(&mut x).extend(y.iter().cloned());
            Ok(Value::Bag(x))
        }
        (x, y) => Err(Fail(format!(
            "union needs two Sets or two Bags, found {x} and {y} in `{name}`"
        ))),
    }
}

/// Subset / sub-bag inclusion.
pub(crate) fn included_in_value(a: Value, b: Value, name: &str) -> Result<Value, Fail> {
    match (a, b) {
        (Value::Set(x), Value::Set(y)) => Ok(Value::Bool(x.is_subset(&y))),
        (Value::Bag(x), Value::Bag(y)) => Ok(Value::Bool(y.includes(&x))),
        (x, y) => Err(Fail(format!(
            "subset needs two Sets or two Bags, found {x} and {y} in `{name}`"
        ))),
    }
}

/// `{lo..hi}` — the inclusive integer range as a set.
pub(crate) fn range_set_value(lo: i64, hi: i64) -> Value {
    Value::set((lo..=hi).map(Value::Int).collect())
}

/// `min(e)` / `max(e)` over a non-empty integer collection.
pub(crate) fn min_max_of_value(v: &Value, is_min: bool, name: &str) -> Result<Value, Fail> {
    let items: Vec<i64> = collection_ints(v, name)?;
    let picked = if is_min {
        items.iter().min()
    } else {
        items.iter().max()
    };
    picked
        .copied()
        .map(Value::Int)
        .ok_or_else(|| Fail(format!("min/max of an empty collection in `{name}`")))
}

/// `sum(e)` over an integer collection (0 on empty).
pub(crate) fn sum_of_value(v: &Value, name: &str) -> Result<Value, Fail> {
    let items = collection_ints(v, name)?;
    int_result(
        items.iter().try_fold(0i64, |acc, &i| acc.checked_add(i)),
        name,
    )
}

pub(crate) fn collection_ints(v: &Value, name: &str) -> Result<Vec<i64>, Fail> {
    match v {
        Value::Set(s) => s.iter().map(|v| Ok(v.as_int())).collect(),
        Value::Bag(b) => b.iter().map(|v| Ok(v.as_int())).collect(),
        Value::Seq(s) => s.iter().map(|v| Ok(v.as_int())).collect(),
        other => Err(Fail(format!(
            "expected a collection of Int, found {other} in `{name}`"
        ))),
    }
}

/// The elements a quantifier ranges over, in iteration order.
pub(crate) fn domain_values(v: Value, name: &str) -> Result<Vec<Value>, Fail> {
    match v {
        Value::Set(set) => Ok(set.iter().cloned().collect()),
        Value::Bag(bag) => Ok(bag.distinct().cloned().collect()),
        Value::Seq(seq) => Ok(Shared::into_inner(seq)),
        other => Err(Fail(format!(
            "quantifier domain must be a collection, found {other} in `{name}`"
        ))),
    }
}

/// An integer result, or the overflow diagnostic when there is none: `i64`
/// arithmetic that leaves the range fails the gate instead of wrapping.
fn int_result(r: Option<i64>, name: &str) -> Result<Value, Fail> {
    r.map(Value::Int)
        .ok_or_else(|| Fail(format!("integer overflow in `{name}`")))
}

/// Integer negation `-e`.
pub(crate) fn neg_value(v: &Value, name: &str) -> Result<Value, Fail> {
    int_result(v.as_int().checked_neg(), name)
}

/// Strictly-evaluated binary operators. The short-circuiting boolean
/// operators (`&&`, `||`, `==>`) are control flow and handled by each
/// evaluator; passing them here is a bug.
pub(crate) fn bin_values(op: BinOp, va: Value, vb: Value, name: &str) -> Result<Value, Fail> {
    let out = match op {
        BinOp::Add => int_result(va.as_int().checked_add(vb.as_int()), name)?,
        BinOp::Sub => int_result(va.as_int().checked_sub(vb.as_int()), name)?,
        BinOp::Mul => int_result(va.as_int().checked_mul(vb.as_int()), name)?,
        BinOp::Div => {
            let d = vb.as_int();
            if d == 0 {
                return Err(Fail(format!("division by zero in `{name}`")));
            }
            int_result(va.as_int().checked_div_euclid(d), name)?
        }
        BinOp::Mod => {
            let d = vb.as_int();
            if d == 0 {
                return Err(Fail(format!("modulo by zero in `{name}`")));
            }
            int_result(va.as_int().checked_rem_euclid(d), name)?
        }
        BinOp::Eq => Value::Bool(va == vb),
        BinOp::Ne => Value::Bool(va != vb),
        BinOp::Lt => Value::Bool(va.as_int() < vb.as_int()),
        BinOp::Le => Value::Bool(va.as_int() <= vb.as_int()),
        BinOp::Gt => Value::Bool(va.as_int() > vb.as_int()),
        BinOp::Ge => Value::Bool(va.as_int() >= vb.as_int()),
        BinOp::And | BinOp::Or | BinOp::Implies => {
            unreachable!("short-circuiting operators are control flow")
        }
    };
    Ok(out)
}

/// `send`: the channel value with `msg` appended (bag add / seq push).
pub(crate) fn send_value(chan: Value, msg: &Value, name: &str) -> Result<Value, Fail> {
    match chan {
        Value::Bag(mut b) => {
            Shared::make_mut(&mut b).insert(msg.clone());
            Ok(Value::Bag(b))
        }
        Value::Seq(mut s) => {
            Shared::make_mut(&mut s).push(msg.clone());
            Ok(Value::Seq(s))
        }
        other => Err(Fail(format!(
            "send needs a Bag or Seq channel, found {other} in `{name}`"
        ))),
    }
}

/// `receive`: every `(channel-after, message)` branch. Bags branch over each
/// distinct message (out-of-order delivery); seqs take the head (FIFO). An
/// empty channel yields no branches (the receive blocks).
pub(crate) fn recv_branches(chan: Value, name: &str) -> Result<Vec<(Value, Value)>, Fail> {
    match chan {
        Value::Bag(b) => Ok(b
            .distinct()
            .map(|msg| {
                let rest = b.without(msg).expect("distinct elements are present");
                (Value::bag(rest), msg.clone())
            })
            .collect()),
        Value::Seq(mut s) => {
            if s.is_empty() {
                Ok(vec![])
            } else {
                let head = Shared::make_mut(&mut s).remove(0);
                Ok(vec![(Value::Seq(s), head)])
            }
        }
        other => Err(Fail(format!(
            "receive needs a Bag or Seq channel, found {other} in `{name}`"
        ))),
    }
}

/// `choose`: the candidate elements, in iteration order.
pub(crate) fn choose_elems(dom: Value, name: &str) -> Result<Vec<Value>, Fail> {
    match dom {
        Value::Set(s) => Ok(s.iter().cloned().collect()),
        Value::Bag(b) => Ok(b.distinct().cloned().collect()),
        other => Err(Fail(format!(
            "choose needs a set or bag, found {other} in `{name}`"
        ))),
    }
}

/// Collects final evaluation states into the canonical transition list.
pub(crate) fn states_to_transitions(
    states: impl IntoIterator<Item = EvalState>,
) -> Vec<inseq_kernel::Transition> {
    states
        .into_iter()
        .map(|s| inseq_kernel::Transition::new(s.globals, s.created))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}
