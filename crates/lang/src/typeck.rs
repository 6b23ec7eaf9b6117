//! Sort checking for action bodies.
//!
//! The checker runs at action-build time ([`DslAction::build`] →
//! `finish()`) and catches unresolved names, arity errors, and ill-sorted
//! expressions before any exploration starts. It uses a small inference
//! lattice ([`Ty`]) with an `Unknown` bottom so that empty collection
//! literals (`{}`/`{||}`) check against any element sort.

use inseq_kernel::Value;

use crate::action::{DslAction, Slot};
use crate::error::TypeError;
use crate::expr::{BinOp, Expr};
use crate::sort::Sort;
use crate::stmt::Stmt;

/// Inference-time type: [`Sort`] extended with an `Unknown` wildcard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ty {
    Unknown,
    Unit,
    Bool,
    Int,
    Opt(Box<Ty>),
    Tuple(Vec<Ty>),
    Set(Box<Ty>),
    Bag(Box<Ty>),
    Seq(Box<Ty>),
    Map(Box<Ty>, Box<Ty>),
}

impl Ty {
    pub(crate) fn from_sort(s: &Sort) -> Ty {
        match s {
            Sort::Unit => Ty::Unit,
            Sort::Bool => Ty::Bool,
            Sort::Int => Ty::Int,
            Sort::Opt(i) => Ty::Opt(Box::new(Ty::from_sort(i))),
            Sort::Tuple(ss) => Ty::Tuple(ss.iter().map(Ty::from_sort).collect()),
            Sort::Set(i) => Ty::Set(Box::new(Ty::from_sort(i))),
            Sort::Bag(i) => Ty::Bag(Box::new(Ty::from_sort(i))),
            Sort::Seq(i) => Ty::Seq(Box::new(Ty::from_sort(i))),
            Sort::Map(k, v) => Ty::Map(Box::new(Ty::from_sort(k)), Box::new(Ty::from_sort(v))),
        }
    }

    /// The most precise type of a literal value. Empty collections yield
    /// `Unknown` element types.
    pub(crate) fn of_value(v: &Value) -> Ty {
        match v {
            Value::Unit => Ty::Unit,
            Value::Bool(_) => Ty::Bool,
            Value::Int(_) => Ty::Int,
            Value::Opt(None) => Ty::Opt(Box::new(Ty::Unknown)),
            Value::Opt(Some(inner)) => Ty::Opt(Box::new(Ty::of_value(inner))),
            Value::Tuple(vs) => Ty::Tuple(vs.iter().map(Ty::of_value).collect()),
            Value::Set(s) => Ty::Set(Box::new(join_all(s.iter().map(Ty::of_value)))),
            Value::Bag(b) => Ty::Bag(Box::new(join_all(b.distinct().map(Ty::of_value)))),
            Value::Seq(s) => Ty::Seq(Box::new(join_all(s.iter().map(Ty::of_value)))),
            Value::Map(m) => {
                let v = join_all(
                    std::iter::once(Ty::of_value(m.default_value()))
                        .chain(m.iter().map(|(_, v)| Ty::of_value(v))),
                );
                let k = join_all(m.iter().map(|(k, _)| Ty::of_value(k)));
                Ty::Map(Box::new(k), Box::new(v))
            }
        }
    }

    /// Structural unification with `Unknown` as a wildcard; `None` when the
    /// types conflict.
    pub(crate) fn unify(&self, other: &Ty) -> Option<Ty> {
        match (self, other) {
            (Ty::Unknown, t) | (t, Ty::Unknown) => Some(t.clone()),
            (Ty::Unit, Ty::Unit) => Some(Ty::Unit),
            (Ty::Bool, Ty::Bool) => Some(Ty::Bool),
            (Ty::Int, Ty::Int) => Some(Ty::Int),
            (Ty::Opt(a), Ty::Opt(b)) => Some(Ty::Opt(Box::new(a.unify(b)?))),
            (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => Some(Ty::Tuple(
                xs.iter()
                    .zip(ys)
                    .map(|(a, b)| a.unify(b))
                    .collect::<Option<_>>()?,
            )),
            (Ty::Set(a), Ty::Set(b)) => Some(Ty::Set(Box::new(a.unify(b)?))),
            (Ty::Bag(a), Ty::Bag(b)) => Some(Ty::Bag(Box::new(a.unify(b)?))),
            (Ty::Seq(a), Ty::Seq(b)) => Some(Ty::Seq(Box::new(a.unify(b)?))),
            (Ty::Map(ka, va), Ty::Map(kb, vb)) => {
                Some(Ty::Map(Box::new(ka.unify(kb)?), Box::new(va.unify(vb)?)))
            }
            _ => None,
        }
    }
}

fn join_all(tys: impl Iterator<Item = Ty>) -> Ty {
    let mut acc = Ty::Unknown;
    for t in tys {
        match acc.unify(&t) {
            Some(u) => acc = u,
            None => return Ty::Unknown, // heterogeneous literal; runtime will complain
        }
    }
    acc
}

struct Ctx<'a> {
    action: &'a DslAction,
    bound: Vec<(String, Ty)>,
}

impl Ctx<'_> {
    fn lookup(&self, name: &str) -> Option<Ty> {
        if let Some((_, t)) = self.bound.iter().rev().find(|(n, _)| n == name) {
            return Some(t.clone());
        }
        match self.action.slot(name)? {
            Slot::Local(i) => {
                let sort = self.action.local_sorts().nth(i)?;
                Some(Ty::from_sort(sort))
            }
            Slot::Global(i) => Some(Ty::from_sort(self.action.globals().sort_at(i))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> TypeError {
        TypeError::new(self.action.name(), msg)
    }
}

/// Checks every statement of `action`'s body.
pub(crate) fn check_action(action: &DslAction) -> Result<(), TypeError> {
    let mut ctx = Ctx {
        action,
        bound: Vec::new(),
    };
    check_block(&mut ctx, action.body())
}

fn check_block(ctx: &mut Ctx<'_>, stmts: &[Stmt]) -> Result<(), TypeError> {
    for s in stmts {
        check_stmt(ctx, s)?;
    }
    Ok(())
}

fn expect(ctx: &Ctx<'_>, e: &Expr, want: &Ty) -> Result<Ty, TypeError> {
    let got = infer(ctx, e)?;
    got.unify(want)
        .ok_or_else(|| ctx.err(format!("`{e}` has type {got:?}, expected {want:?}")))
}

fn check_stmt(ctx: &mut Ctx<'_>, stmt: &Stmt) -> Result<(), TypeError> {
    match stmt {
        Stmt::Skip => Ok(()),
        Stmt::Assign(x, e) => {
            let vt = ctx
                .lookup(x)
                .ok_or_else(|| ctx.err(format!("assignment to unbound variable `{x}`")))?;
            expect(ctx, e, &vt)?;
            Ok(())
        }
        Stmt::AssignAt(x, k, v) => {
            let vt = ctx
                .lookup(x)
                .ok_or_else(|| ctx.err(format!("assignment to unbound variable `{x}`")))?;
            match vt {
                Ty::Map(kt, vt) => {
                    expect(ctx, k, &kt)?;
                    expect(ctx, v, &vt)?;
                    Ok(())
                }
                other => Err(ctx.err(format!("`{x}[..] := ..` needs a map, found {other:?}"))),
            }
        }
        Stmt::Assume(e) | Stmt::Assert(e, _) => {
            expect(ctx, e, &Ty::Bool)?;
            Ok(())
        }
        Stmt::If(c, t, e) => {
            expect(ctx, c, &Ty::Bool)?;
            check_block(ctx, t)?;
            check_block(ctx, e)
        }
        Stmt::ForRange(x, lo, hi, body) => {
            let vt = ctx
                .lookup(x)
                .ok_or_else(|| ctx.err(format!("loop variable `{x}` must be declared")))?;
            if vt.unify(&Ty::Int).is_none() {
                return Err(ctx.err(format!("loop variable `{x}` must be Int")));
            }
            expect(ctx, lo, &Ty::Int)?;
            expect(ctx, hi, &Ty::Int)?;
            check_block(ctx, body)
        }
        Stmt::Choose(x, dom) => {
            let vt = ctx
                .lookup(x)
                .ok_or_else(|| ctx.err(format!("choose target `{x}` must be declared")))?;
            let dt = infer(ctx, dom)?;
            match dt {
                Ty::Set(el) | Ty::Bag(el) => {
                    if vt.unify(&el).is_none() {
                        return Err(ctx.err(format!(
                            "choose binds `{x}` : {vt:?} from a collection of {el:?}"
                        )));
                    }
                    Ok(())
                }
                other => Err(ctx.err(format!("choose domain must be Set or Bag, found {other:?}"))),
            }
        }
        Stmt::Send { chan, key, msg } => {
            let el = channel_elem(ctx, chan, key)?;
            expect(ctx, msg, &el)?;
            Ok(())
        }
        Stmt::Recv { var, chan, key } => {
            let el = channel_elem(ctx, chan, key)?;
            let vt = ctx
                .lookup(var)
                .ok_or_else(|| ctx.err(format!("receive target `{var}` must be declared")))?;
            if vt.unify(&el).is_none() {
                return Err(ctx.err(format!(
                    "receive binds `{var}` : {vt:?} from a channel of {el:?}"
                )));
            }
            Ok(())
        }
        Stmt::Async { callee, args } => check_args(ctx, callee.name(), callee.params(), args),
        Stmt::AsyncNamed {
            name,
            param_sorts,
            args,
        } => {
            if param_sorts.len() != args.len() {
                return Err(ctx.err(format!(
                    "async {name} expects {} argument(s), got {}",
                    param_sorts.len(),
                    args.len()
                )));
            }
            for (sort, arg) in param_sorts.iter().zip(args) {
                expect(ctx, arg, &Ty::from_sort(sort))?;
            }
            Ok(())
        }
        Stmt::Call { callee, args } => check_args(ctx, callee.name(), callee.params(), args),
    }
}

fn check_args(
    ctx: &Ctx<'_>,
    callee: &str,
    params: &[(String, Sort)],
    args: &[Expr],
) -> Result<(), TypeError> {
    if params.len() != args.len() {
        return Err(ctx.err(format!(
            "`{callee}` expects {} argument(s), got {}",
            params.len(),
            args.len()
        )));
    }
    for ((_, sort), arg) in params.iter().zip(args) {
        expect(ctx, arg, &Ty::from_sort(sort))?;
    }
    Ok(())
}

fn channel_elem(ctx: &Ctx<'_>, chan: &str, key: &Option<Expr>) -> Result<Ty, TypeError> {
    let ct = ctx
        .lookup(chan)
        .ok_or_else(|| ctx.err(format!("unknown channel `{chan}`")))?;
    let inner = match (key, ct) {
        (None, t) => t,
        (Some(k), Ty::Map(kt, vt)) => {
            expect(ctx, k, &kt)?;
            *vt
        }
        (Some(_), other) => {
            return Err(ctx.err(format!(
                "indexed channel `{chan}` must be a map of channels, found {other:?}"
            )))
        }
    };
    match inner {
        Ty::Bag(el) | Ty::Seq(el) => Ok(*el),
        other => Err(ctx.err(format!(
            "channel `{chan}` must be Bag or Seq, found {other:?}"
        ))),
    }
}

fn infer(ctx: &Ctx<'_>, e: &Expr) -> Result<Ty, TypeError> {
    match e {
        Expr::Const(v) => Ok(Ty::of_value(v)),
        Expr::Var(x) => ctx
            .lookup(x)
            .ok_or_else(|| ctx.err(format!("unbound variable `{x}`"))),
        Expr::Neg(a) => expect(ctx, a, &Ty::Int),
        Expr::Not(a) => expect(ctx, a, &Ty::Bool),
        Expr::Bin(op, a, b) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                expect(ctx, a, &Ty::Int)?;
                expect(ctx, b, &Ty::Int)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                expect(ctx, a, &Ty::Int)?;
                expect(ctx, b, &Ty::Int)?;
                Ok(Ty::Bool)
            }
            BinOp::Eq | BinOp::Ne => {
                let ta = infer(ctx, a)?;
                expect(ctx, b, &ta)?;
                Ok(Ty::Bool)
            }
            BinOp::And | BinOp::Or | BinOp::Implies => {
                expect(ctx, a, &Ty::Bool)?;
                expect(ctx, b, &Ty::Bool)
            }
        },
        Expr::Ite(c, t, f) => {
            expect(ctx, c, &Ty::Bool)?;
            let tt = infer(ctx, t)?;
            expect(ctx, f, &tt)
        }
        Expr::SomeOf(a) => Ok(Ty::Opt(Box::new(infer(ctx, a)?))),
        Expr::IsSome(a) => {
            expect(ctx, a, &Ty::Opt(Box::new(Ty::Unknown)))?;
            Ok(Ty::Bool)
        }
        Expr::Unwrap(a) => match expect(ctx, a, &Ty::Opt(Box::new(Ty::Unknown)))? {
            Ty::Opt(inner) => Ok(*inner),
            _ => unreachable!("expect normalises to Opt"),
        },
        Expr::Tuple(es) => Ok(Ty::Tuple(
            es.iter().map(|e| infer(ctx, e)).collect::<Result<_, _>>()?,
        )),
        Expr::Proj(a, i) => match infer(ctx, a)? {
            Ty::Tuple(ts) if *i < ts.len() => Ok(ts[*i].clone()),
            Ty::Unknown => Ok(Ty::Unknown),
            other => Err(ctx.err(format!("projection .{i} on non-tuple {other:?}"))),
        },
        Expr::MapGet(m, k) => match infer(ctx, m)? {
            Ty::Map(kt, vt) => {
                expect(ctx, k, &kt)?;
                Ok(*vt)
            }
            Ty::Seq(el) => {
                expect(ctx, k, &Ty::Int)?;
                Ok(*el)
            }
            other => Err(ctx.err(format!("indexing on non-map {other:?}"))),
        },
        Expr::MapSet(m, k, v) => match infer(ctx, m)? {
            Ty::Map(kt, vt) => {
                expect(ctx, k, &kt)?;
                expect(ctx, v, &vt)?;
                Ok(Ty::Map(kt, vt))
            }
            other => Err(ctx.err(format!("map update on non-map {other:?}"))),
        },
        Expr::SizeOf(a) => {
            let t = infer(ctx, a)?;
            match t {
                Ty::Set(_) | Ty::Bag(_) | Ty::Seq(_) | Ty::Map(..) | Ty::Unknown => Ok(Ty::Int),
                other => Err(ctx.err(format!("|..| on non-collection {other:?}"))),
            }
        }
        Expr::Contains(c, a) => {
            let el = elem_ty(ctx, c)?;
            expect(ctx, a, &el)?;
            Ok(Ty::Bool)
        }
        Expr::CountOf(c, a) => match infer(ctx, c)? {
            Ty::Bag(el) => {
                expect(ctx, a, &el)?;
                Ok(Ty::Int)
            }
            other => Err(ctx.err(format!("count on non-bag {other:?}"))),
        },
        Expr::WithElem(c, a) | Expr::WithoutElem(c, a) => {
            let ct = infer(ctx, c)?;
            let el = match &ct {
                Ty::Set(el) | Ty::Bag(el) | Ty::Seq(el) => (**el).clone(),
                Ty::Unknown => Ty::Unknown,
                other => return Err(ctx.err(format!("add/remove on non-collection {other:?}"))),
            };
            // The element refines the collection's element type: adding an
            // `Opt(Int)` to an empty bag makes a bag of `Opt(Int)`, not one
            // of `Unknown` that any later `choose` would accept.
            let el = Box::new(expect(ctx, a, &el)?);
            Ok(match ct {
                Ty::Set(_) => Ty::Set(el),
                Ty::Bag(_) => Ty::Bag(el),
                Ty::Seq(_) => Ty::Seq(el),
                _ => Ty::Unknown,
            })
        }
        Expr::UnionOf(a, b) => {
            let ta = infer(ctx, a)?;
            expect(ctx, b, &ta)
        }
        Expr::IncludedIn(a, b) => {
            let ta = infer(ctx, a)?;
            expect(ctx, b, &ta)?;
            Ok(Ty::Bool)
        }
        Expr::RangeSet(lo, hi) => {
            expect(ctx, lo, &Ty::Int)?;
            expect(ctx, hi, &Ty::Int)?;
            Ok(Ty::Set(Box::new(Ty::Int)))
        }
        Expr::MinOf(a) | Expr::MaxOf(a) | Expr::SumOf(a) => {
            let t = infer(ctx, a)?;
            match t {
                Ty::Set(el) | Ty::Bag(el) | Ty::Seq(el) => {
                    if el.unify(&Ty::Int).is_none() {
                        return Err(ctx.err("min/max/sum needs Int elements".to_string()));
                    }
                    Ok(Ty::Int)
                }
                Ty::Unknown => Ok(Ty::Int),
                other => Err(ctx.err(format!("min/max/sum on non-collection {other:?}"))),
            }
        }
        Expr::Forall(x, s, body) | Expr::Exists(x, s, body) => {
            let el = elem_ty(ctx, s)?;
            with_binding(ctx, x, el, |ctx| expect(ctx, body, &Ty::Bool))?;
            Ok(Ty::Bool)
        }
        Expr::Filter(x, s, body) => {
            let el = elem_ty(ctx, s)?;
            with_binding(ctx, x, el.clone(), |ctx| expect(ctx, body, &Ty::Bool))?;
            Ok(Ty::Set(Box::new(el)))
        }
        Expr::MapImage(x, s, body) => {
            let el = elem_ty(ctx, s)?;
            let out = with_binding(ctx, x, el, |ctx| infer(ctx, body))?;
            Ok(Ty::Set(Box::new(out)))
        }
    }
}

fn elem_ty(ctx: &Ctx<'_>, coll: &Expr) -> Result<Ty, TypeError> {
    match infer(ctx, coll)? {
        Ty::Set(el) | Ty::Bag(el) | Ty::Seq(el) => Ok(*el),
        Ty::Unknown => Ok(Ty::Unknown),
        other => Err(ctx.err(format!("expected a collection, found {other:?}"))),
    }
}

fn with_binding<R>(
    ctx: &Ctx<'_>,
    name: &str,
    ty: Ty,
    f: impl FnOnce(&Ctx<'_>) -> Result<R, TypeError>,
) -> Result<R, TypeError> {
    let mut inner = Ctx {
        action: ctx.action,
        bound: ctx.bound.clone(),
    };
    inner.bound.push((name.to_owned(), ty));
    f(&inner)
}
