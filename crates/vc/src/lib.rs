//! A declarative *configuration logic* — the assertion language for flat
//! inductive invariants.
//!
//! The paper's baseline comparison (§5.2 "Invariant complexity") pits IS
//! proof artifacts against classical "asynchrony-aware" inductive
//! invariants, like invariant (2) for the broadcast consensus protocol or
//! the Ivy invariants for Paxos. Such invariants constrain whole
//! *configurations* `(g, Ω)`: they quantify over the global store **and**
//! over the multiset of pending asyncs. The action DSL of `inseq-lang`
//! cannot express the latter (gates see only the store — that is exactly
//! why the paper introduces ghost `pendingAsyncs` variables), so this crate
//! provides the missing assertion language:
//!
//! * [`Term`]s evaluate over a configuration — including the atom
//!   [`Term::PendingCount`], the multiplicity of a pending async in `Ω`;
//! * [`Formula`]s are boolean combinations with bounded integer quantifiers;
//! * a [`simplify`] pass performs constant folding (standing in for the
//!   rewriting Boogie performs before SMT); and
//! * [`Formula::eval`] decides a formula on a configuration, which is the
//!   enumerative substitute for an SMT query (see DESIGN.md §2).
//!
//! The `inseq-baseline` crate builds flat-invariant checkers on top.
//!
//! # Example
//!
//! ```
//! use inseq_vc::{Formula, Term};
//! use inseq_kernel::demo::counter_program;
//! use inseq_kernel::Value;
//!
//! // "the counter never exceeds the number of executed Inc tasks":
//! // counter + #pending Inc == 2
//! let f = Formula::eq(
//!     Term::add(Term::global("counter"), Term::pending_count("Inc", vec![])),
//!     Term::konst(Value::Int(2)),
//! );
//! let p = counter_program();
//! let init = p.initial_config(vec![]).unwrap();
//! let exp = inseq_kernel::Explorer::new(&p).explore([init]).unwrap();
//! // Holds in every reachable configuration except the uninitialised one.
//! let holding = exp
//!     .configs()
//!     .filter(|c| f.eval(p.schema(), c).unwrap_or(false))
//!     .count();
//! assert!(holding >= 3);
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::should_implement_trait)] // Term::add/sub are AST constructors, not arithmetic on Term
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use inseq_kernel::{ActionName, Config, GlobalSchema, PendingAsync, Value};

/// An evaluation error: unbound names, sort confusion, partial operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcError(String);

impl fmt::Display for VcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc evaluation error: {}", self.0)
    }
}

impl Error for VcError {}

fn err<T>(msg: impl Into<String>) -> Result<T, VcError> {
    Err(VcError(msg.into()))
}

fn int_of(v: &Value) -> Result<i64, VcError> {
    match v {
        Value::Int(i) => Ok(*i),
        other => err(format!("expected Int, found {other}")),
    }
}

/// A term of the configuration logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A literal value.
    Const(Value),
    /// A quantifier-bound variable.
    Bound(String),
    /// The value of a global variable, by name (resolved via the schema).
    Global(String),
    /// `m[k]` for a total map.
    MapAt(Box<Term>, Box<Term>),
    /// Tuple projection.
    Proj(Box<Term>, usize),
    /// The payload of a `Some`; evaluation fails on `None`.
    Unwrap(Box<Term>),
    /// Integer addition.
    Add(Box<Term>, Box<Term>),
    /// Integer subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Size of a collection.
    SizeOf(Box<Term>),
    /// Multiplicity of an element in a bag.
    CountIn(Box<Term>, Box<Term>),
    /// Tuple construction.
    Tuple(Vec<Term>),
    /// The multiplicity in `Ω` of the pending async `action(args…)` — the
    /// atom that makes this a logic over configurations, not just stores.
    PendingCount(ActionName, Vec<Term>),
    /// Total number of pending asyncs of an action, over all arguments.
    PendingTotal(ActionName),
    /// Number of pending asyncs of an action whose arguments match the
    /// pattern: `Some(t)` positions must equal `t`'s value, `None` positions
    /// are wildcards.
    PendingMatching(ActionName, Vec<Option<Term>>),
}

impl Term {
    /// Literal.
    #[must_use]
    pub fn konst(v: Value) -> Term {
        Term::Const(v)
    }

    /// Integer literal.
    #[must_use]
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// Bound-variable reference.
    #[must_use]
    pub fn bound(name: &str) -> Term {
        Term::Bound(name.to_owned())
    }

    /// Global-variable reference.
    #[must_use]
    pub fn global(name: &str) -> Term {
        Term::Global(name.to_owned())
    }

    /// `m[k]`.
    #[must_use]
    pub fn map_at(m: Term, k: Term) -> Term {
        Term::MapAt(Box::new(m), Box::new(k))
    }

    /// `a + b`.
    #[must_use]
    pub fn add(a: Term, b: Term) -> Term {
        Term::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    #[must_use]
    pub fn sub(a: Term, b: Term) -> Term {
        Term::Sub(Box::new(a), Box::new(b))
    }

    /// `|c|`.
    #[must_use]
    pub fn size_of(c: Term) -> Term {
        Term::SizeOf(Box::new(c))
    }

    /// Multiplicity of `e` in bag `c`.
    #[must_use]
    pub fn count_in(c: Term, e: Term) -> Term {
        Term::CountIn(Box::new(c), Box::new(e))
    }

    /// Tuple construction.
    #[must_use]
    pub fn tuple_of(ts: Vec<Term>) -> Term {
        Term::Tuple(ts)
    }

    /// Multiplicity of `action(args…)` in `Ω`.
    #[must_use]
    pub fn pending_count(action: impl Into<ActionName>, args: Vec<Term>) -> Term {
        Term::PendingCount(action.into(), args)
    }

    /// Total pending asyncs of `action`.
    #[must_use]
    pub fn pending_total(action: impl Into<ActionName>) -> Term {
        Term::PendingTotal(action.into())
    }

    /// Pending asyncs of `action` matching an argument pattern.
    #[must_use]
    pub fn pending_matching(action: impl Into<ActionName>, pattern: Vec<Option<Term>>) -> Term {
        Term::PendingMatching(action.into(), pattern)
    }

    /// Evaluates the term on a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`VcError`] on unbound names or sort mismatches.
    pub fn eval(&self, schema: &GlobalSchema, config: &Config) -> Result<Value, VcError> {
        self.eval_in(schema, config, &[])
    }

    fn eval_in(
        &self,
        schema: &GlobalSchema,
        config: &Config,
        bound: &[(String, Value)],
    ) -> Result<Value, VcError> {
        match self {
            Term::Const(v) => Ok(v.clone()),
            Term::Bound(x) => bound
                .iter()
                .rev()
                .find(|(n, _)| n == x)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| VcError(format!("unbound variable `{x}`"))),
            Term::Global(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| VcError(format!("unknown global `{name}`")))?;
                Ok(config.globals.get(idx).clone())
            }
            Term::MapAt(m, k) => {
                let m = m.eval_in(schema, config, bound)?;
                let k = k.eval_in(schema, config, bound)?;
                match m {
                    Value::Map(m) => Ok(m.get(&k).clone()),
                    other => err(format!("indexing a non-map {other}")),
                }
            }
            Term::Proj(t, i) => match t.eval_in(schema, config, bound)? {
                Value::Tuple(vs) if *i < vs.len() => Ok(vs[*i].clone()),
                other => err(format!("projection .{i} on {other}")),
            },
            Term::Unwrap(t) => match t.eval_in(schema, config, bound)? {
                Value::Opt(Some(v)) => Ok((*v).clone()),
                Value::Opt(None) => err("unwrap of None"),
                other => err(format!("unwrap of non-option {other}")),
            },
            Term::Add(a, b) => Ok(Value::Int(
                int_of(&a.eval_in(schema, config, bound)?)?
                    + int_of(&b.eval_in(schema, config, bound)?)?,
            )),
            Term::Sub(a, b) => Ok(Value::Int(
                int_of(&a.eval_in(schema, config, bound)?)?
                    - int_of(&b.eval_in(schema, config, bound)?)?,
            )),
            Term::SizeOf(t) => {
                let v = t.eval_in(schema, config, bound)?;
                let n = match &v {
                    Value::Set(s) => s.len(),
                    Value::Bag(b) => b.len(),
                    Value::Seq(s) => s.len(),
                    other => return err(format!("size of non-collection {other}")),
                };
                Ok(Value::Int(n as i64))
            }
            Term::Tuple(ts) => Ok(Value::tuple(
                ts.iter()
                    .map(|t| t.eval_in(schema, config, bound))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            Term::CountIn(c, e) => {
                let c = c.eval_in(schema, config, bound)?;
                let e = e.eval_in(schema, config, bound)?;
                match &c {
                    Value::Bag(b) => Ok(Value::Int(b.count(&e) as i64)),
                    other => err(format!("count in non-bag {other}")),
                }
            }
            Term::PendingCount(action, args) => {
                let args = args
                    .iter()
                    .map(|t| t.eval_in(schema, config, bound))
                    .collect::<Result<Vec<_>, _>>()?;
                let pa = PendingAsync::new(action.clone(), args);
                Ok(Value::Int(config.pending.count(&pa) as i64))
            }
            Term::PendingTotal(action) => Ok(Value::Int(
                config
                    .pending
                    .iter()
                    .filter(|pa| &pa.action == action)
                    .count() as i64,
            )),
            Term::PendingMatching(action, pattern) => {
                let wanted: Vec<Option<Value>> = pattern
                    .iter()
                    .map(|p| {
                        p.as_ref()
                            .map(|t| t.eval_in(schema, config, bound))
                            .transpose()
                    })
                    .collect::<Result<_, _>>()?;
                let count = config
                    .pending
                    .iter()
                    .filter(|pa| {
                        &pa.action == action
                            && pa.args.len() == wanted.len()
                            && pa.args.iter().zip(&wanted).all(|(a, w)| match w {
                                Some(v) => a == v,
                                None => true,
                            })
                    })
                    .count();
                Ok(Value::Int(count as i64))
            }
        }
    }
}

/// A formula of the configuration logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// Term equality.
    Eq(Term, Term),
    /// Integer `≤`.
    Le(Term, Term),
    /// `t is Some`.
    IsSome(Term),
    /// Collection membership.
    Contains(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// n-ary conjunction.
    And(Vec<Formula>),
    /// n-ary disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// `∀ x ∈ [lo, hi]. φ` over integers.
    Forall {
        /// Bound variable.
        var: String,
        /// Lower bound (inclusive).
        lo: Term,
        /// Upper bound (inclusive).
        hi: Term,
        /// Body.
        body: Box<Formula>,
    },
    /// `∃ x ∈ [lo, hi]. φ` over integers.
    Exists {
        /// Bound variable.
        var: String,
        /// Lower bound (inclusive).
        lo: Term,
        /// Upper bound (inclusive).
        hi: Term,
        /// Body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// `a == b`.
    #[must_use]
    pub fn eq(a: Term, b: Term) -> Formula {
        Formula::Eq(a, b)
    }

    /// `a ≤ b`.
    #[must_use]
    pub fn le(a: Term, b: Term) -> Formula {
        Formula::Le(a, b)
    }

    /// `!f`.
    #[must_use]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `a ⟹ b`.
    #[must_use]
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `∀ var ∈ [lo, hi]. body`.
    #[must_use]
    pub fn forall(var: &str, lo: Term, hi: Term, body: Formula) -> Formula {
        Formula::Forall {
            var: var.to_owned(),
            lo,
            hi,
            body: Box::new(body),
        }
    }

    /// `∃ var ∈ [lo, hi]. body`.
    #[must_use]
    pub fn exists(var: &str, lo: Term, hi: Term, body: Formula) -> Formula {
        Formula::Exists {
            var: var.to_owned(),
            lo,
            hi,
            body: Box::new(body),
        }
    }

    /// Decides the formula on a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`VcError`] on unbound names or sort mismatches.
    pub fn eval(&self, schema: &GlobalSchema, config: &Config) -> Result<bool, VcError> {
        self.eval_in(schema, config, &mut Vec::new())
    }

    fn eval_in(
        &self,
        schema: &GlobalSchema,
        config: &Config,
        bound: &mut Vec<(String, Value)>,
    ) -> Result<bool, VcError> {
        match self {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Eq(a, b) => {
                Ok(a.eval_in(schema, config, bound)? == b.eval_in(schema, config, bound)?)
            }
            Formula::Le(a, b) => Ok(int_of(&a.eval_in(schema, config, bound)?)?
                <= int_of(&b.eval_in(schema, config, bound)?)?),
            Formula::IsSome(t) => Ok(matches!(
                t.eval_in(schema, config, bound)?,
                Value::Opt(Some(_))
            )),
            Formula::Contains(c, e) => {
                let c = c.eval_in(schema, config, bound)?;
                let e = e.eval_in(schema, config, bound)?;
                match &c {
                    Value::Set(s) => Ok(s.contains(&e)),
                    Value::Bag(b) => Ok(b.contains(&e)),
                    Value::Seq(s) => Ok(s.contains(&e)),
                    other => err(format!("membership in non-collection {other}")),
                }
            }
            Formula::Not(f) => Ok(!f.eval_in(schema, config, bound)?),
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval_in(schema, config, bound)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval_in(schema, config, bound)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(a, b) => {
                Ok(!a.eval_in(schema, config, bound)? || b.eval_in(schema, config, bound)?)
            }
            Formula::Forall { var, lo, hi, body } => {
                let lo = int_of(&lo.eval_in(schema, config, bound)?)?;
                let hi = int_of(&hi.eval_in(schema, config, bound)?)?;
                for i in lo..=hi {
                    bound.push((var.clone(), Value::Int(i)));
                    let ok = body.eval_in(schema, config, bound)?;
                    bound.pop();
                    if !ok {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Exists { var, lo, hi, body } => {
                let lo = int_of(&lo.eval_in(schema, config, bound)?)?;
                let hi = int_of(&hi.eval_in(schema, config, bound)?)?;
                for i in lo..=hi {
                    bound.push((var.clone(), Value::Int(i)));
                    let ok = body.eval_in(schema, config, bound)?;
                    bound.pop();
                    if ok {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// The number of AST nodes — the *invariant complexity* metric reported
    /// by the baseline comparison (§5.2 of the paper counts conjuncts; node
    /// count refines that).
    #[must_use]
    pub fn complexity(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Eq(..) | Formula::Le(..) | Formula::IsSome(_) | Formula::Contains(..) => 1,
            Formula::Not(f) => 1 + f.complexity(),
            Formula::And(fs) | Formula::Or(fs) => {
                1 + fs.iter().map(Formula::complexity).sum::<usize>()
            }
            Formula::Implies(a, b) => 1 + a.complexity() + b.complexity(),
            Formula::Forall { body, .. } | Formula::Exists { body, .. } => 1 + body.complexity(),
        }
    }

    /// The number of top-level conjuncts (after flattening `And`s), the
    /// coarse metric the paper uses when comparing against Ivy.
    #[must_use]
    pub fn conjunct_count(&self) -> usize {
        match self {
            Formula::And(fs) => fs.iter().map(Formula::conjunct_count).sum(),
            _ => 1,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Bound(x) => write!(f, "{x}"),
            Term::Global(g) => write!(f, "{g}"),
            Term::MapAt(m, k) => write!(f, "{m}[{k}]"),
            Term::Proj(t, i) => write!(f, "{t}.{i}"),
            Term::Unwrap(t) => write!(f, "unwrap({t})"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::SizeOf(t) => write!(f, "|{t}|"),
            Term::CountIn(c, e) => write!(f, "count({c}, {e})"),
            Term::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::PendingCount(a, args) => {
                write!(f, "#pending {a}(")?;
                for (i, t) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::PendingTotal(a) => write!(f, "#pending {a}(..)"),
            Term::PendingMatching(a, pat) => {
                write!(f, "#pending {a}(")?;
                for (i, t) in pat.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match t {
                        Some(t) => write!(f, "{t}")?,
                        None => write!(f, "_")?,
                    }
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Eq(a, b) => write!(f, "{a} == {b}"),
            Formula::Le(a, b) => write!(f, "{a} <= {b}"),
            Formula::IsSome(t) => write!(f, "({t} is Some)"),
            Formula::Contains(c, e) => write!(f, "({e} in {c})"),
            Formula::Not(g) => write!(f, "!({g})"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(a, b) => write!(f, "({a} ==> {b})"),
            Formula::Forall { var, lo, hi, body } => {
                write!(f, "(forall {var} in [{lo}, {hi}]. {body})")
            }
            Formula::Exists { var, lo, hi, body } => {
                write!(f, "(exists {var} in [{lo}, {hi}]. {body})")
            }
        }
    }
}

/// Constant folding and flattening — the rewriting pass Boogie would apply
/// before handing a VC to the solver.
#[must_use]
pub fn simplify(f: Formula) -> Formula {
    match f {
        Formula::Not(inner) => match simplify(*inner) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(g) => *g,
            g => Formula::Not(Box::new(g)),
        },
        Formula::And(fs) => {
            let mut out = Vec::new();
            for g in fs.into_iter().map(simplify) {
                match g {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    Formula::And(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Formula::True,
                1 => out.pop().expect("len checked"),
                _ => Formula::And(out),
            }
        }
        Formula::Or(fs) => {
            let mut out = Vec::new();
            for g in fs.into_iter().map(simplify) {
                match g {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Formula::False,
                1 => out.pop().expect("len checked"),
                _ => Formula::Or(out),
            }
        }
        Formula::Implies(a, b) => {
            let a = simplify(*a);
            let b = simplify(*b);
            match (a, b) {
                (Formula::True, b) => b,
                (Formula::False, _) => Formula::True,
                (_, Formula::True) => Formula::True,
                (a, Formula::False) => simplify(Formula::Not(Box::new(a))),
                (a, b) => Formula::Implies(Box::new(a), Box::new(b)),
            }
        }
        Formula::Forall { var, lo, hi, body } => Formula::Forall {
            var,
            lo,
            hi,
            body: Box::new(simplify(*body)),
        },
        Formula::Exists { var, lo, hi, body } => Formula::Exists {
            var,
            lo,
            hi,
            body: Box::new(simplify(*body)),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::counter_program;
    use inseq_kernel::{Explorer, Multiset};

    fn demo_config() -> (std::sync::Arc<GlobalSchema>, Config) {
        let p = counter_program();
        let schema = p.schema().clone();
        let mut pending = Multiset::new();
        pending.insert(PendingAsync::new("Inc", vec![]));
        pending.insert(PendingAsync::new("Inc", vec![]));
        let config = Config::new(inseq_kernel::GlobalStore::new(vec![Value::Int(0)]), pending);
        (schema, config)
    }

    #[test]
    fn pending_count_atom() {
        let (schema, config) = demo_config();
        let t = Term::pending_count("Inc", vec![]);
        assert_eq!(t.eval(&schema, &config).unwrap(), Value::Int(2));
        let t = Term::pending_total("Inc");
        assert_eq!(t.eval(&schema, &config).unwrap(), Value::Int(2));
        let t = Term::pending_count("Dec", vec![]);
        assert_eq!(t.eval(&schema, &config).unwrap(), Value::Int(0));
    }

    #[test]
    fn arithmetic_and_globals() {
        let (schema, config) = demo_config();
        let f = Formula::eq(
            Term::add(Term::global("counter"), Term::int(2)),
            Term::int(2),
        );
        assert!(f.eval(&schema, &config).unwrap());
        assert!(Term::global("nope").eval(&schema, &config).is_err());
    }

    #[test]
    fn quantifiers_over_ranges() {
        let (schema, config) = demo_config();
        let f = Formula::forall(
            "i",
            Term::int(1),
            Term::int(3),
            Formula::le(Term::int(1), Term::bound("i")),
        );
        assert!(f.eval(&schema, &config).unwrap());
        let f = Formula::exists(
            "i",
            Term::int(1),
            Term::int(3),
            Formula::eq(Term::bound("i"), Term::int(4)),
        );
        assert!(!f.eval(&schema, &config).unwrap());
    }

    #[test]
    fn invariant_style_formula_holds_on_reachable_configs() {
        // counter + #Inc pending == 2, once Main has executed.
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let f = Formula::Or(vec![
            Formula::eq(Term::pending_total("Main"), Term::int(1)),
            Formula::eq(
                Term::add(Term::global("counter"), Term::pending_total("Inc")),
                Term::int(2),
            ),
        ]);
        for c in exp.configs() {
            assert!(f.eval(p.schema(), &c).unwrap(), "violated at {c}");
        }
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::And(vec![
            Formula::True,
            Formula::Or(vec![
                Formula::False,
                Formula::eq(Term::int(1), Term::int(1)),
            ]),
        ]);
        assert_eq!(simplify(f), Formula::eq(Term::int(1), Term::int(1)));
        assert_eq!(
            simplify(Formula::Implies(
                Box::new(Formula::False),
                Box::new(Formula::False)
            )),
            Formula::True
        );
        assert_eq!(
            simplify(Formula::Not(Box::new(Formula::Not(Box::new(
                Formula::True
            ))))),
            Formula::True
        );
    }

    #[test]
    fn complexity_metrics() {
        let f = Formula::And(vec![
            Formula::eq(Term::int(1), Term::int(1)),
            Formula::forall("i", Term::int(1), Term::int(2), Formula::True),
        ]);
        assert_eq!(f.conjunct_count(), 2);
        assert!(f.complexity() >= 3);
    }

    #[test]
    fn display_renders_readably() {
        let f = Formula::forall(
            "i",
            Term::int(1),
            Term::global("n"),
            Formula::eq(
                Term::pending_count("A", vec![Term::bound("i")]),
                Term::int(1),
            ),
        );
        assert_eq!(f.to_string(), "(forall i in [1, n]. #pending A(i) == 1)");
    }

    #[test]
    fn short_circuit_avoids_errors() {
        let (schema, config) = demo_config();
        // unwrap(None) is never evaluated because the disjunction
        // short-circuits.
        let f = Formula::Or(vec![
            Formula::True,
            Formula::eq(
                Term::Unwrap(Box::new(Term::konst(Value::none()))),
                Term::int(1),
            ),
        ]);
        assert!(f.eval(&schema, &config).unwrap());
    }
}
