//! Seeded, size-bounded generation of well-typed DSL programs.
//!
//! Every construction site is **sort-directed**: an expression is generated
//! *for* a target sort out of variables of that sort and constructors that
//! produce it, statement targets are drawn from variables of the sort the
//! statement needs, and `async`/`call` arguments follow the callee's
//! declared signature. Combined with the structural rules below, a
//! generated [`ProgramSpec`] always passes `inseq_lang`'s typechecker — the
//! generator never needs a discard-and-retry loop (a debug assertion in
//! [`generate`] enforces this).
//!
//! Two structural rules keep every generated program's state space finite:
//!
//! * **Spawn DAG** — the action at position `i` may `async` only actions at
//!   positions `j < i` (the entry action sits last), so each pending async
//!   creates strictly "smaller" work and the total number of steps in any
//!   run is bounded.
//! * **Calls reach only leaves** — `call` targets must have bodies free of
//!   `async`/`call`, bounding atomic-step inlining to one level.
//!
//! Partial operations that can fail at runtime for reasons other than an
//! `assert` gate (`div`/`mod`, `unwrap`, `min`/`max` of possibly-empty
//! collections) are never emitted: backends must agree on *failure reasons*
//! verbatim, and keeping failures to assertion gates makes disagreement
//! triage unambiguous.

use inseq_kernel::{Multiset, Value};
use inseq_lang::build as e;
use inseq_lang::{Expr, Sort};
use rand::{rngs::StdRng, seq::SliceRandom, Rng};

use inseq_lang::spec::{ActionSpec, ProgramSpec, SpecStmt};

/// Size bounds for generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of actions, entry action included (min 1).
    pub max_actions: usize,
    /// Maximum statements per action body (top level).
    pub max_stmts: usize,
    /// Maximum number of global variables (min 1).
    pub max_globals: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_actions: 4,
            max_stmts: 5,
            max_globals: 4,
        }
    }
}

/// The sorts global variables are drawn from. Collections are over `Int` so
/// that every collection global can serve as a channel, a choose domain, or
/// a quantification range without sort plumbing.
pub(crate) fn global_sort(rng: &mut StdRng) -> Sort {
    match rng.gen_range(0..8) {
        0 | 1 => Sort::Int, // ints twice as likely: arithmetic is the hot path
        2 => Sort::Bool,
        3 => Sort::set(Sort::Int),
        4 => Sort::bag(Sort::Int),
        5 => Sort::seq(Sort::Int),
        6 => Sort::map(Sort::Int, Sort::Int),
        _ => Sort::opt(Sort::Int),
    }
}

fn small_int(rng: &mut StdRng) -> i64 {
    rng.gen_range(0..6) as i64 - 2
}

pub(crate) fn random_value(rng: &mut StdRng, sort: &Sort) -> Value {
    match sort {
        Sort::Unit => Value::Unit,
        Sort::Bool => Value::Bool(rng.gen_bool(0.5)),
        Sort::Int => Value::Int(small_int(rng)),
        Sort::Opt(inner) => {
            if rng.gen_bool(0.5) {
                Value::some(random_value(rng, inner))
            } else {
                Value::none()
            }
        }
        Sort::Tuple(ss) => Value::Tuple(ss.iter().map(|s| random_value(rng, s)).collect()),
        Sort::Set(inner) => Value::Set(
            (0..rng.gen_range(0..3))
                .map(|_| random_value(rng, inner))
                .collect(),
        ),
        Sort::Bag(inner) => {
            let mut bag = Multiset::new();
            for _ in 0..rng.gen_range(0..3) {
                bag.insert_n(random_value(rng, inner), rng.gen_range(1..3));
            }
            Value::Bag(bag)
        }
        Sort::Seq(inner) => Value::Seq(
            (0..rng.gen_range(0..3))
                .map(|_| random_value(rng, inner))
                .collect(),
        ),
        Sort::Map(key, value) => {
            let mut map = inseq_kernel::Map::new(random_value(rng, value));
            for _ in 0..rng.gen_range(0..3) {
                map.set_in_place(random_value(rng, key), random_value(rng, value));
            }
            Value::Map(map)
        }
    }
}

/// The variables visible inside one action body.
struct Scope {
    /// `(name, sort, assignable)`: params are readable but never assigned.
    vars: Vec<(String, Sort, bool)>,
}

impl Scope {
    fn of_sort(&self, sort: &Sort) -> Vec<&str> {
        self.vars
            .iter()
            .filter(|(_, s, _)| s == sort)
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    fn assignable_of_sort(&self, sort: &Sort) -> Vec<&str> {
        self.vars
            .iter()
            .filter(|(_, s, a)| *a && s == sort)
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    fn channels(&self) -> Vec<(&str, bool)> {
        // (name, is_seq); both Bag<Int> and Seq<Int> carry Int messages.
        self.vars
            .iter()
            .filter_map(|(n, s, _)| match s {
                Sort::Bag(inner) if **inner == Sort::Int => Some((n.as_str(), false)),
                Sort::Seq(inner) if **inner == Sort::Int => Some((n.as_str(), true)),
                _ => None,
            })
            .collect()
    }
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> Option<&'a str> {
    items.choose(rng).copied()
}

// ---------------------------------------------------------------------------
// Sort-directed expression generation
// ---------------------------------------------------------------------------

fn gen_int(rng: &mut StdRng, scope: &Scope, depth: usize) -> Expr {
    let vars = scope.of_sort(&Sort::Int);
    if depth == 0 {
        return match pick(rng, &vars) {
            // Biased toward `var + const`: runtime additions with a variable
            // operand are exactly what the VM fault-injection hook perturbs,
            // so the generator keeps that surface large.
            Some(v) if rng.gen_bool(0.6) => e::add(e::var(v), e::int(small_int(rng))),
            Some(v) => e::var(v),
            None => e::int(small_int(rng)),
        };
    }
    match rng.gen_range(0..10) {
        0 | 1 => e::int(small_int(rng)),
        2 | 3 => match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => e::int(small_int(rng)),
        },
        4 | 5 => e::add(
            gen_int(rng, scope, depth - 1),
            gen_int(rng, scope, depth - 1),
        ),
        6 => e::sub(
            gen_int(rng, scope, depth - 1),
            gen_int(rng, scope, depth - 1),
        ),
        7 => e::mul(e::int(small_int(rng)), gen_int(rng, scope, depth - 1)),
        8 => e::ite(
            gen_bool(rng, scope, depth - 1),
            gen_int(rng, scope, depth - 1),
            gen_int(rng, scope, depth - 1),
        ),
        _ => {
            let sets = scope.of_sort(&Sort::set(Sort::Int));
            let bags = scope.of_sort(&Sort::bag(Sort::Int));
            match (pick(rng, &sets), pick(rng, &bags)) {
                (Some(v), _) if rng.gen_bool(0.5) => e::size(e::var(v)),
                (_, Some(v)) => e::count(e::var(v), gen_int(rng, scope, depth - 1)),
                (Some(v), None) => e::sum_of(e::var(v)),
                (None, None) => e::size(e::range(e::int(0), gen_int(rng, scope, depth - 1))),
            }
        }
    }
}

fn gen_bool(rng: &mut StdRng, scope: &Scope, depth: usize) -> Expr {
    let vars = scope.of_sort(&Sort::Bool);
    if depth == 0 {
        return match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => e::boolean(rng.gen_bool(0.5)),
        };
    }
    match rng.gen_range(0..10) {
        0 => e::boolean(rng.gen_bool(0.7)),
        1 => match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => e::boolean(true),
        },
        2..=4 => {
            let a = gen_int(rng, scope, depth - 1);
            let b = gen_int(rng, scope, depth - 1);
            match rng.gen_range(0..6) {
                0 => e::lt(a, b),
                1 => e::le(a, b),
                2 => e::gt(a, b),
                3 => e::ge(a, b),
                4 => e::eq(a, b),
                _ => e::ne(a, b),
            }
        }
        5 => e::not(gen_bool(rng, scope, depth - 1)),
        6 => e::and(
            gen_bool(rng, scope, depth - 1),
            gen_bool(rng, scope, depth - 1),
        ),
        7 => e::or(
            gen_bool(rng, scope, depth - 1),
            gen_bool(rng, scope, depth - 1),
        ),
        8 => {
            let colls: Vec<&str> = scope
                .vars
                .iter()
                .filter_map(|(n, s, _)| match s {
                    Sort::Set(i) | Sort::Bag(i) | Sort::Seq(i) if **i == Sort::Int => {
                        Some(n.as_str())
                    }
                    _ => None,
                })
                .collect();
            match pick(rng, &colls) {
                Some(v) => e::contains(e::var(v), gen_int(rng, scope, depth - 1)),
                None => e::contains(
                    e::range(e::int(0), e::int(2)),
                    gen_int(rng, scope, depth - 1),
                ),
            }
        }
        _ => {
            // Bounded quantifier over a small, always-finite domain.
            let domain = match pick(rng, &scope.of_sort(&Sort::set(Sort::Int))) {
                Some(v) if rng.gen_bool(0.5) => e::var(v),
                _ => e::range(e::int(0), e::int(2)),
            };
            let mut inner = Scope {
                vars: scope.vars.clone(),
            };
            inner.vars.push(("q".into(), Sort::Int, false));
            let body = gen_bool(rng, &inner, depth - 1);
            if rng.gen_bool(0.5) {
                e::forall("q", domain, body)
            } else {
                e::exists("q", domain, body)
            }
        }
    }
}

fn gen_int_collection(rng: &mut StdRng, scope: &Scope, sort: &Sort, depth: usize) -> Expr {
    let vars = scope.of_sort(sort);
    let base = |rng: &mut StdRng| match sort {
        Sort::Set(_) => e::range(e::int(0), e::int(rng.gen_range(0..3) as i64)),
        Sort::Bag(_) => Expr::Const(Value::empty_bag()),
        _ => Expr::Const(Value::empty_seq()),
    };
    if depth == 0 {
        return match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => base(rng),
        };
    }
    match rng.gen_range(0..6) {
        0 | 1 => match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => base(rng),
        },
        2 | 3 => e::with_elem(
            gen_int_collection(rng, scope, sort, depth - 1),
            gen_int(rng, scope, depth - 1),
        ),
        4 if !matches!(sort, Sort::Seq(_)) => e::union(
            gen_int_collection(rng, scope, sort, depth - 1),
            gen_int_collection(rng, scope, sort, 0),
        ),
        _ if matches!(sort, Sort::Set(_)) => {
            let mut inner = Scope {
                vars: scope.vars.clone(),
            };
            inner.vars.push(("q".into(), Sort::Int, false));
            let body = gen_bool(rng, &inner, depth - 1);
            e::filter("q", gen_int_collection(rng, scope, sort, 0), body)
        }
        _ => match pick(rng, &vars) {
            Some(v) => e::var(v),
            None => base(rng),
        },
    }
}

fn gen_expr(rng: &mut StdRng, scope: &Scope, sort: &Sort, depth: usize) -> Expr {
    match sort {
        Sort::Int => gen_int(rng, scope, depth),
        Sort::Bool => gen_bool(rng, scope, depth),
        Sort::Set(i) | Sort::Bag(i) | Sort::Seq(i) if **i == Sort::Int => {
            gen_int_collection(rng, scope, sort, depth)
        }
        Sort::Opt(i) if **i == Sort::Int => match pick(rng, &scope.of_sort(sort)) {
            Some(v) if rng.gen_bool(0.5) => e::var(v),
            _ if rng.gen_bool(0.5) => e::some(gen_int(rng, scope, depth.saturating_sub(1))),
            _ => e::none(),
        },
        Sort::Map(k, v) if **k == Sort::Int && **v == Sort::Int => {
            match pick(rng, &scope.of_sort(sort)) {
                Some(var) if rng.gen_bool(0.7) => e::var(var),
                Some(var) => e::set_at(
                    e::var(var),
                    gen_int(rng, scope, 0),
                    gen_int(rng, scope, depth.saturating_sub(1)),
                ),
                None => Expr::Const(Value::const_map(Value::Int(0))),
            }
        }
        // Sorts outside the generator's global pool: fall back to a literal.
        other => Expr::Const(other.default_value()),
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct ActionCtx<'a> {
    /// Earlier actions this one may `async` (spawn-DAG rule).
    spawnable: &'a [ActionSpec],
    /// Earlier *leaf* actions this one may `call`.
    callable: &'a [usize],
}

fn gen_assign(rng: &mut StdRng, scope: &Scope) -> SpecStmt {
    // Pick an assignable variable, biased toward Int (the arithmetic path).
    let int_targets = scope.assignable_of_sort(&Sort::Int);
    let all_targets: Vec<(String, Sort)> = scope
        .vars
        .iter()
        .filter(|(_, _, a)| *a)
        .map(|(n, s, _)| (n.clone(), s.clone()))
        .collect();
    if !int_targets.is_empty() && rng.gen_bool(0.6) {
        let target = int_targets[rng.gen_range(0..int_targets.len())].to_owned();
        return SpecStmt::Assign(target, gen_int(rng, scope, 2));
    }
    let (name, sort) = all_targets[rng.gen_range(0..all_targets.len())].clone();
    SpecStmt::Assign(name.clone(), gen_expr(rng, scope, &sort, 2))
}

fn gen_simple_stmt(rng: &mut StdRng, scope: &Scope) -> SpecStmt {
    let channels = scope.channels();
    match rng.gen_range(0..10) {
        0..=3 => gen_assign(rng, scope),
        4 | 5 if !channels.is_empty() => {
            let (chan, _) = channels[rng.gen_range(0..channels.len())];
            SpecStmt::Send {
                chan: chan.to_owned(),
                key: None,
                msg: gen_int(rng, scope, 1),
            }
        }
        6 if !channels.is_empty() => {
            let (chan, _) = channels[rng.gen_range(0..channels.len())];
            SpecStmt::Recv {
                var: "t0".into(),
                chan: chan.to_owned(),
                key: None,
            }
        }
        7 => SpecStmt::Assume(gen_bool(rng, scope, 1)),
        _ => gen_assign(rng, scope),
    }
}

fn gen_stmt(rng: &mut StdRng, scope: &Scope, ctx: &ActionCtx<'_>, depth: usize) -> SpecStmt {
    if depth >= 2 {
        return gen_simple_stmt(rng, scope);
    }
    let channels = scope.channels();
    let maps = scope.of_sort(&Sort::map(Sort::Int, Sort::Int));
    match rng.gen_range(0..20) {
        0..=4 => gen_assign(rng, scope),
        5 | 6 => SpecStmt::If(
            gen_bool(rng, scope, 2),
            (0..rng.gen_range(1..3))
                .map(|_| gen_stmt(rng, scope, ctx, depth + 1))
                .collect(),
            (0..rng.gen_range(0..2))
                .map(|_| gen_stmt(rng, scope, ctx, depth + 1))
                .collect(),
        ),
        7 => SpecStmt::ForRange(
            "t0".into(),
            e::int(0),
            e::int(rng.gen_range(0..3) as i64),
            (0..rng.gen_range(1..3))
                .map(|_| gen_simple_stmt(rng, scope))
                .collect(),
        ),
        8 | 9 => SpecStmt::Choose(
            "t0".into(),
            if rng.gen_bool(0.5) {
                gen_int_collection(rng, scope, &Sort::set(Sort::Int), 1)
            } else {
                gen_int_collection(rng, scope, &Sort::bag(Sort::Int), 1)
            },
        ),
        10 => SpecStmt::Assume(gen_bool(rng, scope, 2)),
        11 => SpecStmt::Assert(
            // Mostly-true assertions: a sprinkle of genuine gate failures
            // without drowning every run in failing configurations.
            if rng.gen_bool(0.8) {
                e::or(gen_bool(rng, scope, 2), e::boolean(true))
            } else {
                gen_bool(rng, scope, 2)
            },
            "fuzz-assert".into(),
        ),
        12 | 13 if !channels.is_empty() => {
            let (chan, _) = channels[rng.gen_range(0..channels.len())];
            SpecStmt::Send {
                chan: chan.to_owned(),
                key: None,
                msg: gen_int(rng, scope, 2),
            }
        }
        14 if !channels.is_empty() => {
            let (chan, _) = channels[rng.gen_range(0..channels.len())];
            SpecStmt::Recv {
                var: "t0".into(),
                chan: chan.to_owned(),
                key: None,
            }
        }
        15 if !maps.is_empty() => {
            let m = maps[rng.gen_range(0..maps.len())].to_owned();
            SpecStmt::AssignAt(m, gen_int(rng, scope, 1), gen_int(rng, scope, 2))
        }
        16 | 17 if !ctx.spawnable.is_empty() => {
            let target = &ctx.spawnable[rng.gen_range(0..ctx.spawnable.len())];
            SpecStmt::Async {
                callee: target.name.clone(),
                args: target
                    .params
                    .iter()
                    .map(|(_, s)| gen_expr(rng, scope, s, 1))
                    .collect(),
            }
        }
        18 if !ctx.callable.is_empty() => {
            let idx = ctx.callable[rng.gen_range(0..ctx.callable.len())];
            let target = &ctx.spawnable[idx];
            SpecStmt::Call {
                callee: target.name.clone(),
                args: target
                    .params
                    .iter()
                    .map(|(_, s)| gen_expr(rng, scope, s, 1))
                    .collect(),
            }
        }
        _ => gen_assign(rng, scope),
    }
}

pub(crate) fn block_is_leaf(block: &[SpecStmt]) -> bool {
    block.iter().all(|s| match s {
        SpecStmt::Async { .. } | SpecStmt::Call { .. } => false,
        SpecStmt::If(_, t, e) => block_is_leaf(t) && block_is_leaf(e),
        SpecStmt::ForRange(_, _, _, body) => block_is_leaf(body),
        _ => true,
    })
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// Generates one well-typed program spec.
///
/// Deterministic per RNG state; the same seed and config always produce the
/// same spec. Every returned spec builds (`spec.build().is_ok()`).
#[must_use]
pub fn generate(rng: &mut StdRng, config: &GenConfig) -> ProgramSpec {
    let n_globals = rng.gen_range(1..config.max_globals.max(1) + 1);
    let globals: Vec<(String, Sort, Value)> = (0..n_globals)
        .map(|i| {
            let sort = global_sort(rng);
            let value = random_value(rng, &sort);
            (format!("g{i}"), sort, value)
        })
        .collect();

    let n_actions = rng.gen_range(1..config.max_actions.max(1) + 1);
    let mut actions: Vec<ActionSpec> = Vec::with_capacity(n_actions);
    let mut leaf_indexes: Vec<usize> = Vec::new();

    for i in 0..n_actions {
        let is_main = i == n_actions - 1;
        let name = if is_main {
            "Main".to_owned()
        } else {
            format!("A{i}")
        };
        let params: Vec<(String, Sort)> = if is_main {
            Vec::new()
        } else {
            (0..rng.gen_range(0..3))
                .map(|p| (format!("p{p}"), Sort::Int))
                .collect()
        };
        let mut locals: Vec<(String, Sort)> = vec![("t0".into(), Sort::Int)];
        if rng.gen_bool(0.4) {
            locals.push(("t1".into(), Sort::Bool));
        }

        let mut vars: Vec<(String, Sort, bool)> = globals
            .iter()
            .map(|(n, s, _)| (n.clone(), s.clone(), true))
            .collect();
        vars.extend(params.iter().map(|(n, s)| (n.clone(), s.clone(), false)));
        vars.extend(locals.iter().map(|(n, s)| (n.clone(), s.clone(), true)));
        let scope = Scope { vars };

        let ctx = ActionCtx {
            spawnable: &actions,
            callable: &leaf_indexes,
        };
        let body: Vec<SpecStmt> = (0..rng.gen_range(1..config.max_stmts.max(1) + 1))
            .map(|_| gen_stmt(rng, &scope, &ctx, 0))
            .collect();

        if block_is_leaf(&body) {
            leaf_indexes.push(i);
        }
        actions.push(ActionSpec {
            name,
            params,
            locals,
            body,
        });
    }

    let spec = ProgramSpec {
        globals,
        actions,
        main: "Main".into(),
        pending: vec![("Main".into(), Vec::new())],
    };
    debug_assert!(
        spec.build().is_ok(),
        "generator emitted an ill-typed spec: {:?}",
        spec.build().err()
    );
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_generated_spec_typechecks_by_construction() {
        let config = GenConfig::default();
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = generate(&mut rng, &config);
            spec.build()
                .unwrap_or_else(|e| panic!("seed {seed}: generated spec fails to build: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GenConfig::default();
        let text_a = {
            let mut rng = StdRng::seed_from_u64(42);
            inseq_lang::serial::write_spec(&generate(&mut rng, &config))
        };
        let text_b = {
            let mut rng = StdRng::seed_from_u64(42);
            inseq_lang::serial::write_spec(&generate(&mut rng, &config))
        };
        assert_eq!(text_a, text_b);
    }

    #[test]
    fn specs_round_trip_through_the_corpus_format() {
        let config = GenConfig::default();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = generate(&mut rng, &config);
            let text = inseq_lang::serial::write_spec(&spec);
            let reparsed = inseq_lang::serial::parse_spec(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}"));
            assert_eq!(
                text,
                inseq_lang::serial::write_spec(&reparsed),
                "seed {seed}"
            );
            reparsed.build().expect("round-tripped spec builds");
        }
    }
}
