//! Textual s-expression format for [`ProgramSpec`]s.
//!
//! A spec serializes to a single S-expression, human-diffable and stable
//! under `git`: sorts, values, expressions, and statements each have one
//! canonical head symbol, names and messages are quoted strings, and `;`
//! starts a comment running to end of line (used for the seed/oracle header
//! the fuzz binary writes above a minimized repro). The format covers the
//! *entire* statement and expression language — not just what the fuzz
//! generator emits — so hand-written Table-1 protocol actions export through
//! it too, and the verification daemon (`inseq-serve`) reuses it verbatim as
//! its wire encoding for submitted programs.
//!
//! Because [`write_spec`] is canonical (one fixed rendering per spec, and
//! parse∘write is the identity on canonical text), its output doubles as the
//! *content address* of a program: [`canonical_hash`] and [`action_hash`]
//! hash the canonical text, and [`diff_specs`] compares two specs
//! section-by-section to report exactly which actions changed — the inputs
//! the daemon's incremental re-verification needs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use inseq_kernel::hash::fx_hash;
use inseq_kernel::{Multiset, Value};

use crate::expr::{BinOp, Expr};
use crate::sort::Sort;
use crate::spec::{ActionSpec, ProgramSpec, SpecStmt};

/// A parse failure with a byte offset into the input.
#[derive(Debug)]
pub struct ParseError {
    /// Byte offset where the problem was noticed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// S-expression core
// ---------------------------------------------------------------------------

/// A parsed S-expression node.
///
/// Public so protocol layers (the daemon's request envelope) can parse one
/// line, inspect its shape, and hand embedded `(spec ..)` subtrees to
/// [`spec_of_sexp`] without re-implementing the tokenizer.
#[derive(Debug, Clone, PartialEq)]
pub enum SExp {
    /// An unquoted symbol or number.
    Atom(String),
    /// A quoted string literal.
    Str(String),
    /// A parenthesized list.
    List(Vec<SExp>),
}

impl SExp {
    fn atom(s: &str) -> SExp {
        SExp::Atom(s.to_owned())
    }

    fn list(items: Vec<SExp>) -> SExp {
        SExp::List(items)
    }

    /// The leading atom of a list, if any — the node's "head symbol".
    #[must_use]
    pub fn head(&self) -> Option<&str> {
        match self {
            SExp::List(items) => match items.first() {
                Some(SExp::Atom(a)) => Some(a),
                _ => None,
            },
            _ => None,
        }
    }

    /// The elements of a list; empty for atoms and strings.
    #[must_use]
    pub fn items(&self) -> &[SExp] {
        match self {
            SExp::List(items) => items,
            _ => &[],
        }
    }

    /// The string content of a quoted literal, if this is one.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SExp::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The atom text, if this is an atom.
    #[must_use]
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            SExp::Atom(a) => Some(a),
            _ => None,
        }
    }
}

fn write_sexp(out: &mut String, e: &SExp) {
    match e {
        SExp::Atom(a) => out.push_str(a),
        SExp::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        SExp::List(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_sexp(out, item);
            }
            out.push(')');
        }
    }
}

/// Renders one S-expression on a single line (no trailing newline).
#[must_use]
pub fn sexp_to_string(e: &SExp) -> String {
    let mut out = String::new();
    write_sexp(&mut out, e);
    out
}

/// Parses exactly one S-expression from `src` (leading/trailing trivia and
/// `;` comments allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse_sexp(src: &str) -> Result<SExp, ParseError> {
    let mut p = Parser::new(src);
    let e = p.parse()?;
    p.skip_trivia();
    if p.pos < p.src.len() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b';' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn parse(&mut self) -> Result<SExp, ParseError> {
        self.skip_trivia();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    match self.src.get(self.pos) {
                        None => return Err(self.err("unclosed list")),
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(SExp::List(items));
                        }
                        _ => items.push(self.parse()?),
                    }
                }
            }
            Some(b')') => Err(self.err("unexpected `)`")),
            Some(b'"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.src.get(self.pos) {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(SExp::Str(s));
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.src.get(self.pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                _ => return Err(self.err("bad escape")),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // Strings are UTF-8; copy the full code point.
                            let rest = &self.src[self.pos..];
                            let text = std::str::from_utf8(rest)
                                .map_err(|_| self.err("invalid UTF-8 in string"))?;
                            let c = text.chars().next().expect("non-empty by construction");
                            s.push(c);
                            self.pos += c.len_utf8();
                        }
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')' | b'"' | b';' => break,
                        _ => self.pos += 1,
                    }
                }
                let atom = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in atom"))?;
                Ok(SExp::Atom(atom.to_owned()))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn sort_sexp(s: &Sort) -> SExp {
    match s {
        Sort::Unit => SExp::atom("unit"),
        Sort::Bool => SExp::atom("bool"),
        Sort::Int => SExp::atom("int"),
        Sort::Opt(i) => SExp::list(vec![SExp::atom("opt"), sort_sexp(i)]),
        Sort::Tuple(ss) => {
            let mut items = vec![SExp::atom("tuple")];
            items.extend(ss.iter().map(sort_sexp));
            SExp::list(items)
        }
        Sort::Set(i) => SExp::list(vec![SExp::atom("set"), sort_sexp(i)]),
        Sort::Bag(i) => SExp::list(vec![SExp::atom("bag"), sort_sexp(i)]),
        Sort::Seq(i) => SExp::list(vec![SExp::atom("seq"), sort_sexp(i)]),
        Sort::Map(k, v) => SExp::list(vec![SExp::atom("map"), sort_sexp(k), sort_sexp(v)]),
    }
}

fn value_sexp(v: &Value) -> SExp {
    match v {
        Value::Unit => SExp::atom("unit"),
        Value::Bool(b) => SExp::list(vec![
            SExp::atom("b"),
            SExp::atom(if *b { "t" } else { "f" }),
        ]),
        Value::Int(n) => SExp::list(vec![SExp::atom("i"), SExp::Atom(n.to_string())]),
        Value::Opt(None) => SExp::list(vec![SExp::atom("none")]),
        Value::Opt(Some(inner)) => SExp::list(vec![SExp::atom("some"), value_sexp(inner)]),
        Value::Tuple(vs) => {
            let mut items = vec![SExp::atom("tup")];
            items.extend(vs.iter().map(value_sexp));
            SExp::list(items)
        }
        Value::Set(s) => {
            let mut items = vec![SExp::atom("vset")];
            items.extend(s.iter().map(value_sexp));
            SExp::list(items)
        }
        Value::Bag(b) => {
            let mut items = vec![SExp::atom("vbag")];
            for (elem, n) in b.iter_counts() {
                items.push(SExp::list(vec![
                    value_sexp(elem),
                    SExp::Atom(n.to_string()),
                ]));
            }
            SExp::list(items)
        }
        Value::Seq(s) => {
            let mut items = vec![SExp::atom("vseq")];
            items.extend(s.iter().map(value_sexp));
            SExp::list(items)
        }
        Value::Map(m) => {
            let mut items = vec![SExp::atom("vmap"), value_sexp(m.default_value())];
            for (k, v) in m.iter() {
                items.push(SExp::list(vec![value_sexp(k), value_sexp(v)]));
            }
            SExp::list(items)
        }
    }
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Implies => "implies",
    }
}

fn binop_of(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "mod" => BinOp::Mod,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "implies" => BinOp::Implies,
        _ => return None,
    })
}

fn expr_sexp(e: &Expr) -> SExp {
    let head = |h: &str, rest: Vec<SExp>| {
        let mut items = vec![SExp::atom(h)];
        items.extend(rest);
        SExp::list(items)
    };
    match e {
        Expr::Const(v) => head("const", vec![value_sexp(v)]),
        Expr::Var(x) => head("var", vec![SExp::Str(x.clone())]),
        Expr::Neg(a) => head("neg", vec![expr_sexp(a)]),
        Expr::Not(a) => head("not", vec![expr_sexp(a)]),
        Expr::Bin(op, a, b) => head(
            "bin",
            vec![SExp::atom(binop_name(*op)), expr_sexp(a), expr_sexp(b)],
        ),
        Expr::Ite(c, t, f) => head("ite", vec![expr_sexp(c), expr_sexp(t), expr_sexp(f)]),
        Expr::SomeOf(a) => head("some-of", vec![expr_sexp(a)]),
        Expr::IsSome(a) => head("is-some", vec![expr_sexp(a)]),
        Expr::Unwrap(a) => head("unwrap", vec![expr_sexp(a)]),
        Expr::Tuple(es) => head("tuple", es.iter().map(expr_sexp).collect()),
        Expr::Proj(a, i) => head("proj", vec![expr_sexp(a), SExp::Atom(i.to_string())]),
        Expr::MapGet(m, k) => head("map-get", vec![expr_sexp(m), expr_sexp(k)]),
        Expr::MapSet(m, k, v) => head("map-set", vec![expr_sexp(m), expr_sexp(k), expr_sexp(v)]),
        Expr::SizeOf(a) => head("size", vec![expr_sexp(a)]),
        Expr::Contains(c, a) => head("contains", vec![expr_sexp(c), expr_sexp(a)]),
        Expr::CountOf(c, a) => head("count", vec![expr_sexp(c), expr_sexp(a)]),
        Expr::WithElem(c, a) => head("with", vec![expr_sexp(c), expr_sexp(a)]),
        Expr::WithoutElem(c, a) => head("without", vec![expr_sexp(c), expr_sexp(a)]),
        Expr::UnionOf(a, b) => head("union", vec![expr_sexp(a), expr_sexp(b)]),
        Expr::IncludedIn(a, b) => head("included", vec![expr_sexp(a), expr_sexp(b)]),
        Expr::RangeSet(lo, hi) => head("range", vec![expr_sexp(lo), expr_sexp(hi)]),
        Expr::MinOf(a) => head("min", vec![expr_sexp(a)]),
        Expr::MaxOf(a) => head("max", vec![expr_sexp(a)]),
        Expr::SumOf(a) => head("sum", vec![expr_sexp(a)]),
        Expr::Forall(x, s, b) => head(
            "forall",
            vec![SExp::Str(x.clone()), expr_sexp(s), expr_sexp(b)],
        ),
        Expr::Exists(x, s, b) => head(
            "exists",
            vec![SExp::Str(x.clone()), expr_sexp(s), expr_sexp(b)],
        ),
        Expr::Filter(x, s, b) => head(
            "filter",
            vec![SExp::Str(x.clone()), expr_sexp(s), expr_sexp(b)],
        ),
        Expr::MapImage(x, s, b) => head(
            "image",
            vec![SExp::Str(x.clone()), expr_sexp(s), expr_sexp(b)],
        ),
    }
}

fn key_sexp(key: &Option<Expr>) -> SExp {
    match key {
        None => SExp::atom("nokey"),
        Some(k) => SExp::list(vec![SExp::atom("key"), expr_sexp(k)]),
    }
}

fn stmt_sexp(s: &SpecStmt) -> SExp {
    let head = |h: &str, rest: Vec<SExp>| {
        let mut items = vec![SExp::atom(h)];
        items.extend(rest);
        SExp::list(items)
    };
    let block = |b: &[SpecStmt]| SExp::list(b.iter().map(stmt_sexp).collect());
    match s {
        SpecStmt::Assign(x, e) => head("assign", vec![SExp::Str(x.clone()), expr_sexp(e)]),
        SpecStmt::AssignAt(x, k, v) => head(
            "assign-at",
            vec![SExp::Str(x.clone()), expr_sexp(k), expr_sexp(v)],
        ),
        SpecStmt::Assume(e) => head("assume", vec![expr_sexp(e)]),
        SpecStmt::Assert(e, msg) => head("assert", vec![expr_sexp(e), SExp::Str(msg.clone())]),
        SpecStmt::If(c, t, e) => head("if", vec![expr_sexp(c), block(t), block(e)]),
        SpecStmt::ForRange(x, lo, hi, body) => head(
            "for",
            vec![
                SExp::Str(x.clone()),
                expr_sexp(lo),
                expr_sexp(hi),
                block(body),
            ],
        ),
        SpecStmt::Choose(x, dom) => head("choose", vec![SExp::Str(x.clone()), expr_sexp(dom)]),
        SpecStmt::Send { chan, key, msg } => head(
            "send",
            vec![SExp::Str(chan.clone()), key_sexp(key), expr_sexp(msg)],
        ),
        SpecStmt::Recv { var, chan, key } => head(
            "recv",
            vec![
                SExp::Str(var.clone()),
                SExp::Str(chan.clone()),
                key_sexp(key),
            ],
        ),
        SpecStmt::Async { callee, args } => {
            let mut items = vec![SExp::atom("async"), SExp::Str(callee.clone())];
            items.extend(args.iter().map(expr_sexp));
            SExp::list(items)
        }
        SpecStmt::Call { callee, args } => {
            let mut items = vec![SExp::atom("call"), SExp::Str(callee.clone())];
            items.extend(args.iter().map(expr_sexp));
            SExp::list(items)
        }
        SpecStmt::Skip => SExp::list(vec![SExp::atom("skip")]),
    }
}

fn binding_sexp(bindings: &[(String, Sort)]) -> SExp {
    SExp::list(
        bindings
            .iter()
            .map(|(n, s)| SExp::list(vec![SExp::Str(n.clone()), sort_sexp(s)]))
            .collect(),
    )
}

fn action_sexp(a: &ActionSpec) -> SExp {
    SExp::list(vec![
        SExp::atom("action"),
        SExp::Str(a.name.clone()),
        binding_sexp(&a.params),
        binding_sexp(&a.locals),
        SExp::list(a.body.iter().map(stmt_sexp).collect()),
    ])
}

fn globals_sexp(spec: &ProgramSpec) -> SExp {
    SExp::list(
        std::iter::once(SExp::atom("globals"))
            .chain(spec.globals.iter().map(|(n, s, v)| {
                SExp::list(vec![SExp::Str(n.clone()), sort_sexp(s), value_sexp(v)])
            }))
            .collect(),
    )
}

fn pending_sexp(spec: &ProgramSpec) -> SExp {
    SExp::list(
        std::iter::once(SExp::atom("pending"))
            .chain(spec.pending.iter().map(|(name, args)| {
                let mut items = vec![SExp::Str(name.clone())];
                items.extend(args.iter().map(value_sexp));
                SExp::list(items)
            }))
            .collect(),
    )
}

/// Serializes a spec to its canonical textual form, one action per line.
#[must_use]
pub fn write_spec(spec: &ProgramSpec) -> String {
    let mut out = String::from("(spec\n");
    let mut line = String::new();

    line.push_str("  ");
    write_sexp(&mut line, &globals_sexp(spec));
    let _ = writeln!(out, "{line}");

    line.clear();
    line.push_str("  ");
    let main = SExp::list(vec![SExp::atom("main"), SExp::Str(spec.main.clone())]);
    write_sexp(&mut line, &main);
    let _ = writeln!(out, "{line}");

    line.clear();
    line.push_str("  ");
    write_sexp(&mut line, &pending_sexp(spec));
    let _ = writeln!(out, "{line}");

    for action in &spec.actions {
        line.clear();
        line.push_str("  ");
        write_sexp(&mut line, &action_sexp(action));
        let _ = writeln!(out, "{line}");
    }
    out.push_str(")\n");
    out
}

/// Serializes a spec onto a single line — the same canonical structure as
/// [`write_spec`] without the layout, suitable for the daemon's
/// newline-delimited wire protocol.
#[must_use]
pub fn write_spec_line(spec: &ProgramSpec) -> String {
    let mut items = vec![
        SExp::atom("spec"),
        globals_sexp(spec),
        SExp::list(vec![SExp::atom("main"), SExp::Str(spec.main.clone())]),
        pending_sexp(spec),
    ];
    items.extend(spec.actions.iter().map(action_sexp));
    sexp_to_string(&SExp::List(items))
}

// ---------------------------------------------------------------------------
// Content addressing and diffing
// ---------------------------------------------------------------------------

/// The canonical content hash of a spec: a deterministic, keyless hash of
/// [`write_spec`]'s output. Two specs share a hash exactly when they share
/// their canonical text, which makes this the content address the daemon's
/// result cache is keyed on.
#[must_use]
pub fn canonical_hash(spec: &ProgramSpec) -> u64 {
    fx_hash(&write_spec(spec))
}

/// The canonical content hash of one action (name, signature, and body).
///
/// Per-action hashes feed obligation-level cache keys: an IS proof
/// obligation depends on a specific set of actions, and its key combines
/// exactly their hashes — so editing one action invalidates only the
/// obligations that mention it.
#[must_use]
pub fn action_hash(action: &ActionSpec) -> u64 {
    fx_hash(&sexp_to_string(&action_sexp(action)))
}

/// What changed between two specs, at action granularity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecDiff {
    /// Actions added, removed, or with a different [`action_hash`].
    pub changed_actions: BTreeSet<String>,
    /// Whether the globals section differs (declarations or initial values).
    pub globals_changed: bool,
    /// Whether the entry action name differs.
    pub main_changed: bool,
    /// Whether the initial pending bag differs.
    pub pending_changed: bool,
}

impl SpecDiff {
    /// `true` when the two specs have identical canonical text.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed_actions.is_empty()
            && !self.globals_changed
            && !self.main_changed
            && !self.pending_changed
    }
}

/// Compares two specs section-by-section.
///
/// The action set is compared by [`action_hash`]; an action present in only
/// one spec counts as changed. Globals and the pending bag are compared by
/// canonical text, so reordering declarations registers as a change (slot
/// indices are positional).
#[must_use]
pub fn diff_specs(old: &ProgramSpec, new: &ProgramSpec) -> SpecDiff {
    let hashes = |s: &ProgramSpec| -> BTreeMap<String, u64> {
        s.actions
            .iter()
            .map(|a| (a.name.clone(), action_hash(a)))
            .collect()
    };
    let old_h = hashes(old);
    let new_h = hashes(new);
    let mut changed_actions = BTreeSet::new();
    for (name, h) in &old_h {
        if new_h.get(name) != Some(h) {
            changed_actions.insert(name.clone());
        }
    }
    for name in new_h.keys() {
        if !old_h.contains_key(name) {
            changed_actions.insert(name.clone());
        }
    }
    SpecDiff {
        changed_actions,
        globals_changed: sexp_to_string(&globals_sexp(old)) != sexp_to_string(&globals_sexp(new)),
        main_changed: old.main != new.main,
        pending_changed: sexp_to_string(&pending_sexp(old)) != sexp_to_string(&pending_sexp(new)),
    }
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

fn bad(e: &SExp, what: &str) -> ParseError {
    ParseError {
        at: 0,
        message: format!("expected {what}, found `{e:?}`"),
    }
}

fn as_str(e: &SExp, what: &str) -> Result<String, ParseError> {
    match e {
        SExp::Str(s) => Ok(s.clone()),
        _ => Err(bad(e, what)),
    }
}

fn as_int(e: &SExp, what: &str) -> Result<i64, ParseError> {
    match e {
        SExp::Atom(a) => a.parse().map_err(|_| bad(e, what)),
        _ => Err(bad(e, what)),
    }
}

fn arity<'a>(e: &'a SExp, n: usize, what: &str) -> Result<&'a [SExp], ParseError> {
    let items = e.items();
    if items.len() != n + 1 {
        return Err(bad(e, what));
    }
    Ok(&items[1..])
}

fn parse_sort(e: &SExp) -> Result<Sort, ParseError> {
    match e {
        SExp::Atom(a) => match a.as_str() {
            "unit" => Ok(Sort::Unit),
            "bool" => Ok(Sort::Bool),
            "int" => Ok(Sort::Int),
            _ => Err(bad(e, "sort")),
        },
        SExp::List(_) => match e.head() {
            Some("opt") => Ok(Sort::opt(parse_sort(&arity(e, 1, "opt sort")?[0])?)),
            Some("tuple") => Ok(Sort::Tuple(
                e.items()[1..]
                    .iter()
                    .map(parse_sort)
                    .collect::<Result<_, _>>()?,
            )),
            Some("set") => Ok(Sort::set(parse_sort(&arity(e, 1, "set sort")?[0])?)),
            Some("bag") => Ok(Sort::bag(parse_sort(&arity(e, 1, "bag sort")?[0])?)),
            Some("seq") => Ok(Sort::seq(parse_sort(&arity(e, 1, "seq sort")?[0])?)),
            Some("map") => {
                let rest = arity(e, 2, "map sort")?;
                Ok(Sort::map(parse_sort(&rest[0])?, parse_sort(&rest[1])?))
            }
            _ => Err(bad(e, "sort")),
        },
        SExp::Str(_) => Err(bad(e, "sort")),
    }
}

fn parse_value(e: &SExp) -> Result<Value, ParseError> {
    match e {
        SExp::Atom(a) if a == "unit" => Ok(Value::Unit),
        _ => match e.head() {
            Some("b") => match &arity(e, 1, "bool value")?[0] {
                SExp::Atom(a) if a == "t" => Ok(Value::Bool(true)),
                SExp::Atom(a) if a == "f" => Ok(Value::Bool(false)),
                other => Err(bad(other, "t or f")),
            },
            Some("i") => Ok(Value::Int(as_int(
                &arity(e, 1, "int value")?[0],
                "integer",
            )?)),
            Some("none") => Ok(Value::none()),
            Some("some") => Ok(Value::some(parse_value(&arity(e, 1, "some value")?[0])?)),
            Some("tup") => Ok(Value::tuple(
                e.items()[1..]
                    .iter()
                    .map(parse_value)
                    .collect::<Result<_, _>>()?,
            )),
            Some("vset") => Ok(Value::set(
                e.items()[1..]
                    .iter()
                    .map(parse_value)
                    .collect::<Result<_, _>>()?,
            )),
            Some("vbag") => {
                let mut bag = Multiset::new();
                for entry in &e.items()[1..] {
                    let pair = entry.items();
                    if pair.len() != 2 {
                        return Err(bad(entry, "(value count) bag entry"));
                    }
                    let v = parse_value(&pair[0])?;
                    let n = as_int(&pair[1], "bag count")?;
                    let n = usize::try_from(n).map_err(|_| bad(entry, "non-negative count"))?;
                    bag.insert_n(v, n);
                }
                Ok(Value::bag(bag))
            }
            Some("vseq") => Ok(Value::seq(
                e.items()[1..]
                    .iter()
                    .map(parse_value)
                    .collect::<Result<_, _>>()?,
            )),
            Some("vmap") => {
                let items = e.items();
                if items.len() < 2 {
                    return Err(bad(e, "map value with a default"));
                }
                let default = parse_value(&items[1])?;
                let mut map = inseq_kernel::Map::new(default);
                for entry in &items[2..] {
                    let pair = entry.items();
                    if pair.len() != 2 {
                        return Err(bad(entry, "(key value) map entry"));
                    }
                    map.set_in_place(parse_value(&pair[0])?, parse_value(&pair[1])?);
                }
                Ok(Value::map(map))
            }
            _ => Err(bad(e, "value")),
        },
    }
}

fn parse_expr(e: &SExp) -> Result<Expr, ParseError> {
    let b = |e: &SExp| parse_expr(e).map(Box::new);
    let rest = e.items();
    match e.head() {
        Some("const") => Ok(Expr::Const(parse_value(&arity(e, 1, "const")?[0])?)),
        Some("var") => Ok(Expr::Var(as_str(&arity(e, 1, "var")?[0], "variable name")?)),
        Some("neg") => Ok(Expr::Neg(b(&arity(e, 1, "neg")?[0])?)),
        Some("not") => Ok(Expr::Not(b(&arity(e, 1, "not")?[0])?)),
        Some("bin") => {
            let rest = arity(e, 3, "bin")?;
            let op = match &rest[0] {
                SExp::Atom(a) => {
                    binop_of(a.as_str()).ok_or_else(|| bad(&rest[0], "binary operator"))?
                }
                other => return Err(bad(other, "binary operator")),
            };
            Ok(Expr::Bin(op, b(&rest[1])?, b(&rest[2])?))
        }
        Some("ite") => {
            let rest = arity(e, 3, "ite")?;
            Ok(Expr::Ite(b(&rest[0])?, b(&rest[1])?, b(&rest[2])?))
        }
        Some("some-of") => Ok(Expr::SomeOf(b(&arity(e, 1, "some-of")?[0])?)),
        Some("is-some") => Ok(Expr::IsSome(b(&arity(e, 1, "is-some")?[0])?)),
        Some("unwrap") => Ok(Expr::Unwrap(b(&arity(e, 1, "unwrap")?[0])?)),
        Some("tuple") => Ok(Expr::Tuple(
            rest[1..].iter().map(parse_expr).collect::<Result<_, _>>()?,
        )),
        Some("proj") => {
            let rest = arity(e, 2, "proj")?;
            let i = as_int(&rest[1], "projection index")?;
            let i = usize::try_from(i).map_err(|_| bad(&rest[1], "non-negative index"))?;
            Ok(Expr::Proj(b(&rest[0])?, i))
        }
        Some("map-get") => {
            let rest = arity(e, 2, "map-get")?;
            Ok(Expr::MapGet(b(&rest[0])?, b(&rest[1])?))
        }
        Some("map-set") => {
            let rest = arity(e, 3, "map-set")?;
            Ok(Expr::MapSet(b(&rest[0])?, b(&rest[1])?, b(&rest[2])?))
        }
        Some("size") => Ok(Expr::SizeOf(b(&arity(e, 1, "size")?[0])?)),
        Some("contains") => {
            let rest = arity(e, 2, "contains")?;
            Ok(Expr::Contains(b(&rest[0])?, b(&rest[1])?))
        }
        Some("count") => {
            let rest = arity(e, 2, "count")?;
            Ok(Expr::CountOf(b(&rest[0])?, b(&rest[1])?))
        }
        Some("with") => {
            let rest = arity(e, 2, "with")?;
            Ok(Expr::WithElem(b(&rest[0])?, b(&rest[1])?))
        }
        Some("without") => {
            let rest = arity(e, 2, "without")?;
            Ok(Expr::WithoutElem(b(&rest[0])?, b(&rest[1])?))
        }
        Some("union") => {
            let rest = arity(e, 2, "union")?;
            Ok(Expr::UnionOf(b(&rest[0])?, b(&rest[1])?))
        }
        Some("included") => {
            let rest = arity(e, 2, "included")?;
            Ok(Expr::IncludedIn(b(&rest[0])?, b(&rest[1])?))
        }
        Some("range") => {
            let rest = arity(e, 2, "range")?;
            Ok(Expr::RangeSet(b(&rest[0])?, b(&rest[1])?))
        }
        Some("min") => Ok(Expr::MinOf(b(&arity(e, 1, "min")?[0])?)),
        Some("max") => Ok(Expr::MaxOf(b(&arity(e, 1, "max")?[0])?)),
        Some("sum") => Ok(Expr::SumOf(b(&arity(e, 1, "sum")?[0])?)),
        Some(q @ ("forall" | "exists" | "filter" | "image")) => {
            let rest = arity(e, 3, q)?;
            let x = as_str(&rest[0], "binder name")?;
            let s = b(&rest[1])?;
            let body = b(&rest[2])?;
            Ok(match q {
                "forall" => Expr::Forall(x, s, body),
                "exists" => Expr::Exists(x, s, body),
                "filter" => Expr::Filter(x, s, body),
                _ => Expr::MapImage(x, s, body),
            })
        }
        _ => Err(bad(e, "expression")),
    }
}

fn parse_key(e: &SExp) -> Result<Option<Expr>, ParseError> {
    match e {
        SExp::Atom(a) if a == "nokey" => Ok(None),
        _ if e.head() == Some("key") => Ok(Some(parse_expr(&arity(e, 1, "key")?[0])?)),
        _ => Err(bad(e, "nokey or (key ..)")),
    }
}

fn parse_block(e: &SExp) -> Result<Vec<SpecStmt>, ParseError> {
    match e {
        SExp::List(items) => items.iter().map(parse_stmt).collect(),
        _ => Err(bad(e, "statement block")),
    }
}

fn parse_stmt(e: &SExp) -> Result<SpecStmt, ParseError> {
    let rest = e.items();
    match e.head() {
        Some("assign") => {
            let rest = arity(e, 2, "assign")?;
            Ok(SpecStmt::Assign(
                as_str(&rest[0], "variable name")?,
                parse_expr(&rest[1])?,
            ))
        }
        Some("assign-at") => {
            let rest = arity(e, 3, "assign-at")?;
            Ok(SpecStmt::AssignAt(
                as_str(&rest[0], "variable name")?,
                parse_expr(&rest[1])?,
                parse_expr(&rest[2])?,
            ))
        }
        Some("assume") => Ok(SpecStmt::Assume(parse_expr(&arity(e, 1, "assume")?[0])?)),
        Some("assert") => {
            let rest = arity(e, 2, "assert")?;
            Ok(SpecStmt::Assert(
                parse_expr(&rest[0])?,
                as_str(&rest[1], "assert message")?,
            ))
        }
        Some("if") => {
            let rest = arity(e, 3, "if")?;
            Ok(SpecStmt::If(
                parse_expr(&rest[0])?,
                parse_block(&rest[1])?,
                parse_block(&rest[2])?,
            ))
        }
        Some("for") => {
            let rest = arity(e, 4, "for")?;
            Ok(SpecStmt::ForRange(
                as_str(&rest[0], "loop variable")?,
                parse_expr(&rest[1])?,
                parse_expr(&rest[2])?,
                parse_block(&rest[3])?,
            ))
        }
        Some("choose") => {
            let rest = arity(e, 2, "choose")?;
            Ok(SpecStmt::Choose(
                as_str(&rest[0], "choose variable")?,
                parse_expr(&rest[1])?,
            ))
        }
        Some("send") => {
            let rest = arity(e, 3, "send")?;
            Ok(SpecStmt::Send {
                chan: as_str(&rest[0], "channel name")?,
                key: parse_key(&rest[1])?,
                msg: parse_expr(&rest[2])?,
            })
        }
        Some("recv") => {
            let rest = arity(e, 3, "recv")?;
            Ok(SpecStmt::Recv {
                var: as_str(&rest[0], "receive variable")?,
                chan: as_str(&rest[1], "channel name")?,
                key: parse_key(&rest[2])?,
            })
        }
        Some("async") => {
            if rest.len() < 2 {
                return Err(bad(e, "async with a callee"));
            }
            Ok(SpecStmt::Async {
                callee: as_str(&rest[1], "callee name")?,
                args: rest[2..].iter().map(parse_expr).collect::<Result<_, _>>()?,
            })
        }
        Some("call") => {
            if rest.len() < 2 {
                return Err(bad(e, "call with a callee"));
            }
            Ok(SpecStmt::Call {
                callee: as_str(&rest[1], "callee name")?,
                args: rest[2..].iter().map(parse_expr).collect::<Result<_, _>>()?,
            })
        }
        Some("skip") => Ok(SpecStmt::Skip),
        _ => Err(bad(e, "statement")),
    }
}

fn parse_bindings(e: &SExp, what: &str) -> Result<Vec<(String, Sort)>, ParseError> {
    e.items()
        .iter()
        .map(|entry| {
            let pair = entry.items();
            if pair.len() != 2 {
                return Err(bad(entry, what));
            }
            Ok((as_str(&pair[0], "binding name")?, parse_sort(&pair[1])?))
        })
        .collect()
}

/// Parses a spec from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input. Building (and hence
/// typechecking) is a separate step: `parse_spec(s)?.build()`.
pub fn parse_spec(src: &str) -> Result<ProgramSpec, ParseError> {
    let root = Parser::new(src).parse()?;
    spec_of_sexp(&root)
}

/// Converts an already-parsed `(spec ..)` S-expression into a spec.
///
/// Lets protocol layers embed a program inside a larger request envelope:
/// parse the envelope once with [`parse_sexp`], then hand the `(spec ..)`
/// subtree here.
///
/// # Errors
///
/// Returns a [`ParseError`] when the node is not a well-formed spec.
pub fn spec_of_sexp(root: &SExp) -> Result<ProgramSpec, ParseError> {
    if root.head() != Some("spec") {
        return Err(bad(root, "(spec ..)"));
    }
    let mut globals = Vec::new();
    let mut actions = Vec::new();
    let mut main = None;
    let mut pending = Vec::new();
    for section in &root.items()[1..] {
        match section.head() {
            Some("globals") => {
                for entry in &section.items()[1..] {
                    let triple = entry.items();
                    if triple.len() != 3 {
                        return Err(bad(entry, "(name sort value) global"));
                    }
                    globals.push((
                        as_str(&triple[0], "global name")?,
                        parse_sort(&triple[1])?,
                        parse_value(&triple[2])?,
                    ));
                }
            }
            Some("main") => {
                main = Some(as_str(&arity(section, 1, "main")?[0], "main name")?);
            }
            Some("pending") => {
                for entry in &section.items()[1..] {
                    let items = entry.items();
                    if items.is_empty() {
                        return Err(bad(entry, "(name args..) pending async"));
                    }
                    let name = as_str(&items[0], "pending action name")?;
                    let args = items[1..]
                        .iter()
                        .map(parse_value)
                        .collect::<Result<_, _>>()?;
                    pending.push((name, args));
                }
            }
            Some("action") => {
                let rest = arity(section, 4, "action")?;
                actions.push(ActionSpec {
                    name: as_str(&rest[0], "action name")?,
                    params: parse_bindings(&rest[1], "(name sort) parameter")?,
                    locals: parse_bindings(&rest[2], "(name sort) local")?,
                    body: parse_block(&rest[3])?,
                });
            }
            _ => return Err(bad(section, "spec section")),
        }
    }
    Ok(ProgramSpec {
        globals,
        actions,
        main: main.ok_or_else(|| bad(root, "a (main ..) section"))?,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build as e;

    fn sample() -> ProgramSpec {
        ProgramSpec {
            globals: vec![
                ("n".into(), Sort::Int, Value::Int(2)),
                (
                    "ch".into(),
                    Sort::bag(Sort::Int),
                    Value::bag(Multiset::singleton(Value::Int(7))),
                ),
            ],
            actions: vec![
                ActionSpec {
                    name: "Work".into(),
                    params: vec![("i".into(), Sort::Int)],
                    locals: vec![("x".into(), Sort::Int)],
                    body: vec![
                        SpecStmt::Recv {
                            var: "x".into(),
                            chan: "ch".into(),
                            key: None,
                        },
                        SpecStmt::Assign("n".into(), e::add(e::var("n"), e::var("x"))),
                    ],
                },
                ActionSpec {
                    name: "Main".into(),
                    params: vec![],
                    locals: vec![("j".into(), Sort::Int)],
                    body: vec![
                        SpecStmt::ForRange(
                            "j".into(),
                            e::int(0),
                            e::int(1),
                            vec![SpecStmt::Send {
                                chan: "ch".into(),
                                key: None,
                                msg: e::var("j"),
                            }],
                        ),
                        SpecStmt::Async {
                            callee: "Work".into(),
                            args: vec![e::int(1)],
                        },
                    ],
                },
            ],
            main: "Main".into(),
            pending: vec![("Main".into(), vec![])],
        }
    }

    #[test]
    fn round_trips_through_text() {
        let spec = sample();
        let text = write_spec(&spec);
        let reparsed = parse_spec(&text).expect("reparse");
        // Specs have no PartialEq (Expr doesn't); canonical text is identity.
        assert_eq!(text, write_spec(&reparsed));
        reparsed.build().expect("round-tripped spec builds");
    }

    #[test]
    fn single_line_form_parses_to_the_same_spec() {
        let spec = sample();
        let line = write_spec_line(&spec);
        assert!(!line.contains('\n'));
        let reparsed = parse_spec(&line).expect("reparse single-line form");
        assert_eq!(write_spec(&spec), write_spec(&reparsed));
        assert_eq!(canonical_hash(&spec), canonical_hash(&reparsed));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let text = format!("; header comment\n;; more\n{}", write_spec(&sample()));
        parse_spec(&text).expect("parse with comments");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_spec("(spec (main \"M\")").is_err()); // unclosed
        assert!(parse_spec("(notspec)").is_err());
        assert!(parse_spec("(spec (globals (\"g\" int)))").is_err()); // missing value
    }

    #[test]
    fn parse_sexp_rejects_trailing_garbage() {
        assert!(parse_sexp("(ping)").is_ok());
        assert!(parse_sexp("(ping) extra").is_err());
    }

    #[test]
    fn stmt_count_counts_nested_blocks() {
        assert_eq!(sample().stmt_count(), 5);
    }

    #[test]
    fn diff_reports_only_the_edited_action() {
        let old = sample();
        let mut new = sample();
        new.actions[0].body.push(SpecStmt::Skip);
        let diff = diff_specs(&old, &new);
        assert_eq!(
            diff.changed_actions.iter().collect::<Vec<_>>(),
            vec!["Work"]
        );
        assert!(!diff.globals_changed && !diff.main_changed && !diff.pending_changed);
        assert!(diff_specs(&old, &old).is_empty());
        assert_ne!(canonical_hash(&old), canonical_hash(&new));
        assert_eq!(action_hash(&old.actions[1]), action_hash(&new.actions[1]));
        assert_ne!(action_hash(&old.actions[0]), action_hash(&new.actions[0]));
    }
}
