//! Compilation of typechecked [`DslAction`]s to a flat register bytecode.
//!
//! The tree-walk interpreter resolves names through a `BTreeMap<String, _>`
//! and recurses per AST node on every evaluation. Compilation pays those
//! costs once per action instead: names resolve to slot/register indices at
//! compile time, expression trees flatten into a linear [`Op`] array over a
//! reusable register file, constants are pooled and folded, and per-action
//! metadata (footprint, register count, precomputed diagnostic strings) is
//! cached on the compiled form. The VM in [`crate::vm`] executes the result
//! with outcomes bit-identical to the interpreter, which remains the
//! reference semantics and differential-test oracle.
//!
//! # Register allocation
//!
//! Registers are allocated with stack discipline: compiling an expression
//! into destination register `d` may scratch only registers `≥ d`, and the
//! result lands in `d`. A binary operator compiles its left operand into
//! `d`, its right into `d + 1`, then combines in place; a tuple of `n`
//! elements uses `d .. d + n`. The register file high-water mark is recorded
//! per action so the VM allocates it once.
//!
//! # Short-circuiting
//!
//! `&&`, `||`, `==>`, and `if-then-else` compile to conditional jumps
//! ([`Op::JumpIfFalse`]/[`Op::JumpIfTrue`]/[`Op::Jump`], absolute targets
//! within the op array), so untaken operands are never evaluated — matching
//! the interpreter, which must not observe failures in short-circuited
//! subexpressions.
//!
//! # Quantifiers
//!
//! `forall`/`exists`/`filter`/`image` bodies compile to nested op arrays
//! ([`Op::Quant`]): the domain is computed into `d`, the binder lives in
//! register `d + 1`, and the body evaluates into `d + 2` once per domain
//! element — binding in place, never re-cloning an environment.
//!
//! # Fallback
//!
//! Compilation is total on typechecked actions in practice, but every
//! failure path (register overflow, an unbound name, an uncompilable `call`
//! callee) degrades gracefully: the action's compile cache stores `None` and
//! evaluation falls back to the interpreter, preserving semantics exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use inseq_kernel::{ActionName, Footprint, Shared, Value};
use inseq_obs::Counter;

use crate::action::{DslAction, Slot};
use crate::expr::{BinOp, Expr};
use crate::rt::range_set_value;
use crate::stmt::Stmt;
use crate::vm::VmHooks;

/// Which evaluator serves [`inseq_kernel::ActionSemantics::eval`] for a DSL
/// action. Every action runs [`ExecMode::Compiled`] unless forced otherwise
/// with [`DslAction::with_exec_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The register-bytecode VM (the default), falling back to the
    /// interpreter for actions that fail to compile.
    Compiled,
    /// The tree-walk reference interpreter.
    Interp,
}

/// Why an action could not be compiled (it will run on the interpreter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompileError(pub String);

/// One flat-bytecode instruction. Register operands follow the stack
/// discipline described in the module docs: an op with destination `dst`
/// consumes the values its compiler placed at `dst`, `dst + 1`, … and leaves
/// its result in `dst`.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// `regs[dst] = consts[idx].clone()`
    Const { dst: u16, idx: u32 },
    /// `regs[dst] = locals[slot].clone()`
    Local { dst: u16, slot: u16 },
    /// `regs[dst] = globals[slot].clone()`
    Global { dst: u16, slot: u16 },
    /// `regs[dst] = regs[src].clone()` — reads a quantifier binder.
    Copy { dst: u16, src: u16 },
    /// Integer negation in place.
    Neg { dst: u16 },
    /// Boolean negation in place.
    Not { dst: u16 },
    /// Strict binary op over `regs[dst], regs[dst+1]` (never `&&`/`||`/`==>`).
    Bin { op: BinOp, dst: u16 },
    /// Unconditional jump to `target`.
    Jump { target: u32 },
    /// Jump to `target` when `regs[reg]` is `false` (the value stays put).
    JumpIfFalse { reg: u16, target: u32 },
    /// Jump to `target` when `regs[reg]` is `true` (the value stays put).
    JumpIfTrue { reg: u16, target: u32 },
    /// Wraps `regs[dst]` in `Some`.
    SomeOf { dst: u16 },
    /// `regs[dst] = Bool(regs[dst] is Some)`
    IsSome { dst: u16 },
    /// Unwraps an option, failing on `None`.
    Unwrap { dst: u16 },
    /// Collects `regs[dst .. dst+len]` into a tuple at `dst`.
    Tuple { dst: u16, len: u16 },
    /// Tuple projection in place.
    Proj { dst: u16, index: u32 },
    /// `regs[dst] = regs[dst][regs[dst+1]]` (map or sequence).
    MapGet { dst: u16 },
    /// `regs[dst] = regs[dst][regs[dst+1] := regs[dst+2]]`
    MapSet { dst: u16 },
    /// Collection size in place.
    SizeOf { dst: u16 },
    /// `regs[dst] = Bool(regs[dst+1] in regs[dst])`
    Contains { dst: u16 },
    /// Bag multiplicity of `regs[dst+1]` in `regs[dst]`.
    CountOf { dst: u16 },
    /// `regs[dst]` with `regs[dst+1]` added.
    WithElem { dst: u16 },
    /// `regs[dst]` with `regs[dst+1]` removed.
    WithoutElem { dst: u16 },
    /// Union of `regs[dst]` and `regs[dst+1]`.
    UnionOf { dst: u16 },
    /// `regs[dst] = Bool(regs[dst] ⊆ regs[dst+1])`
    IncludedIn { dst: u16 },
    /// `{regs[dst] .. regs[dst+1]}` as a set.
    RangeSet { dst: u16 },
    /// Minimum of an integer collection in place.
    MinOf { dst: u16 },
    /// Maximum of an integer collection in place.
    MaxOf { dst: u16 },
    /// Sum of an integer collection in place.
    SumOf { dst: u16 },
    /// Quantifier/comprehension: domain is in `dst`, the binder register is
    /// `dst + 1`, and `body` evaluates into `body.dst` (= `dst + 2`) per
    /// element. The result replaces `regs[dst]`.
    Quant {
        kind: QuantKind,
        dst: u16,
        body: Box<CExpr>,
    },
}

/// Which quantifier/comprehension an [`Op::Quant`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantKind {
    Forall,
    Exists,
    Filter,
    MapImage,
}

/// A compiled expression: a linear op array leaving its result in `dst`.
#[derive(Debug, Clone)]
pub(crate) struct CExpr {
    pub(crate) ops: Vec<Op>,
    pub(crate) dst: u16,
}

/// A compiled statement. Names are resolved to [`Slot`]s; strings kept here
/// (channel/variable names, assert messages) exist only to reproduce the
/// interpreter's diagnostics verbatim.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Skip,
    Assign(Slot, CExpr),
    AssignAt {
        slot: Slot,
        var: String,
        key: CExpr,
        val: CExpr,
    },
    Assume(CExpr),
    /// The message is the full precomputed failure string.
    Assert(CExpr, String),
    If(CExpr, Vec<CStmt>, Vec<CStmt>),
    ForRange(Slot, CExpr, CExpr, Vec<CStmt>),
    Choose(Slot, CExpr),
    Send {
        chan: Slot,
        chan_name: String,
        key: Option<CExpr>,
        msg: CExpr,
    },
    Recv {
        var: Slot,
        chan: Slot,
        chan_name: String,
        key: Option<CExpr>,
    },
    Async {
        name: ActionName,
        args: Vec<CExpr>,
    },
    Call {
        callee: Arc<CompiledAction>,
        args: Vec<CExpr>,
    },
}

/// A [`DslAction`] lowered to register bytecode, plus the per-action
/// metadata the hot path wants precomputed.
#[derive(Debug)]
pub(crate) struct CompiledAction {
    /// Action name, for diagnostics.
    pub(crate) name: String,
    /// Parameter count (arity).
    pub(crate) params: usize,
    /// Default values for declared locals, appended after the arguments.
    pub(crate) local_defaults: Vec<Value>,
    /// Deduplicated constant pool.
    pub(crate) consts: Vec<Value>,
    /// The compiled body.
    pub(crate) body: Vec<CStmt>,
    /// Register-file high-water mark.
    pub(crate) max_regs: usize,
    /// Global footprint, computed once at compile time.
    pub(crate) footprint: Footprint,
    /// Total op count across the body (including quantifier bodies).
    pub(crate) op_count: u64,
    /// Wall time spent compiling this action, in nanoseconds.
    pub(crate) compile_nanos: u64,
    /// Evaluations served by the VM for this action (observability only).
    pub(crate) vm_evals: Counter,
    /// The owning program's VM hooks, copied from the action (read only
    /// when a hook feature is on).
    #[cfg_attr(
        not(any(feature = "coverage", feature = "fault-injection")),
        allow(dead_code)
    )]
    pub(crate) hooks: VmHooks,
}

/// Compiles `action` (and, recursively, its `call` callees through their own
/// caches). Errors mean the action will run on the interpreter.
pub(crate) fn compile_action(action: &DslAction) -> Result<CompiledAction, CompileError> {
    let start = std::time::Instant::now();
    let mut c = Compiler {
        action,
        consts: Vec::new(),
        const_ids: BTreeMap::new(),
        binders: Vec::new(),
        max_regs: 0,
        op_count: 0,
    };
    let body = c.block(action.body())?;
    Ok(CompiledAction {
        name: action.name().to_owned(),
        params: action.params().len(),
        local_defaults: action
            .locals()
            .iter()
            .map(|(_, s)| s.default_value())
            .collect(),
        consts: c.consts,
        body,
        max_regs: c.max_regs as usize,
        footprint: crate::footprint::analyze(action),
        op_count: c.op_count,
        compile_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        vm_evals: Counter::new(),
        hooks: action.hooks.clone(),
    })
}

struct Compiler<'a> {
    action: &'a DslAction,
    consts: Vec<Value>,
    const_ids: BTreeMap<Value, u32>,
    /// In-scope quantifier binders, innermost last: name → binder register.
    binders: Vec<(&'a str, u16)>,
    max_regs: u16,
    op_count: u64,
}

impl<'a> Compiler<'a> {
    fn block(&mut self, stmts: &'a [Stmt]) -> Result<Vec<CStmt>, CompileError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<CStmt, CompileError> {
        Ok(match stmt {
            Stmt::Skip => CStmt::Skip,
            Stmt::Assign(x, e) => CStmt::Assign(self.slot(x)?, self.cexpr(e)?),
            Stmt::AssignAt(x, k, v) => CStmt::AssignAt {
                slot: self.slot(x)?,
                var: x.clone(),
                key: self.cexpr(k)?,
                val: self.cexpr(v)?,
            },
            Stmt::Assume(e) => CStmt::Assume(self.cexpr(e)?),
            Stmt::Assert(e, msg) => CStmt::Assert(
                self.cexpr(e)?,
                format!("{} (in `{}`)", msg, self.action.name()),
            ),
            Stmt::If(c, t, e) => CStmt::If(self.cexpr(c)?, self.block(t)?, self.block(e)?),
            Stmt::ForRange(x, lo, hi, body) => CStmt::ForRange(
                self.slot(x)?,
                self.cexpr(lo)?,
                self.cexpr(hi)?,
                self.block(body)?,
            ),
            Stmt::Choose(x, domain) => CStmt::Choose(self.slot(x)?, self.cexpr(domain)?),
            Stmt::Send { chan, key, msg } => CStmt::Send {
                chan: self.slot(chan)?,
                chan_name: chan.clone(),
                key: key.as_ref().map(|k| self.cexpr(k)).transpose()?,
                msg: self.cexpr(msg)?,
            },
            Stmt::Recv { var, chan, key } => CStmt::Recv {
                var: self.slot(var)?,
                chan: self.slot(chan)?,
                chan_name: chan.clone(),
                key: key.as_ref().map(|k| self.cexpr(k)).transpose()?,
            },
            Stmt::Async { callee, args } => CStmt::Async {
                name: ActionName::new(callee.name()),
                args: self.cexprs(args)?,
            },
            Stmt::AsyncNamed { name, args, .. } => CStmt::Async {
                name: ActionName::new(name),
                args: self.cexprs(args)?,
            },
            Stmt::Call { callee, args } => CStmt::Call {
                callee: callee.compiled().ok_or_else(|| {
                    CompileError(format!("call callee `{}` failed to compile", callee.name()))
                })?,
                args: self.cexprs(args)?,
            },
        })
    }

    fn cexprs(&mut self, es: &'a [Expr]) -> Result<Vec<CExpr>, CompileError> {
        es.iter().map(|e| self.cexpr(e)).collect()
    }

    /// Compiles a statement-level expression (register base 0).
    fn cexpr(&mut self, e: &'a Expr) -> Result<CExpr, CompileError> {
        let mut ops = Vec::new();
        self.expr(e, 0, &mut ops)?;
        self.op_count += ops.len() as u64;
        Ok(CExpr { ops, dst: 0 })
    }

    fn slot(&self, name: &str) -> Result<Slot, CompileError> {
        self.action
            .slot(name)
            .ok_or_else(|| CompileError(format!("unbound variable `{name}`")))
    }

    fn touch(&mut self, reg: u16) -> Result<(), CompileError> {
        let needed = reg
            .checked_add(1)
            .ok_or_else(|| CompileError("register file overflow".to_owned()))?;
        self.max_regs = self.max_regs.max(needed);
        Ok(())
    }

    fn reg_after(&self, reg: u16, n: u16) -> Result<u16, CompileError> {
        reg.checked_add(n)
            .ok_or_else(|| CompileError("register file overflow".to_owned()))
    }

    fn const_id(&mut self, v: Value) -> Result<u32, CompileError> {
        if let Some(&i) = self.const_ids.get(&v) {
            return Ok(i);
        }
        let i = u32::try_from(self.consts.len())
            .map_err(|_| CompileError("constant pool overflow".to_owned()))?;
        self.const_ids.insert(v.clone(), i);
        self.consts.push(v);
        Ok(i)
    }

    fn emit_const(&mut self, v: Value, dst: u16, ops: &mut Vec<Op>) -> Result<(), CompileError> {
        self.touch(dst)?;
        let idx = self.const_id(v)?;
        ops.push(Op::Const { dst, idx });
        Ok(())
    }

    /// Reserves a jump slot to patch later; returns its index.
    fn jump_slot(ops: &mut Vec<Op>, op: Op) -> usize {
        ops.push(op);
        ops.len() - 1
    }

    /// Points the jump at `slot` to the current end of `ops`.
    fn patch_here(ops: &mut [Op], slot: usize) -> Result<(), CompileError> {
        let here =
            u32::try_from(ops.len()).map_err(|_| CompileError("op array overflow".to_owned()))?;
        match &mut ops[slot] {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => {
                *target = here;
            }
            _ => unreachable!("patched slot is always a jump"),
        }
        Ok(())
    }

    /// Compiles `e` so its value ends in register `dst`, scratching only
    /// registers `≥ dst`.
    fn expr(&mut self, e: &'a Expr, dst: u16, ops: &mut Vec<Op>) -> Result<(), CompileError> {
        if let Some(v) = self.fold(e) {
            return self.emit_const(v, dst, ops);
        }
        match e {
            Expr::Const(v) => self.emit_const(v.clone(), dst, ops)?,
            Expr::Var(x) => {
                self.touch(dst)?;
                if let Some(&(_, src)) = self.binders.iter().rev().find(|(n, _)| *n == x) {
                    ops.push(Op::Copy { dst, src });
                } else {
                    match self.slot(x)? {
                        Slot::Local(i) => ops.push(Op::Local {
                            dst,
                            slot: u16::try_from(i)
                                .map_err(|_| CompileError("local slot overflow".to_owned()))?,
                        }),
                        Slot::Global(i) => ops.push(Op::Global {
                            dst,
                            slot: u16::try_from(i)
                                .map_err(|_| CompileError("global slot overflow".to_owned()))?,
                        }),
                    }
                }
            }
            Expr::Neg(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::Neg { dst });
            }
            Expr::Not(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::Not { dst });
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b, dst, ops)?,
            Expr::Ite(c, t, e) => {
                self.expr(c, dst, ops)?;
                let to_else = Self::jump_slot(
                    ops,
                    Op::JumpIfFalse {
                        reg: dst,
                        target: 0,
                    },
                );
                self.expr(t, dst, ops)?;
                let to_end = Self::jump_slot(ops, Op::Jump { target: 0 });
                Self::patch_here(ops, to_else)?;
                self.expr(e, dst, ops)?;
                Self::patch_here(ops, to_end)?;
            }
            Expr::SomeOf(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::SomeOf { dst });
            }
            Expr::IsSome(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::IsSome { dst });
            }
            Expr::Unwrap(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::Unwrap { dst });
            }
            Expr::Tuple(es) => {
                let len = u16::try_from(es.len())
                    .map_err(|_| CompileError("tuple too wide".to_owned()))?;
                for (i, e) in es.iter().enumerate() {
                    let r = self.reg_after(dst, i as u16)?;
                    self.expr(e, r, ops)?;
                }
                self.touch(dst)?;
                ops.push(Op::Tuple { dst, len });
            }
            Expr::Proj(e, i) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::Proj {
                    dst,
                    index: u32::try_from(*i)
                        .map_err(|_| CompileError("projection index overflow".to_owned()))?,
                });
            }
            Expr::MapGet(m, k) => self.two(m, k, dst, ops, |dst| Op::MapGet { dst })?,
            Expr::MapSet(m, k, v) => {
                self.expr(m, dst, ops)?;
                self.expr(k, self.reg_after(dst, 1)?, ops)?;
                self.expr(v, self.reg_after(dst, 2)?, ops)?;
                ops.push(Op::MapSet { dst });
            }
            Expr::SizeOf(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::SizeOf { dst });
            }
            Expr::Contains(c, e) => self.two(c, e, dst, ops, |dst| Op::Contains { dst })?,
            Expr::CountOf(c, e) => self.two(c, e, dst, ops, |dst| Op::CountOf { dst })?,
            Expr::WithElem(c, e) => self.two(c, e, dst, ops, |dst| Op::WithElem { dst })?,
            Expr::WithoutElem(c, e) => self.two(c, e, dst, ops, |dst| Op::WithoutElem { dst })?,
            Expr::UnionOf(a, b) => self.two(a, b, dst, ops, |dst| Op::UnionOf { dst })?,
            Expr::IncludedIn(a, b) => self.two(a, b, dst, ops, |dst| Op::IncludedIn { dst })?,
            Expr::RangeSet(lo, hi) => self.two(lo, hi, dst, ops, |dst| Op::RangeSet { dst })?,
            Expr::MinOf(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::MinOf { dst });
            }
            Expr::MaxOf(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::MaxOf { dst });
            }
            Expr::SumOf(e) => {
                self.expr(e, dst, ops)?;
                ops.push(Op::SumOf { dst });
            }
            Expr::Forall(x, s, body) => self.quant(QuantKind::Forall, x, s, body, dst, ops)?,
            Expr::Exists(x, s, body) => self.quant(QuantKind::Exists, x, s, body, dst, ops)?,
            Expr::Filter(x, s, body) => self.quant(QuantKind::Filter, x, s, body, dst, ops)?,
            Expr::MapImage(x, s, body) => self.quant(QuantKind::MapImage, x, s, body, dst, ops)?,
        }
        Ok(())
    }

    /// Compiles a strict two-operand op: `a` into `dst`, `b` into `dst + 1`.
    fn two(
        &mut self,
        a: &'a Expr,
        b: &'a Expr,
        dst: u16,
        ops: &mut Vec<Op>,
        make: impl FnOnce(u16) -> Op,
    ) -> Result<(), CompileError> {
        self.expr(a, dst, ops)?;
        self.expr(b, self.reg_after(dst, 1)?, ops)?;
        ops.push(make(dst));
        Ok(())
    }

    fn bin(
        &mut self,
        op: BinOp,
        a: &'a Expr,
        b: &'a Expr,
        dst: u16,
        ops: &mut Vec<Op>,
    ) -> Result<(), CompileError> {
        match op {
            BinOp::And => {
                self.expr(a, dst, ops)?;
                let to_end = Self::jump_slot(
                    ops,
                    Op::JumpIfFalse {
                        reg: dst,
                        target: 0,
                    },
                );
                self.expr(b, dst, ops)?;
                Self::patch_here(ops, to_end)?;
            }
            BinOp::Or => {
                self.expr(a, dst, ops)?;
                let to_end = Self::jump_slot(
                    ops,
                    Op::JumpIfTrue {
                        reg: dst,
                        target: 0,
                    },
                );
                self.expr(b, dst, ops)?;
                Self::patch_here(ops, to_end)?;
            }
            BinOp::Implies => {
                self.expr(a, dst, ops)?;
                let to_rhs = Self::jump_slot(
                    ops,
                    Op::JumpIfTrue {
                        reg: dst,
                        target: 0,
                    },
                );
                self.emit_const(Value::Bool(true), dst, ops)?;
                let to_end = Self::jump_slot(ops, Op::Jump { target: 0 });
                Self::patch_here(ops, to_rhs)?;
                self.expr(b, dst, ops)?;
                Self::patch_here(ops, to_end)?;
            }
            _ => {
                self.expr(a, dst, ops)?;
                self.expr(b, self.reg_after(dst, 1)?, ops)?;
                ops.push(Op::Bin { op, dst });
            }
        }
        Ok(())
    }

    fn quant(
        &mut self,
        kind: QuantKind,
        x: &'a str,
        s: &'a Expr,
        body: &'a Expr,
        dst: u16,
        ops: &mut Vec<Op>,
    ) -> Result<(), CompileError> {
        self.expr(s, dst, ops)?;
        let binder = self.reg_after(dst, 1)?;
        let body_dst = self.reg_after(dst, 2)?;
        self.touch(binder)?;
        self.binders.push((x, binder));
        let mut body_ops = Vec::new();
        let result = self.expr(body, body_dst, &mut body_ops);
        self.binders.pop();
        result?;
        self.op_count += body_ops.len() as u64;
        ops.push(Op::Quant {
            kind,
            dst,
            body: Box::new(CExpr {
                ops: body_ops,
                dst: body_dst,
            }),
        });
        Ok(())
    }

    /// Constant folding, restricted to folds that can neither fail nor change
    /// semantics. In particular: arithmetic folds only through checked ops
    /// (overflow is left to runtime), `/`/`%` fold only with a nonzero
    /// constant divisor, `unwrap(None)` never folds (it must fail at
    /// runtime), and short-circuit folds drop an operand only when the
    /// interpreter would not have evaluated it either.
    fn fold(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Const(v) => Some(v.clone()),
            Expr::Neg(e) => match self.fold(e)? {
                Value::Int(i) => i.checked_neg().map(Value::Int),
                _ => None,
            },
            Expr::Not(e) => match self.fold(e)? {
                Value::Bool(b) => Some(Value::Bool(!b)),
                _ => None,
            },
            Expr::Bin(op, a, b) => self.fold_bin(*op, a, b),
            Expr::Ite(c, t, e) => match self.fold(c)? {
                Value::Bool(true) => self.fold(t),
                Value::Bool(false) => self.fold(e),
                _ => None,
            },
            Expr::SomeOf(e) => Some(Value::some(self.fold(e)?)),
            Expr::IsSome(e) => match self.fold(e)? {
                Value::Opt(o) => Some(Value::Bool(o.is_some())),
                _ => None,
            },
            Expr::Unwrap(e) => match self.fold(e)? {
                Value::Opt(Some(v)) => Some(Shared::into_inner(v)),
                _ => None,
            },
            Expr::Tuple(es) => es
                .iter()
                .map(|e| self.fold(e))
                .collect::<Option<Vec<_>>>()
                .map(Value::tuple),
            Expr::Proj(e, i) => match self.fold(e)? {
                Value::Tuple(vs) if *i < vs.len() => Some(vs[*i].clone()),
                _ => None,
            },
            Expr::RangeSet(lo, hi) => {
                let (lo, hi) = match (self.fold(lo)?, self.fold(hi)?) {
                    (Value::Int(lo), Value::Int(hi)) => (lo, hi),
                    _ => return None,
                };
                // Bound the folded set: a huge range inside never-taken
                // control flow would otherwise blow up compile time.
                if hi.checked_sub(lo).is_some_and(|w| w <= 1024) {
                    Some(range_set_value(lo, hi))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn fold_bin(&self, op: BinOp, a: &Expr, b: &Expr) -> Option<Value> {
        // Short-circuit folds first: the left operand alone may decide.
        match op {
            BinOp::And => {
                return match self.fold(a)? {
                    Value::Bool(false) => Some(Value::Bool(false)),
                    Value::Bool(true) => match self.fold(b)? {
                        v @ Value::Bool(_) => Some(v),
                        _ => None,
                    },
                    _ => None,
                }
            }
            BinOp::Or => {
                return match self.fold(a)? {
                    Value::Bool(true) => Some(Value::Bool(true)),
                    Value::Bool(false) => match self.fold(b)? {
                        v @ Value::Bool(_) => Some(v),
                        _ => None,
                    },
                    _ => None,
                }
            }
            BinOp::Implies => {
                return match self.fold(a)? {
                    Value::Bool(false) => Some(Value::Bool(true)),
                    Value::Bool(true) => match self.fold(b)? {
                        v @ Value::Bool(_) => Some(v),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => {}
        }
        let va = self.fold(a)?;
        let vb = self.fold(b)?;
        match op {
            BinOp::Eq => Some(Value::Bool(va == vb)),
            BinOp::Ne => Some(Value::Bool(va != vb)),
            _ => {
                let (x, y) = match (va, vb) {
                    (Value::Int(x), Value::Int(y)) => (x, y),
                    _ => return None,
                };
                match op {
                    BinOp::Add => x.checked_add(y).map(Value::Int),
                    BinOp::Sub => x.checked_sub(y).map(Value::Int),
                    BinOp::Mul => x.checked_mul(y).map(Value::Int),
                    // A zero divisor must fail at runtime, not fold.
                    BinOp::Div if y != 0 => x.checked_div_euclid(y).map(Value::Int),
                    BinOp::Mod if y != 0 => x.checked_rem_euclid(y).map(Value::Int),
                    BinOp::Lt => Some(Value::Bool(x < y)),
                    BinOp::Le => Some(Value::Bool(x <= y)),
                    BinOp::Gt => Some(Value::Bool(x > y)),
                    BinOp::Ge => Some(Value::Bool(x >= y)),
                    _ => None,
                }
            }
        }
    }
}
