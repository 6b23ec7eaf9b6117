//! DSL actions: typed bodies with computed gate/transition semantics.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use inseq_kernel::{
    ActionName, ActionOutcome, ActionSemantics, ExecStats, GlobalSchema, GlobalStore, KernelError,
    Program, Value,
};
use inseq_obs::Counter;

use crate::compile::{self, CompiledAction, ExecMode};
use crate::error::TypeError;
use crate::interp;
use crate::sort::Sort;
use crate::stmt::Stmt;
use crate::typeck;
use crate::vm::{self, VmHooks};

/// The declarations of a protocol's global variables: names paired with
/// sorts, in declaration order.
///
/// A `GlobalDecls` induces both the kernel [`GlobalSchema`] and the default
/// initial store.
#[derive(Debug, Clone, Default)]
pub struct GlobalDecls {
    names: Vec<String>,
    sorts: Vec<Sort>,
    index: BTreeMap<String, usize>,
}

impl GlobalDecls {
    /// Creates an empty declaration list.
    #[must_use]
    pub fn new() -> Self {
        GlobalDecls::default()
    }

    /// Declares a global variable.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared.
    pub fn declare(&mut self, name: impl Into<String>, sort: Sort) -> &mut Self {
        let name = name.into();
        let idx = self.names.len();
        let prev = self.index.insert(name.clone(), idx);
        assert!(prev.is_none(), "duplicate global variable `{name}`");
        self.names.push(name);
        self.sorts.push(sort);
        self
    }

    /// Number of declared globals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The index of `name`, if declared.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The sort of `name`, if declared.
    #[must_use]
    pub fn sort_of(&self, name: &str) -> Option<&Sort> {
        self.index_of(name).map(|i| &self.sorts[i])
    }

    /// The sort at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn sort_at(&self, i: usize) -> &Sort {
        &self.sorts[i]
    }

    /// Iterates over `(name, sort)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Sort)> {
        self.names.iter().map(String::as_str).zip(self.sorts.iter())
    }

    /// The declared sorts, in declaration order.
    #[must_use]
    pub fn sorts(&self) -> &[Sort] {
        &self.sorts
    }

    /// The kernel schema corresponding to these declarations.
    #[must_use]
    pub fn schema(&self) -> GlobalSchema {
        GlobalSchema::new(self.names.iter().cloned())
    }

    /// A store assigning every global its sort's default value.
    #[must_use]
    pub fn initial_store(&self) -> GlobalStore {
        GlobalStore::new(self.sorts.iter().map(Sort::default_value).collect())
    }
}

/// Where a name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A parameter or declared local, by slot index.
    Local(usize),
    /// A global, by schema index.
    Global(usize),
}

/// A gated atomic action written in the DSL.
///
/// The gate `ρ` and transition relation `τ` are *computed* by the
/// interpreter: evaluating the body from an input store yields failure (gate
/// violated), a possibly empty set of transitions (empty = blocked), each
/// with the pending asyncs created along that branch.
///
/// # Example
///
/// ```
/// use inseq_lang::{DslAction, GlobalDecls, Sort};
/// use inseq_lang::build::*;
/// use inseq_kernel::{ActionSemantics, Value};
/// use std::sync::Arc;
///
/// let mut globals = GlobalDecls::new();
/// globals.declare("x", Sort::Int);
/// let globals = Arc::new(globals);
///
/// // action Bump(d): x := x + d
/// let bump = DslAction::build("Bump", &globals)
///     .param("d", Sort::Int)
///     .body(vec![assign("x", add(var("x"), var("d")))])
///     .finish()?;
///
/// let store = globals.initial_store();
/// let out = bump.eval(&store, &[Value::Int(5)]);
/// let ts = out.transitions().unwrap();
/// assert_eq!(ts[0].globals.get(0), &Value::Int(5));
/// # Ok::<(), inseq_lang::TypeError>(())
/// ```
#[derive(Clone)]
pub struct DslAction {
    name: String,
    params: Vec<(String, Sort)>,
    locals: Vec<(String, Sort)>,
    body: Vec<Stmt>,
    globals: Arc<GlobalDecls>,
    slots: BTreeMap<String, Slot>,
    /// Which evaluator serves `eval`: the VM unless forced with
    /// [`DslAction::with_exec_mode`].
    exec: ExecMode,
    /// The owning program's VM hooks (coverage sink, injected fault).
    pub(crate) hooks: VmHooks,
    /// Compile cache: one compile per action, shared by clones of the inner
    /// `Arc`. `Some(None)` records a failed compile (interpreter fallback).
    compiled: OnceLock<Option<Arc<CompiledAction>>>,
    /// Evaluations served by the interpreter (observability only).
    interp_evals: Arc<Counter>,
}

impl fmt::Debug for DslAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DslAction")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("locals", &self.locals)
            .field("body_len", &self.body.len())
            .finish()
    }
}

impl DslAction {
    /// Starts building an action named `name` over the given globals.
    #[must_use]
    pub fn build(name: impl Into<String>, globals: &Arc<GlobalDecls>) -> ActionBuilder {
        ActionBuilder {
            name: name.into(),
            globals: Arc::clone(globals),
            params: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
            hooks: VmHooks::default(),
        }
    }

    /// The action's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameters, in order.
    #[must_use]
    pub fn params(&self) -> &[(String, Sort)] {
        &self.params
    }

    /// The parameter sorts alone, in declaration order.
    ///
    /// Generator-facing convenience: program generators and serializers
    /// need the call signature without the parameter names.
    #[must_use]
    pub fn param_sorts(&self) -> Vec<Sort> {
        self.params.iter().map(|(_, s)| s.clone()).collect()
    }

    /// The declared locals, in order.
    #[must_use]
    pub fn locals(&self) -> &[(String, Sort)] {
        &self.locals
    }

    /// The body statements.
    #[must_use]
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// The globals the action was built against.
    #[must_use]
    pub fn globals(&self) -> &Arc<GlobalDecls> {
        &self.globals
    }

    pub(crate) fn slot(&self, name: &str) -> Option<Slot> {
        self.slots.get(name).copied()
    }

    /// The compiled form of this action, compiling on first use. `None`
    /// means compilation failed and evaluation falls back to the
    /// interpreter.
    pub(crate) fn compiled(&self) -> Option<Arc<CompiledAction>> {
        self.compiled
            .get_or_init(|| compile::compile_action(self).ok().map(Arc::new))
            .clone()
    }

    fn use_compiled(&self) -> bool {
        self.exec == ExecMode::Compiled
    }

    /// A copy of this action forced to the given execution mode. The compile
    /// cache and counters are shared with the original, so forcing a mode is
    /// cheap and race-free — differential tests use this to run the same
    /// action on both paths.
    #[must_use]
    pub fn with_exec_mode(&self, mode: ExecMode) -> Arc<DslAction> {
        let mut action = self.clone();
        action.exec = mode;
        Arc::new(action)
    }

    /// Evaluates through the tree-walk interpreter — the reference
    /// semantics — regardless of execution mode. Differential tests use this
    /// as the oracle; it does not bump execution counters.
    #[must_use]
    pub fn eval_interp(&self, globals: &GlobalStore, args: &[Value]) -> ActionOutcome {
        interp::run_action(self, globals, args)
    }

    /// Evaluates through the register VM, or `None` when the action does not
    /// compile. Does not bump execution counters.
    #[must_use]
    pub fn eval_compiled(&self, globals: &GlobalStore, args: &[Value]) -> Option<ActionOutcome> {
        self.compiled()
            .map(|ca| vm::run_compiled(&ca, globals, args))
    }

    pub(crate) fn local_sorts(&self) -> impl Iterator<Item = &Sort> {
        self.params
            .iter()
            .map(|(_, s)| s)
            .chain(self.locals.iter().map(|(_, s)| s))
    }
}

impl ActionSemantics for DslAction {
    fn arity(&self) -> usize {
        self.params.len()
    }

    fn eval(&self, globals: &GlobalStore, args: &[Value]) -> ActionOutcome {
        if self.use_compiled() {
            if let Some(ca) = self.compiled() {
                ca.vm_evals.incr();
                return vm::run_compiled(&ca, globals, args);
            }
        }
        self.interp_evals.incr();
        interp::run_action(self, globals, args)
    }

    fn footprint(&self) -> Option<inseq_kernel::Footprint> {
        if self.use_compiled() {
            if let Some(ca) = self.compiled() {
                return Some(ca.footprint.clone());
            }
        }
        Some(crate::footprint::analyze(self))
    }

    fn prepare(&self) {
        if self.use_compiled() {
            let _ = self.compiled();
        }
    }

    fn exec_stats(&self) -> ExecStats {
        let mut stats = ExecStats {
            interp_evals: self.interp_evals.get(),
            ..ExecStats::default()
        };
        // Non-forcing read: report only what has actually been compiled.
        if let Some(Some(ca)) = self.compiled.get() {
            stats.compiled_actions = 1;
            stats.compile_nanos = ca.compile_nanos;
            stats.compiled_ops = ca.op_count;
            stats.vm_evals = ca.vm_evals.get();
        }
        stats
    }
}

/// Builder for [`DslAction`]; finishing type-checks the body.
#[derive(Debug)]
pub struct ActionBuilder {
    name: String,
    globals: Arc<GlobalDecls>,
    params: Vec<(String, Sort)>,
    locals: Vec<(String, Sort)>,
    body: Vec<Stmt>,
    pub(crate) hooks: VmHooks,
}

impl ActionBuilder {
    /// Adds a parameter.
    #[must_use]
    pub fn param(mut self, name: impl Into<String>, sort: Sort) -> Self {
        self.params.push((name.into(), sort));
        self
    }

    /// Adds a declared local (initialised to its sort's default).
    #[must_use]
    pub fn local(mut self, name: impl Into<String>, sort: Sort) -> Self {
        self.locals.push((name.into(), sort));
        self
    }

    /// Sets the body.
    #[must_use]
    pub fn body(mut self, body: Vec<Stmt>) -> Self {
        self.body = body;
        self
    }

    /// Type-checks and finishes the action.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] when a name is unresolved or shadowed, or a
    /// statement/expression is ill-sorted.
    pub fn finish(self) -> Result<Arc<DslAction>, TypeError> {
        let mut slots = BTreeMap::new();
        for (i, (name, _)) in self.params.iter().chain(self.locals.iter()).enumerate() {
            let prev = slots.insert(name.clone(), Slot::Local(i));
            if prev.is_some() {
                return Err(TypeError::new(
                    &self.name,
                    format!("duplicate parameter/local `{name}`"),
                ));
            }
        }
        for (name, _) in self.globals.iter() {
            if slots.contains_key(name) {
                return Err(TypeError::new(
                    &self.name,
                    format!("local `{name}` shadows a global variable"),
                ));
            }
        }
        for (i, (name, _)) in self.globals.iter().enumerate() {
            slots.insert(name.to_owned(), Slot::Global(i));
        }
        let action = DslAction {
            name: self.name,
            params: self.params,
            locals: self.locals,
            body: self.body,
            globals: self.globals,
            slots,
            exec: ExecMode::Compiled,
            hooks: self.hooks,
            compiled: OnceLock::new(),
            interp_evals: Arc::new(Counter::new()),
        };
        typeck::check_action(&action)?;
        Ok(Arc::new(action))
    }
}

/// Assembles a kernel [`Program`] from DSL actions.
///
/// The program's schema and initial store come from `globals`; `main` names
/// the entry action, which must be among `actions`.
///
/// # Errors
///
/// Returns [`KernelError::MissingMain`] if `main` is not among the actions.
pub fn program_of(
    globals: &Arc<GlobalDecls>,
    actions: impl IntoIterator<Item = Arc<DslAction>>,
    main: impl Into<ActionName>,
) -> Result<Program, KernelError> {
    let mut builder = Program::builder(globals.schema());
    for action in actions {
        let name = ActionName::new(action.name());
        builder.action_arc(name, action as Arc<dyn ActionSemantics>);
    }
    builder.main(main);
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    fn decls() -> Arc<GlobalDecls> {
        let mut g = GlobalDecls::new();
        g.declare("x", Sort::Int);
        g.declare("flag", Sort::Bool);
        Arc::new(g)
    }

    #[test]
    fn decls_roundtrip() {
        let g = decls();
        assert_eq!(g.len(), 2);
        assert_eq!(g.sort_of("x"), Some(&Sort::Int));
        assert_eq!(g.index_of("flag"), Some(1));
        assert_eq!(g.initial_store().get(0), &Value::Int(0));
        assert_eq!(g.schema().name(1), "flag");
    }

    #[test]
    fn builder_rejects_duplicate_locals() {
        let err = DslAction::build("A", &decls())
            .param("p", Sort::Int)
            .local("p", Sort::Bool)
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn builder_rejects_shadowing_globals() {
        let err = DslAction::build("A", &decls())
            .param("x", Sort::Int)
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("shadows"));
    }

    #[test]
    fn program_of_builds_kernel_program() {
        let g = decls();
        let main = DslAction::build("Main", &g)
            .body(vec![assign("x", int(1))])
            .finish()
            .unwrap();
        let p = program_of(&g, [main], "Main").unwrap();
        assert!(p.defines(&"Main".into()));
        let init = p.initial_config_with(g.initial_store(), vec![]).unwrap();
        assert_eq!(init.pending.len(), 1);
    }
}
