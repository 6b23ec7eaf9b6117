//! Shared infrastructure for the case studies: the proof pipeline driver
//! and its verification reports (the rows of Table 1), ghost pending-async
//! bookkeeping, and spec checking.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inseq_core::chain::IsChain;
use inseq_core::IsReport;
use inseq_kernel::{
    Config, Exploration, ExploreError, Explorer, GlobalStore, Program, ReduceMode, SymmetrySpec,
};
use inseq_lang::build::*;
use inseq_lang::{action_loc, DslAction, Expr};
use inseq_refine::{
    check_observed_refinement_on, check_program_refinement_on, RefinementViolation,
};

/// One row of our Table 1 reproduction: the protocol name, the number of IS
/// applications, the LOC split (total / IS artifacts / implementation), and
/// the wall-clock verification time.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Protocol name as in the paper's Table 1.
    pub name: String,
    /// Instance size the artifacts were checked on.
    pub instance: String,
    /// Number of IS applications (`#IS`).
    pub is_applications: usize,
    /// Pretty-printed LOC of every artifact (`#LOC Total`).
    pub loc_total: usize,
    /// LOC of IS proof artifacts: invariants, abstractions, replacements
    /// (`#LOC IS`).
    pub loc_is: usize,
    /// LOC of the implementation `P1` and the atomic program `P2`
    /// (`#LOC Impl`).
    pub loc_impl: usize,
    /// Per-application statistics.
    pub reports: Vec<IsReport>,
    /// Wall-clock time of the full verification pipeline.
    pub time: Duration,
    /// Wall clock of each pipeline step, in order: `P1 ≼ P2`, each IS
    /// application, `P2 ≼ P'`, the spec on `P'` and on `P2`.
    pub steps: Vec<StepTime>,
    /// Explorations the pipeline ran (see [`Proof::run`]).
    pub explorations: usize,
}

/// The wall clock of one pipeline step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTime {
    /// The step: `P1 ≼ P2`, `IS 1`, `IS 2`, …, `P2 ≼ P'`, `spec P'` or
    /// `spec P2`.
    pub step: String,
    /// Its wall-clock time.
    pub wall: Duration,
}

impl fmt::Display for StepTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:.2} ms", self.step, self.wall.as_secs_f64() * 1e3)
    }
}

impl fmt::Display for CaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:>4} {:>6} {:>6} {:>6} {:>9.3}s   [{}]",
            self.name,
            self.is_applications,
            self.loc_total,
            self.loc_is,
            self.loc_impl,
            self.time.as_secs_f64(),
            self.instance,
        )
    }
}

/// Accumulates the LOC metric across artifact groups while a case assembles
/// its report.
#[derive(Debug, Default)]
pub struct LocCounter {
    /// LOC of implementation actions (`P1` + `P2`).
    pub impl_loc: usize,
    /// LOC of IS artifacts.
    pub is_loc: usize,
}

impl LocCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        LocCounter::default()
    }

    /// Counts implementation actions.
    pub fn impl_actions<'a>(&mut self, actions: impl IntoIterator<Item = &'a Arc<DslAction>>) {
        self.impl_loc += actions.into_iter().map(|a| action_loc(a)).sum::<usize>();
    }

    /// Counts IS artifacts (invariant actions, abstractions, replacements).
    pub fn is_actions<'a>(&mut self, actions: impl IntoIterator<Item = &'a Arc<DslAction>>) {
        self.is_loc += actions.into_iter().map(|a| action_loc(a)).sum::<usize>();
    }

    /// Total LOC.
    #[must_use]
    pub fn total(&self) -> usize {
        self.impl_loc + self.is_loc
    }
}

/// Runs `body`, measuring its wall-clock duration.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = body();
    (out, start.elapsed())
}

/// Checks a functional specification on every terminating store of `program`
/// from `init`, and that the program is failure- and deadlock-free.
///
/// # Errors
///
/// Returns a description of the first violating terminal store, a failure,
/// a deadlocked configuration, or the absence of any terminating execution.
pub fn check_spec(
    program: &Program,
    init: Config,
    budget: usize,
    spec: impl Fn(&GlobalStore) -> bool,
) -> Result<usize, String> {
    let exp = Explorer::new(program)
        .with_budget(budget)
        .explore([init])
        .map_err(|e| e.to_string())?;
    check_spec_on(&exp, spec)
}

/// [`check_spec`] on an unreduced exploration of the program from its
/// initialized configuration. Returns the number of terminal stores.
///
/// # Errors
///
/// As [`check_spec`], but for the exploration itself.
pub fn check_spec_on(
    exp: &Exploration,
    spec: impl Fn(&GlobalStore) -> bool,
) -> Result<usize, String> {
    if exp.has_failure() {
        return Err(exp.failure_reports().join("; "));
    }
    if let Some(d) = exp.deadlocked_configs().next() {
        return Err(format!("deadlock at {d}"));
    }
    let mut count = 0;
    for t in exp.terminal_stores() {
        if !spec(t) {
            return Err(format!("spec violated at terminal store {t}"));
        }
        count += 1;
    }
    if count == 0 {
        return Err("no terminating execution (protocol deadlocks)".into());
    }
    Ok(count)
}

/// How a proof establishes `P1 ≼ P2`: the implementation `P1` and its
/// initialized configuration, the configuration of `P2` it corresponds to,
/// and the refinement check on their two explorations.
pub struct Refinement<'a> {
    p1: &'a Program,
    init1: Config,
    init2: Config,
    check: RefinementCheck<'a>,
}

type RefinementCheck<'a> =
    Box<dyn Fn(&Exploration, &Exploration) -> Result<(), RefinementViolation> + 'a>;

impl<'a> Refinement<'a> {
    /// Def. 3.2 ([`inseq_refine::check_program_refinement`]): `P1` and
    /// `P2` share a schema and both start at `init`.
    #[must_use]
    pub fn program(p1: &'a Program, init: Config) -> Self {
        let at = init.clone();
        Refinement {
            p1,
            init1: init.clone(),
            init2: init,
            check: Box::new(move |exp1, exp2| check_program_refinement_on(exp1, exp2, &at)),
        }
    }

    /// Refinement up to observation
    /// ([`inseq_refine::check_observed_refinement`]): `P1` starts at
    /// `init1`, `P2` at `init2`, and terminal stores are compared through
    /// `observe1` and `observe2`.
    #[must_use]
    pub fn observed<O: Ord + fmt::Debug>(
        p1: &'a Program,
        init1: Config,
        init2: Config,
        observe1: impl Fn(&GlobalStore) -> O + 'a,
        observe2: impl Fn(&GlobalStore) -> O + 'a,
    ) -> Self {
        let at = init1.clone();
        Refinement {
            p1,
            init1,
            init2,
            check: Box::new(move |exp1, exp2| {
                check_observed_refinement_on(exp1, exp2, &at, &observe1, &observe2)
            }),
        }
    }
}

/// One Table-1 proof as data: the paper's chain `P1 ≼ P2`, the IS
/// application(s) turning `P2` into `P'`, `P2 ≼ P'` (the soundness
/// theorem, re-checked on the instance), then the spec on `P'` and on
/// `P2`. [`Proof::run`] drives it.
pub struct Proof<'a> {
    /// Protocol name as in Table 1; every error names it.
    pub name: &'static str,
    /// Instance size, for the report.
    pub instance: String,
    /// LOC of the proof's artifacts, for the report.
    pub loc: LocCounter,
    /// Visited-configuration budget of every step except the IS
    /// applications, which carry their own.
    pub budget: usize,
    /// The `P1 ≼ P2` step.
    pub refinement: Refinement<'a>,
    /// The atomic-action program `P2`.
    pub p2: &'a Program,
    /// `P2`'s initialized configuration, which `P'` also starts from.
    pub init: Config,
    /// The IS application(s). The chain runs from `P2`: its first
    /// application is rebased onto it.
    pub chain: IsChain,
    /// The functional specification, checked on every terminal store.
    pub spec: Box<dyn Fn(&GlobalStore) -> bool + 'a>,
}

/// Which program of a proof an exploration is of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    P2,
    PPrime,
}

/// The explorations of one proof run: each kept one is of a (program,
/// init) that more than one step reads, and is handed to every step whose
/// budget covers it.
#[derive(Default)]
struct Explorations {
    kept: Vec<(Role, Config, Rc<Exploration>)>,
    runs: usize,
}

impl Explorations {
    /// A new exploration of `program` from `init`.
    fn explore(
        &mut self,
        program: &Program,
        init: &Config,
        budget: usize,
    ) -> Result<Exploration, ExploreError> {
        self.runs += 1;
        Explorer::new(program)
            .with_budget(budget)
            .explore([init.clone()])
    }

    /// The kept exploration of `role` from `init`, when one is kept and a
    /// step with `budget` would have explored it too.
    fn kept(&self, role: Role, init: &Config, budget: usize) -> Option<Rc<Exploration>> {
        self.kept
            .iter()
            .find(|(r, i, _)| *r == role && i == init)
            .filter(|(_, _, exp)| exp.config_count() <= budget)
            .map(|(_, _, exp)| Rc::clone(exp))
    }

    /// Keeps `exp` as the exploration of `role` from `init` unless one is
    /// kept already.
    fn keep(&mut self, role: Role, init: &Config, exp: Exploration) -> Rc<Exploration> {
        let exp = Rc::new(exp);
        if !self.kept.iter().any(|(r, i, _)| *r == role && i == init) {
            self.kept.push((role, init.clone(), Rc::clone(&exp)));
        }
        exp
    }

    /// The exploration of `program` (playing `role`) from `init` for a
    /// step with `budget`: the kept one when the budget covers it, else a
    /// new one with that budget, kept for the steps after.
    fn shared(
        &mut self,
        role: Role,
        program: &Program,
        init: &Config,
        budget: usize,
    ) -> Result<Rc<Exploration>, ExploreError> {
        if let Some(exp) = self.kept(role, init, budget) {
            return Ok(exp);
        }
        let exp = self.explore(program, init, budget)?;
        Ok(self.keep(role, init, exp))
    }
}

/// Times each step of a run.
#[derive(Default)]
struct Steps(Vec<StepTime>);

impl Steps {
    fn time<T>(&mut self, step: impl Into<String>, body: impl FnOnce() -> T) -> T {
        let (out, wall) = timed(body);
        self.0.push(StepTime {
            step: step.into(),
            wall,
        });
        out
    }
}

impl Proof<'_> {
    /// Runs the proof's steps in order and stops at the first failure.
    ///
    /// Every step sees the explorations the step-by-step public functions
    /// would make (`check_program_refinement`, `IsChain::run`,
    /// `check_spec`), but the run makes each one at most once per
    /// (program, init): `P2` from its init and `P'` are explored by the
    /// first step that reads them and handed to the later ones. A step
    /// reuses an exploration only when it would have made the same one: no
    /// reduction, the same seeds, and a budget of at least its
    /// configuration count. Otherwise the step explores with its own
    /// budget, so its error is the one the step alone reports. `P1` and
    /// every IS application after the first are explored once each.
    ///
    /// # Errors
    ///
    /// The first failing step's error, with the text the step-by-step
    /// functions give.
    pub fn run(self) -> Result<CaseReport, CaseError> {
        let started = Instant::now();
        let Proof {
            name,
            instance,
            loc,
            budget,
            refinement,
            p2,
            init,
            chain,
            spec,
        } = self;
        let mut explorations = Explorations::default();
        let mut steps = Steps::default();
        let fail = |e: &dyn fmt::Display| CaseError::new(name, e);

        steps
            .time("P1 ≼ P2", || -> Result<(), RefinementViolation> {
                let Refinement {
                    p1,
                    init1,
                    init2,
                    check,
                } = &refinement;
                let exp2 = explorations.shared(Role::P2, p2, init2, budget)?;
                if exp2.has_failure() {
                    return Ok(()); // the abstract program may fail: P1 is not read
                }
                let exp1 = explorations.explore(p1, init1, budget)?;
                check(&exp1, &exp2)
            })
            .map_err(|e| fail(&format!("P1 ⋠ P2: {e}")))?;

        let mut first = true;
        let outcome = chain
            .run_from(p2.clone(), |app| {
                let shared = std::mem::take(&mut first)
                    && app.reduce_mode() == ReduceMode::Off
                    && app.instances() == std::slice::from_ref(&init);
                steps.time(format!("IS {}", steps.0.len()), || {
                    if !shared {
                        explorations.runs += 1;
                        return app.check();
                    }
                    let exp = match explorations.kept(Role::P2, &init, app.budget_limit()) {
                        Some(exp) => exp,
                        None => {
                            explorations.runs += 1;
                            let exp = app.explore()?;
                            explorations.keep(Role::P2, &init, exp)
                        }
                    };
                    app.check_on(&exp)
                })
            })
            .map_err(|e| fail(&e))?;
        let p_prime = outcome.program;

        steps
            .time("P2 ≼ P'", || -> Result<(), RefinementViolation> {
                let exp2 = explorations.shared(Role::PPrime, &p_prime, &init, budget)?;
                if exp2.has_failure() {
                    return Ok(());
                }
                let exp1 = explorations.shared(Role::P2, p2, &init, budget)?;
                check_program_refinement_on(&exp1, &exp2, &init)
            })
            .map_err(|e| fail(&format!("P2 ⋠ P': {e}")))?;
        for (step, role, program) in [
            ("spec P'", Role::PPrime, &p_prime),
            ("spec P2", Role::P2, p2),
        ] {
            steps
                .time(step, || {
                    let exp = explorations
                        .shared(role, program, &init, budget)
                        .map_err(|e| e.to_string())?;
                    check_spec_on(&exp, &spec)
                })
                .map_err(|e| fail(&e))?;
        }

        Ok(CaseReport {
            name: name.to_owned(),
            instance,
            is_applications: outcome.reports.len(),
            loc_total: loc.total(),
            loc_is: loc.is_loc,
            loc_impl: loc.impl_loc,
            reports: outcome.reports,
            time: started.elapsed(),
            steps: steps.0,
            explorations: explorations.runs,
        })
    }
}

/// One protocol's exploration workload, packaged for exploration engines.
///
/// Exposes a case's atomic program `P2` and its initialized configuration
/// using kernel types only, so any explorer — the sequential
/// [`inseq_kernel::Explorer`] or `inseq-engine`'s sharded parallel one — can
/// enumerate the case's configuration universe without knowing protocol
/// internals. Every protocol module provides an `exploration_case`
/// constructor, and [`crate::exploration_cases`] collects all seven.
#[derive(Debug, Clone)]
pub struct ExplorationCase {
    /// Protocol name as in Table 1.
    pub name: String,
    /// Human-readable instance size (e.g. `n = 3`).
    pub instance: String,
    /// The atomic-action program `P2` whose reachable configurations form
    /// the quantification universe of the case's IS obligations.
    pub program: Program,
    /// The initialized configuration of `program` for the instance.
    pub init: Config,
    /// Process-id symmetry of the instance, when the protocol has one.
    ///
    /// `--reduce sym` quotients the reachable set by this group; cases
    /// without a spec (`None`) explore unreduced under that flag. The spec
    /// must be a *true* symmetry of `program` and `init` — permuting every
    /// node id through any group element maps reachable configurations to
    /// reachable configurations and preserves verdicts.
    pub symmetry: Option<SymmetrySpec>,
}

impl ExplorationCase {
    /// Packages a case.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        instance: impl Into<String>,
        program: Program,
        init: Config,
    ) -> Self {
        ExplorationCase {
            name: name.into(),
            instance: instance.into(),
            program,
            init,
            symmetry: None,
        }
    }

    /// Attaches a process-id symmetry group to the case.
    #[must_use]
    pub fn with_symmetry(mut self, spec: SymmetrySpec) -> Self {
        self.symmetry = Some(spec);
        self
    }
}

impl fmt::Display for ExplorationCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.instance)
    }
}

/// Wraps an [`IsViolation`] (or any pipeline error) with the case name.
#[derive(Debug)]
pub struct CaseError {
    /// The case that failed.
    pub case: String,
    /// What failed.
    pub message: String,
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case `{}` failed: {}", self.case, self.message)
    }
}

impl std::error::Error for CaseError {}

impl CaseError {
    /// Creates a case error.
    #[must_use]
    pub fn new(case: &str, message: impl fmt::Display) -> Self {
        CaseError {
            case: case.to_owned(),
            message: message.to_string(),
        }
    }
}

/// Ghost pending-async bookkeeping.
///
/// Gates of gated atomic actions range over the store only, so — exactly as
/// the paper's Paxos proof does with its `pendingAsyncs` variable
/// (Fig. 4(b)) — protocols that need `Ω` in a gate maintain a ghost bag of
/// encoded pending asyncs: `Main` fills it, every task removes itself on
/// execution, and abstraction gates assert over it.
pub mod ghost {
    use super::*;
    use inseq_lang::Sort;

    /// The conventional name of the ghost variable.
    pub const VAR: &str = "pendingAsyncs";

    /// The sort of the ghost bag: pairs `(action tag, argument)`.
    #[must_use]
    pub fn sort() -> Sort {
        Sort::bag(Sort::Tuple(vec![Sort::Int, Sort::Int]))
    }

    /// The encoded PA `(tag, arg)`.
    #[must_use]
    pub fn encode(tag: i64, arg: Expr) -> Expr {
        tuple(vec![int(tag), arg])
    }

    /// Statement: add the encoded PA to the ghost bag.
    #[must_use]
    pub fn add_stmt(tag: i64, arg: Expr) -> inseq_lang::Stmt {
        assign(VAR, with_elem(var(VAR), encode(tag, arg)))
    }

    /// Statement: remove the encoded PA from the ghost bag (each task's
    /// first statement, consuming its own entry).
    #[must_use]
    pub fn consume_stmt(tag: i64, arg: Expr) -> inseq_lang::Stmt {
        assign(VAR, without_elem(var(VAR), encode(tag, arg)))
    }

    /// Expression: no PA with tag `tag` (any argument in `1..=n`) remains.
    #[must_use]
    pub fn none_pending(tag: i64, n: Expr) -> Expr {
        forall(
            "gj",
            range(int(1), n),
            not(contains(var(VAR), encode(tag, var("gj")))),
        )
    }
}
