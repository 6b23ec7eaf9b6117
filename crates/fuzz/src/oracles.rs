//! The cross-backend oracle battery.
//!
//! Each oracle asserts that two *redundant* implementations the workspace
//! already ships agree on one generated program:
//!
//! | Oracle | Reference path | Fast path |
//! |---|---|---|
//! | `vm-interp` | tree-walk interpreter | register-bytecode VM |
//! | `check-paths` | sequential [`IsApplication::check`] | engine-scheduled `check_with` (1/2/4 threads) |
//! | `intern` | structural config equality (`HashSet<&Config>`, no interner) | hash-consed [`ConcurrentInterner`] identity, in the explorer and re-interned fresh |
//! | `mover` | brute-force mover conditions on plain eval | memoized, interned [`MoverChecker`] |
//! | `bags` | element-order-oblivious multiset axioms | [`Multiset`]'s canonical representation |
//! | `reduce` | unreduced exhaustive exploration | ample-set reduced exploration (seq + steal) |
//!
//! An oracle never judges a program "wrong" — programs have no spec. It
//! judges two paths *inconsistent*, which is a bug in one of them by
//! construction. Programs whose state space exceeds the exploration budget
//! are skipped (reported as [`OracleOutcome::Skipped`]), not failed.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use inseq_core::IsApplication;
use inseq_engine::{Engine, ParallelExplorer, Reducer};
use inseq_kernel::ReduceMode;
use inseq_kernel::{
    ActionName, ActionOutcome, ConcurrentInterner, Config, Exploration, Explorer, GlobalStore,
    Multiset, PendingAsync, Program, StateUniverse,
};
use inseq_mover::MoverChecker;

use inseq_lang::spec::{BuiltSpec, ProgramSpec};
use inseq_lang::VmHooks;

/// Default per-oracle exploration budget (distinct configurations).
pub const DEFAULT_BUDGET: usize = 4_000;

/// One oracle of the battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// VM vs tree-walk interpreter, per `(reachable store, pending async)`.
    VmInterp,
    /// `check()` vs `check_with()` under 1/2/4 engine threads.
    CheckPaths,
    /// Interned config identity vs structural config equality.
    Intern,
    /// `MoverChecker` verdicts vs brute-force condition enumeration.
    Mover,
    /// Multiset axioms: insertion-order and permutation invariance.
    Bags,
    /// Reduced (`--reduce por`) vs unreduced exploration: verdicts must
    /// match and the reduced run must never invent behavior.
    Reduce,
}

impl Oracle {
    /// Every oracle, in battery order.
    pub const ALL: [Oracle; 6] = [
        Oracle::VmInterp,
        Oracle::CheckPaths,
        Oracle::Intern,
        Oracle::Mover,
        Oracle::Bags,
        Oracle::Reduce,
    ];

    /// The CLI name of the oracle.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Oracle::VmInterp => "vm-interp",
            Oracle::CheckPaths => "check-paths",
            Oracle::Intern => "intern",
            Oracle::Mover => "mover",
            Oracle::Bags => "bags",
            Oracle::Reduce => "reduce",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Oracle> {
        Oracle::ALL.iter().copied().find(|o| o.name() == name)
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Two redundant paths disagreed.
#[derive(Debug)]
pub struct Disagreement {
    /// The oracle that caught it.
    pub oracle: Oracle,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle `{}` disagreement: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for Disagreement {}

/// What a single oracle run concluded.
#[derive(Debug)]
pub enum OracleOutcome {
    /// The oracle ran to completion and both paths agreed.
    Checked,
    /// The oracle did not apply (state space over budget, spec failed to
    /// build, …). Never counts as disagreement.
    Skipped(String),
}

impl OracleOutcome {
    /// Whether the oracle actually checked anything.
    #[must_use]
    pub fn checked(&self) -> bool {
        matches!(self, OracleOutcome::Checked)
    }
}

/// Deliberate faults injected into one run — the test-only proof that the
/// oracles have teeth. A healthy run beside it, even concurrently, is
/// unaffected.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Hooks every build of the spec carries (e.g. a VM add offset).
    pub vm: VmHooks,
    /// Build the `reduce` oracle's reducer with [`Reducer::unsound_prune`].
    pub unsound_prune: bool,
}

fn explore(built: &BuiltSpec, budget: usize) -> Result<Exploration, String> {
    Explorer::new(&built.program)
        .with_budget(budget)
        .explore([built.init.clone()])
        .map_err(|e| e.to_string())
}

/// Runs one oracle on a spec.
///
/// # Errors
///
/// Returns the [`Disagreement`] when the oracle's two paths diverge.
pub fn run_oracle(
    oracle: Oracle,
    spec: &ProgramSpec,
    budget: usize,
) -> Result<OracleOutcome, Disagreement> {
    run_oracle_with(oracle, spec, budget, &Faults::default())
}

/// [`run_oracle`] with deliberate `faults` injected into this run alone.
///
/// # Errors
///
/// Returns the [`Disagreement`] when the oracle's two paths diverge.
#[doc(hidden)]
pub fn run_oracle_with(
    oracle: Oracle,
    spec: &ProgramSpec,
    budget: usize,
    faults: &Faults,
) -> Result<OracleOutcome, Disagreement> {
    let built = match spec.build_with(&faults.vm) {
        Ok(b) => b,
        Err(e) => return Ok(OracleOutcome::Skipped(format!("spec does not build: {e}"))),
    };
    let exploration = match explore(&built, budget) {
        Ok(x) => x,
        Err(e) => return Ok(OracleOutcome::Skipped(format!("exploration skipped: {e}"))),
    };
    match oracle {
        Oracle::VmInterp => vm_interp(&built, &exploration),
        Oracle::CheckPaths => check_paths(&built, budget),
        Oracle::Intern => intern(&exploration),
        Oracle::Mover => mover(&built, &exploration),
        Oracle::Bags => bags(&built, &exploration),
        Oracle::Reduce => reduce(&built, &exploration, budget, faults.unsound_prune),
    }
}

/// Runs several oracles; stops at the first disagreement.
///
/// # Errors
///
/// Returns the first [`Disagreement`].
pub fn run_battery(
    oracles: &[Oracle],
    spec: &ProgramSpec,
    budget: usize,
) -> Result<Vec<(Oracle, OracleOutcome)>, Disagreement> {
    oracles
        .iter()
        .map(|&o| run_oracle(o, spec, budget).map(|out| (o, out)))
        .collect()
}

/// `true` when `oracle` disagrees on `spec` — the shrinker's interest
/// predicate. Build failures, skips, and agreements all count as "no".
#[must_use]
pub fn disagrees(oracle: Oracle, spec: &ProgramSpec, budget: usize) -> bool {
    run_oracle(oracle, spec, budget).is_err()
}

// ---------------------------------------------------------------------------
// Oracle 1: VM vs interpreter
// ---------------------------------------------------------------------------

fn vm_interp(built: &BuiltSpec, exploration: &Exploration) -> Result<OracleOutcome, Disagreement> {
    let mut compared = 0usize;
    for config in exploration.configs() {
        for pa in config.pending.distinct() {
            let Some(action) = built.action(pa.action.as_str()) else {
                continue;
            };
            let Some(compiled) = action.eval_compiled(&config.globals, &pa.args) else {
                continue; // action not compilable; no fast path to compare
            };
            let interp = action.eval_interp(&config.globals, &pa.args);
            if compiled != interp {
                return Err(Disagreement {
                    oracle: Oracle::VmInterp,
                    detail: format!(
                        "`{}` at store {} with args {:?}: VM produced {:?}, interpreter {:?}",
                        pa.action, config.globals, pa.args, compiled, interp
                    ),
                });
            }
            compared += 1;
        }
    }
    if compared == 0 {
        return Ok(OracleOutcome::Skipped("no pending async to compare".into()));
    }
    Ok(OracleOutcome::Checked)
}

// ---------------------------------------------------------------------------
// Oracle 2: check() vs check_with()
// ---------------------------------------------------------------------------

/// A mechanical IS application over a generated program: eliminate every
/// non-entry action, with the entry action standing in for both the
/// invariant `I` and the replacement `M'`, identity abstractions (the
/// default), and a choice function picking the least eliminated pending
/// async. The premises frequently *fail* on random programs — that is the
/// point: both check paths must fail identically.
fn mechanical_application(built: &BuiltSpec, budget: usize) -> IsApplication {
    inseq_core::mechanical_application(&built.program, built.init.clone(), budget)
}

fn check_paths(built: &BuiltSpec, budget: usize) -> Result<OracleOutcome, Disagreement> {
    if built.program.action_names().count() < 2 {
        return Ok(OracleOutcome::Skipped(
            "single-action program: nothing to eliminate".into(),
        ));
    }
    let app = mechanical_application(built, budget);
    let sequential = app.check();

    let mut parallel_runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let engine = Engine::new().with_threads(threads);
        parallel_runs.push((threads, app.check_with(&engine)));
    }

    for (threads, run) in &parallel_runs {
        if sequential.is_ok() != run.is_ok() {
            return Err(Disagreement {
                oracle: Oracle::CheckPaths,
                detail: format!(
                    "check() {} but check_with({threads} threads) {}",
                    describe(&sequential.as_ref().map(|_| ()).map_err(|e| e.premise())),
                    describe(&run.as_ref().map(|_| ()).map_err(|e| e.premise())),
                ),
            });
        }
    }

    match &sequential {
        Ok(seq_report) => {
            for (threads, run) in &parallel_runs {
                let (par_report, engine_report) =
                    run.as_ref().expect("ok-ness agreement checked above");
                if !engine_report.all_passed() {
                    return Err(Disagreement {
                        oracle: Oracle::CheckPaths,
                        detail: format!(
                            "check_with({threads} threads) returned Ok but a scheduled job failed"
                        ),
                    });
                }
                if seq_report != par_report {
                    return Err(Disagreement {
                        oracle: Oracle::CheckPaths,
                        detail: format!(
                            "IS reports differ between check() and check_with({threads} threads): \
                             {seq_report:?} vs {par_report:?}"
                        ),
                    });
                }
            }
        }
        Err(_) => {
            // The two paths visit premises in different orders, so when
            // several premises fail independently the *sequential* and
            // *parallel* first-violations may legitimately name different
            // premises. What must hold: the job-DAG path is deterministic —
            // every engine width reports the same violated premise.
            let premises: Vec<&'static str> = parallel_runs
                .iter()
                .map(|(_, run)| match run {
                    Err(v) => v.premise(),
                    Ok(_) => unreachable!("ok-ness agreement checked above"),
                })
                .collect();
            if premises.windows(2).any(|w| w[0] != w[1]) {
                return Err(Disagreement {
                    oracle: Oracle::CheckPaths,
                    detail: format!(
                        "check_with premise differs across engine widths 1/2/4: {premises:?}"
                    ),
                });
            }
        }
    }
    Ok(OracleOutcome::Checked)
}

fn describe(r: &Result<(), &'static str>) -> String {
    match r {
        Ok(()) => "passed".to_owned(),
        Err(premise) => format!("violated premise {premise}"),
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: interned vs structural config identity
// ---------------------------------------------------------------------------

fn intern(exploration: &Exploration) -> Result<OracleOutcome, Disagreement> {
    let fail = |detail: String| {
        Err(Disagreement {
            oracle: Oracle::Intern,
            detail,
        })
    };
    // The explorer deduplicates through the same interner this oracle
    // re-interns with, so first check its visited set against plain
    // structural equality: no two visited configs may be equal.
    let structural: HashSet<&Config> = exploration.configs().collect();
    if structural.len() != exploration.config_count() {
        return fail(format!(
            "the explorer visited {} configs but only {} are structurally distinct",
            exploration.config_count(),
            structural.len()
        ));
    }
    let interner = ConcurrentInterner::new();
    let mut ids = Vec::new();
    for config in exploration.configs() {
        let (id, fresh) = interner.intern_config(config, None);
        if !fresh {
            // The explorer deduplicates structurally; a non-fresh intern of
            // a distinct exploration config means the interner conflated
            // two structurally different configurations.
            return fail(format!(
                "exploration config {config} interned as already-seen id {id:?}"
            ));
        }
        let (again, fresh_again) = interner.intern_config(config, None);
        if fresh_again || again != id {
            return fail(format!(
                "re-interning {config} gave ({again:?}, fresh={fresh_again}), expected ({id:?}, fresh=false)"
            ));
        }
        if interner.find_config(config) != Some(id) {
            return fail(format!(
                "find_config disagrees with intern_config for {config}"
            ));
        }
        let resolved = interner.resolve_config(id);
        if resolved != *config {
            return fail(format!(
                "resolve_config round-trip changed the config: {config} became {resolved}"
            ));
        }
        ids.push(id);
    }
    // Interned identity must induce exactly the structural quotient: as many
    // distinct ids as distinct configs.
    let distinct: BTreeSet<_> = ids.iter().collect();
    if distinct.len() != exploration.config_count() {
        return fail(format!(
            "{} structural configs produced {} interned identities",
            exploration.config_count(),
            distinct.len()
        ));
    }
    Ok(OracleOutcome::Checked)
}

// ---------------------------------------------------------------------------
// Oracle 4: MoverChecker vs brute force
// ---------------------------------------------------------------------------

/// Plain-eval mirror of the left/right mover conditions: no interning, no
/// memoization, structural comparison throughout. Disagreement with the
/// id-comparing [`MoverChecker`] exposes either an interner identity bug or
/// a checker logic bug.
struct BruteForce<'a> {
    program: &'a Program,
    universe: &'a StateUniverse,
}

impl BruteForce<'_> {
    fn eval(&self, pa: &PendingAsync, store: &GlobalStore) -> Option<ActionOutcome> {
        let action = self.program.action(&pa.action).ok()?;
        Some(action.eval(store, &pa.args))
    }

    /// Is there an execution `first; second` from `store` ending at
    /// `target` that creates exactly (`omega_first`, `omega_second`)?
    fn order_reaches(
        &self,
        first: &PendingAsync,
        second: &PendingAsync,
        store: &GlobalStore,
        target: &GlobalStore,
        omega_first: &Multiset<PendingAsync>,
        omega_second: &Multiset<PendingAsync>,
    ) -> bool {
        let Some(ActionOutcome::Transitions(first_ts)) = self.eval(first, store) else {
            return false;
        };
        for t1 in &first_ts {
            if t1.created != *omega_first {
                continue;
            }
            if let Some(ActionOutcome::Transitions(second_ts)) = self.eval(second, &t1.globals) {
                if second_ts
                    .iter()
                    .any(|t2| t2.globals == *target && t2.created == *omega_second)
                {
                    return true;
                }
            }
        }
        false
    }

    fn left_verdict(&self, name: &ActionName) -> bool {
        for (pa_l, pa_x, stores) in self.universe.coenabled_with_first(name) {
            if self.program.action(&pa_x.action).is_err() {
                continue;
            }
            for g in stores {
                let Some(l_out) = self.eval(pa_l, g) else {
                    continue;
                };
                let Some(x_out) = self.eval(pa_x, g) else {
                    continue;
                };
                let l_fails = l_out.is_failure();
                // (1) forward preservation of the mover's gate.
                if !l_fails {
                    if let ActionOutcome::Transitions(x_ts) = &x_out {
                        for t in x_ts {
                            if self.eval(pa_l, &t.globals).is_some_and(|o| o.is_failure()) {
                                return false;
                            }
                        }
                    }
                }
                // (2) backward preservation of the partner's gate.
                if let ActionOutcome::Transitions(l_ts) = &l_out {
                    if x_out.is_failure() {
                        for t in l_ts {
                            if self.eval(pa_x, &t.globals).is_some_and(|o| !o.is_failure()) {
                                return false;
                            }
                        }
                    }
                }
                // (3) commutation: x; l ⊑ l; x.
                if !l_fails {
                    if let ActionOutcome::Transitions(x_ts) = &x_out {
                        for tx in x_ts {
                            if let Some(ActionOutcome::Transitions(l_after)) =
                                self.eval(pa_l, &tx.globals)
                            {
                                for tl in &l_after {
                                    if !self.order_reaches(
                                        pa_l,
                                        pa_x,
                                        g,
                                        &tl.globals,
                                        &tl.created,
                                        &tx.created,
                                    ) {
                                        return false;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // (4) non-blocking wherever the gate holds.
        for (g, args) in self.universe.enabled_at(name) {
            let pa = PendingAsync::new(name.clone(), args.clone());
            if let Some(ActionOutcome::Transitions(ts)) = self.eval(&pa, g) {
                if ts.is_empty() {
                    return false;
                }
            }
        }
        true
    }

    fn right_verdict(&self, name: &ActionName) -> bool {
        for (pa_r, pa_x, stores) in self.universe.coenabled_with_first(name) {
            if self.program.action(&pa_x.action).is_err() {
                continue;
            }
            for g in stores {
                let Some(r_out) = self.eval(pa_r, g) else {
                    continue;
                };
                let Some(x_out) = self.eval(pa_x, g) else {
                    continue;
                };
                if let ActionOutcome::Transitions(r_ts) = &r_out {
                    // Dual of (1): the partner's gate survives the mover.
                    if !x_out.is_failure() {
                        for t in r_ts {
                            if self.eval(pa_x, &t.globals).is_some_and(|o| o.is_failure()) {
                                return false;
                            }
                        }
                    }
                    // Commutation: r; x ⊑ x; r.
                    for tr in r_ts {
                        if let Some(ActionOutcome::Transitions(x_ts)) = self.eval(pa_x, &tr.globals)
                        {
                            for tx in &x_ts {
                                if !self.order_reaches(
                                    pa_x,
                                    pa_r,
                                    g,
                                    &tx.globals,
                                    &tx.created,
                                    &tr.created,
                                ) {
                                    return false;
                                }
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

fn mover(built: &BuiltSpec, exploration: &Exploration) -> Result<OracleOutcome, Disagreement> {
    let universe = StateUniverse::from_exploration(exploration);
    let checker = MoverChecker::new(&built.program, &universe);
    let brute = BruteForce {
        program: &built.program,
        universe: &universe,
    };
    for name in built.program.action_names() {
        let action = built
            .program
            .action(name)
            .expect("iterating the program's own action names");
        let fast_left = checker.check_left(action, name).is_ok();
        let brute_left = brute.left_verdict(name);
        if fast_left != brute_left {
            return Err(Disagreement {
                oracle: Oracle::Mover,
                detail: format!(
                    "left-mover verdict for `{name}`: MoverChecker says {fast_left}, \
                     brute force says {brute_left}"
                ),
            });
        }
        let fast_right = checker.check_right(action, name).is_ok();
        let brute_right = brute.right_verdict(name);
        if fast_right != brute_right {
            return Err(Disagreement {
                oracle: Oracle::Mover,
                detail: format!(
                    "right-mover verdict for `{name}`: MoverChecker says {fast_right}, \
                     brute force says {brute_right}"
                ),
            });
        }
    }
    Ok(OracleOutcome::Checked)
}

// ---------------------------------------------------------------------------
// Oracle 5: multiset permutation invariance
// ---------------------------------------------------------------------------

fn bags(built: &BuiltSpec, exploration: &Exploration) -> Result<OracleOutcome, Disagreement> {
    let fail = |detail: String| {
        Err(Disagreement {
            oracle: Oracle::Bags,
            detail,
        })
    };
    let mut previous: Option<Multiset<PendingAsync>> = None;
    for config in exploration.configs() {
        let bag = &config.pending;
        let entries: Vec<(PendingAsync, usize)> =
            bag.iter_counts().map(|(pa, n)| (pa.clone(), n)).collect();

        // Canonical order: iter_counts ascends strictly.
        if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return fail(format!("iter_counts of {bag} is not strictly ascending"));
        }

        // Permutation invariance: rebuilding from entries in ascending,
        // descending, and element-interleaved order gives the same bag.
        let mut ascending = Multiset::new();
        for (pa, n) in &entries {
            ascending.insert_n(pa.clone(), *n);
        }
        let mut descending = Multiset::new();
        for (pa, n) in entries.iter().rev() {
            descending.insert_n(pa.clone(), *n);
        }
        let mut interleaved = Multiset::new();
        let occurrences: Vec<_> = bag.iter().collect();
        for pa in occurrences.into_iter().rev() {
            interleaved.insert(pa.clone());
        }
        if ascending != *bag || descending != *bag || interleaved != *bag {
            return fail(format!("insertion order changed the value of {bag}"));
        }

        // insert_n / remove_one round trip through every element.
        for (pa, n) in &entries {
            let mut copy = bag.clone();
            copy.insert_n(pa.clone(), 3);
            for _ in 0..3 {
                if !copy.remove_one(pa) {
                    return fail(format!("remove_one lost an occurrence of {pa}"));
                }
            }
            if copy != *bag {
                return fail(format!("insert_n(3)/remove_one×3 round trip changed {bag}"));
            }
            if copy.count(pa) != *n {
                return fail(format!("count of {pa} drifted through the round trip"));
            }
        }

        // Union commutes; inclusion agrees with checked subtraction.
        if let Some(prev) = &previous {
            let ab = prev.union(bag);
            let ba = bag.union(prev);
            if ab != ba {
                return fail(format!("union is not commutative on {prev} and {bag}"));
            }
            if ab.checked_sub(bag).as_ref() != Some(prev) {
                return fail(format!("(a ∪ b) ∖ b ≠ a for a={prev}, b={bag}"));
            }
            if prev.includes(bag) != prev.checked_sub(bag).is_some() {
                return fail(format!(
                    "includes and checked_sub disagree on {prev} ⊇ {bag}"
                ));
            }
        }
        previous = Some(bag.clone());
    }
    // Also exercise bags produced as action outcomes, not just explored ones.
    let _ = built;
    Ok(OracleOutcome::Checked)
}

// ---------------------------------------------------------------------------
// Oracle 6: reduced vs unreduced exploration
// ---------------------------------------------------------------------------

fn reduce(
    built: &BuiltSpec,
    exploration: &Exploration,
    budget: usize,
    unsound_prune: bool,
) -> Result<OracleOutcome, Disagreement> {
    let fail = |detail: String| {
        Err(Disagreement {
            oracle: Oracle::Reduce,
            detail,
        })
    };
    // Only ample-set pruning is on trial: generated specs carry no symmetry,
    // so `por` is the whole reduction surface a fuzz program can exercise.
    let mut reducer = Reducer::new(ReduceMode::Por);
    if unsound_prune {
        reducer = reducer.unsound_prune();
    }
    let terminals: BTreeSet<&GlobalStore> = exploration.terminal_stores().collect();
    let runs = [
        ("seq", {
            Explorer::new(&built.program)
                .with_budget(budget)
                .with_reduction(&reducer)
                .explore([built.init.clone()])
                .map(|x| {
                    (
                        x.config_count(),
                        x.has_failure(),
                        x.has_deadlock(),
                        x.terminal_stores().cloned().collect::<BTreeSet<_>>(),
                    )
                })
                .map_err(|e| e.to_string())
        }),
        ("steal w=2", {
            ParallelExplorer::new(&built.program)
                .with_workers(2)
                .with_budget(budget)
                .with_reduction(&reducer)
                .explore([built.init.clone()])
                .map(|x| {
                    (
                        x.config_count(),
                        x.has_failure(),
                        x.has_deadlock(),
                        x.terminal_stores().cloned().collect::<BTreeSet<_>>(),
                    )
                })
                .map_err(|e| e.to_string())
        }),
    ];
    for (label, run) in runs {
        let (visited, failed, deadlocked, reduced_terminals) = match run {
            Ok(v) => v,
            // A reduced run that exhausts the budget the unreduced run fit in
            // would itself be a reduction bug, but the error carries reduced
            // frontier counts, not a verdict — treat it as a skip and let the
            // visited-count check below catch real blowups on specs where
            // both runs finish.
            Err(e) => return Ok(OracleOutcome::Skipped(format!("[{label}] {e}"))),
        };
        if failed != exploration.has_failure() {
            return fail(format!(
                "[{label}] reduced failure verdict {failed} vs unreduced {}",
                exploration.has_failure()
            ));
        }
        if deadlocked != exploration.has_deadlock() {
            return fail(format!(
                "[{label}] reduced deadlock verdict {deadlocked} vs unreduced {}",
                exploration.has_deadlock()
            ));
        }
        if visited > exploration.config_count() {
            return fail(format!(
                "[{label}] reduction visited {visited} configs, more than the unreduced {}",
                exploration.config_count()
            ));
        }
        // One-sided terminal contract: pruning may drop interleaving-specific
        // finals but can never invent one.
        if let Some(invented) = reduced_terminals.iter().find(|t| !terminals.contains(t)) {
            return fail(format!(
                "[{label}] reduction invented a terminal store: {invented}"
            ));
        }
    }
    Ok(OracleOutcome::Checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn battery_agrees_on_a_spread_of_generated_programs() {
        let config = GenConfig::default();
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = generate(&mut rng, &config);
            run_battery(&Oracle::ALL, &spec, DEFAULT_BUDGET)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn oracle_names_round_trip() {
        for o in Oracle::ALL {
            assert_eq!(Oracle::from_name(o.name()), Some(o));
        }
        assert_eq!(Oracle::from_name("nope"), None);
    }
}
