//! The IS rule as a list of obligations, the one driver that discharges
//! them, and a content-addressed result cache.
//!
//! [`IsApplication::obligations`] lists the Fig. 3 premises in canonical
//! order. [`check`](IsApplication::check),
//! [`check_on`](IsApplication::check_on) and
//! [`check_incremental`](IsApplication::check_incremental) discharge that
//! list through one driver and differ only in who explores (the driver or
//! the caller), the executor (in-thread, or one engine job per obligation)
//! and whether an [`ObligationCache`] answers first. The first failure in
//! canonical order is the verdict, so all three name the same premise.
//!
//! Each obligation gets a *content key* derived from
//!
//! * the content hashes of the actions the obligation actually evaluates
//!   (supplied by the caller as [`ArtifactKeys`] — the daemon derives them
//!   from the canonical s-expression text), and
//! * the slice of the state universe the obligation reads, *projected onto
//!   the global slots in the footprints of those actions*.
//!
//! Two submissions that agree on an obligation's key are guaranteed to
//! agree on its verdict, because every input the premise check consumes is
//! either hashed directly (action contents, arguments, the eliminated set)
//! or is a deterministic function of hashed inputs restricted to the hashed
//! store coordinates. An edit that only touches globals outside an
//! obligation's footprint therefore leaves its key — and its cached verdict
//! — intact, which is exactly the footprint-incremental re-checking the
//! daemon exposes: only obligations whose footprints intersect the edit are
//! re-discharged.
//!
//! Obligations whose inputs cannot be content-addressed (custom abstraction
//! closures, opaque native footprints, non-standard measures) are simply
//! never cached; the checker falls back to recomputing them, so caching is
//! an optimisation layer that cannot change verdicts.
//!
//! The exploration prefix itself is *not* cached at obligation granularity
//! — the universe must be rebuilt to compute the projections — but a fully
//! identical submission (same program, artifacts, instances, and budget)
//! short-circuits through a whole-run cache before exploring anything.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use inseq_engine::{Engine, Job};
use inseq_kernel::hash::{fx_hash, mix};
use inseq_kernel::{ActionName, ActionSemantics, Config, Footprint, GlobalStore, Program, Value};
use inseq_mover::{MoverChecker, MoverStats};
use inseq_obs::{HitMiss, HitMissSnapshot, PhaseStat};

use crate::measure::Measure;
use crate::rule::{Artifacts, CheckPrep, Explore, IsApplication, IsReport, IsStats, IsViolation};

// ---------------------------------------------------------------------------
// Obligations
// ---------------------------------------------------------------------------

/// One premise instance of the IS rule (Fig. 3), at the granularity the
/// engine schedules and the cache keys: per-action for `A ≼ α(A)`, (LM)
/// and (CO); whole-rule for (I1), (I2) and (I3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObligationKind {
    /// `A ≼ α(A)` for one eliminated action.
    AbstractionSound(ActionName),
    /// Premise (I1): `M ≼ I` at every target input.
    InvariantBase,
    /// Premise (I2): `I` restricted to PA_E-free transitions refines `M'`.
    Replacement,
    /// Premise (I3): absorbing the chosen PA into the invariant is inductive.
    Induction,
    /// Premise (LM) for one eliminated action.
    LeftMover(ActionName),
    /// Premise (CO) for one eliminated action.
    Cooperation(ActionName),
}

impl ObligationKind {
    /// The display label: the one spelling of each premise, shared by
    /// engine job names, premise phase stats and daemon responses.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ObligationKind::AbstractionSound(a) => format!("{a} ≼ α"),
            ObligationKind::InvariantBase => "(I1) M ≼ I".to_owned(),
            ObligationKind::Replacement => "(I2) I∖PA_E ≼ M'".to_owned(),
            ObligationKind::Induction => "(I3) induction".to_owned(),
            ObligationKind::LeftMover(a) => format!("(LM) {a}"),
            ObligationKind::Cooperation(a) => format!("(CO) {a}"),
        }
    }
}

impl fmt::Display for ObligationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The outcome of one obligation, as streamed to the caller and recorded in
/// the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationOutcome {
    /// Which obligation this is.
    pub kind: ObligationKind,
    /// Whether the premise held.
    pub passed: bool,
    /// The violated premise's stable label (e.g. `"I1"`, `"LM"`), when it
    /// failed.
    pub premise: Option<String>,
    /// The violation rendering — including any witness trace — when it
    /// failed.
    pub message: Option<String>,
    /// Whether this verdict was answered from the cache rather than
    /// recomputed.
    pub cached: bool,
    /// Wall-clock time spent discharging it; zero for cache hits.
    pub wall: Duration,
}

/// The result of an incremental check: the usual [`IsReport`], the
/// per-obligation outcomes in canonical premise order, and the first
/// failure (in that order) if any.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// The report with the same deterministic counts [`IsApplication::check`]
    /// would produce.
    pub report: IsReport,
    /// Per-obligation outcomes, in the premise order of
    /// [`IsApplication::check`].
    pub outcomes: Vec<ObligationOutcome>,
    /// The first failing obligation in canonical order, if any — the same
    /// premise and message `check()` would have returned as its `Err`.
    pub failure: Option<ObligationOutcome>,
    /// Whether the entire run — exploration included — was answered from
    /// the whole-run cache.
    pub full_hit: bool,
}

impl IncrementalReport {
    /// Whether every premise held.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failure.is_none()
    }
}

// ---------------------------------------------------------------------------
// Artifact keys
// ---------------------------------------------------------------------------

/// Caller-supplied content hashes for the program and proof artifacts.
///
/// The contract making the cache sound: **equal keys must imply
/// semantically identical artifacts**. The daemon derives them from the
/// canonical s-expression rendering (`inseq_lang::serial::canonical_hash`
/// and `action_hash`), which normalises away formatting but nothing else.
/// Artifacts without a faithful key (e.g. a hand-written abstraction
/// closure) are handled by *omitting* their entry, which makes the
/// obligations depending on them uncacheable rather than unsound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKeys {
    /// Content hash of the whole program (globals, entry, pending, actions).
    pub program: u64,
    /// Per-action content hashes; obligations touching an action absent
    /// from this map are never cached.
    pub actions: BTreeMap<ActionName, u64>,
    /// Content hash of the invariant action `I`.
    pub invariant: u64,
    /// Content hash of the replacement action `M'`.
    pub replacement: u64,
    /// Content hash of the choice function `f`.
    pub choice: u64,
}

impl ArtifactKeys {
    /// Keys for a [`mechanical_application`] over a program whose actions
    /// hash to `actions`: the entry action doubles as invariant and
    /// replacement, and the choice function is determined by the eliminated
    /// name set.
    ///
    /// # Panics
    ///
    /// Panics if `actions` has no entry for `main`.
    #[must_use]
    pub fn mechanical(program: u64, actions: BTreeMap<ActionName, u64>, main: &ActionName) -> Self {
        let main_key = *actions.get(main).expect("entry action has a content hash");
        let eliminated: Vec<&ActionName> = actions.keys().filter(|n| *n != main).collect();
        let choice = mix(fx_hash("mechanical-least-pa"), fx_hash(&eliminated));
        ArtifactKeys {
            program,
            actions,
            invariant: main_key,
            replacement: main_key,
            choice,
        }
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// A stored outcome as a cache hit reports it: nothing ran, so no wall.
fn served(outcome: &ObligationOutcome) -> ObligationOutcome {
    ObligationOutcome {
        cached: true,
        wall: Duration::ZERO,
        ..outcome.clone()
    }
}

/// Stored outcomes keep their kind: every key mixes in the kind's label.
#[derive(Debug, Default)]
struct CacheInner {
    obligations: HashMap<u64, ObligationOutcome>,
    full: HashMap<u64, (IsReport, Vec<ObligationOutcome>)>,
}

/// A content-addressed store of obligation verdicts and whole-run reports,
/// shared between submissions (and daemon connections). Internally
/// synchronised; lookups and hit/miss traffic are observable through
/// [`HitMiss`] counters.
#[derive(Debug, Default)]
pub struct ObligationCache {
    inner: Mutex<CacheInner>,
    obligation_lookups: HitMiss,
    full_lookups: HitMiss,
}

impl ObligationCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ObligationCache::default()
    }

    /// Hit/miss traffic of per-obligation lookups. Uncacheable obligations
    /// are not counted: they never reach the cache.
    #[must_use]
    pub fn obligation_stats(&self) -> HitMissSnapshot {
        self.obligation_lookups.snapshot()
    }

    /// Hit/miss traffic of whole-run lookups.
    #[must_use]
    pub fn full_stats(&self) -> HitMissSnapshot {
        self.full_lookups.snapshot()
    }

    /// Number of cached obligation verdicts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").obligations.len()
    }

    /// Whether no obligation verdicts are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup_obligation(&self, key: u64) -> Option<ObligationOutcome> {
        let inner = self.inner.lock().expect("cache poisoned");
        let found = inner.obligations.get(&key).map(served);
        drop(inner);
        match &found {
            Some(_) => self.obligation_lookups.hits.incr(),
            None => self.obligation_lookups.misses.incr(),
        }
        found
    }

    fn store_obligation(&self, key: u64, outcome: &ObligationOutcome) {
        self.inner
            .lock()
            .expect("cache poisoned")
            .obligations
            .insert(key, outcome.clone());
    }

    fn lookup_full(&self, key: u64) -> Option<(IsReport, Vec<ObligationOutcome>)> {
        let inner = self.inner.lock().expect("cache poisoned");
        let found = inner
            .full
            .get(&key)
            .map(|(report, outcomes)| (report.clone(), outcomes.iter().map(served).collect()));
        drop(inner);
        match &found {
            Some(_) => self.full_lookups.hits.incr(),
            None => self.full_lookups.misses.incr(),
        }
        found
    }

    fn store_full(&self, key: u64, report: &IsReport, outcomes: &[ObligationOutcome]) {
        // Statistics belong to the run that produced them; a later hit
        // records its own.
        let counts = IsReport {
            stats: IsStats::default(),
            ..report.clone()
        };
        self.inner
            .lock()
            .expect("cache poisoned")
            .full
            .insert(key, (counts, outcomes.to_vec()));
    }
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

/// Hash of `store` restricted to the slots in `indices`.
fn project_store(store: &GlobalStore, indices: &BTreeSet<usize>) -> u64 {
    let slice: Vec<(usize, &Value)> = indices
        .iter()
        .filter(|&&i| i < store.len())
        .map(|&i| (i, store.get(i)))
        .collect();
    fx_hash(&slice)
}

/// Order-independent hash of a collection of per-item hashes, with *set*
/// semantics: duplicates are collapsed before hashing. An obligation holds
/// iff it holds on every one of its inputs, so multiplicity never affects
/// the verdict — and after footprint projection, distinct full stores
/// routinely collapse onto one projected store, with a multiplicity that
/// depends on the projected-*out* coordinates. Keeping duplicates would
/// leak those coordinates into the key and veto sharing across
/// footprint-disjoint edits.
fn combine_unordered(mut hashes: Vec<u64>) -> u64 {
    hashes.sort_unstable();
    hashes.dedup();
    fx_hash(&hashes)
}

fn indices_of(fps: &[&Footprint]) -> BTreeSet<usize> {
    fps.iter().flat_map(|fp| fp.key_indices()).collect()
}

/// Per-obligation cache-key derivation over one prepared universe. `None`
/// anywhere means "uncacheable": a footprint or content hash is missing, so
/// the obligation is recomputed unconditionally.
struct KeyDeriver<'a> {
    app: &'a IsApplication,
    keys: &'a ArtifactKeys,
    invariant_fp: Option<Footprint>,
    replacement_fp: Option<Footprint>,
    eliminated_hash: u64,
}

impl<'a> KeyDeriver<'a> {
    fn new(
        app: &'a IsApplication,
        keys: &'a ArtifactKeys,
        invariant: &Arc<dyn ActionSemantics>,
        replacement: &Arc<dyn ActionSemantics>,
    ) -> Self {
        KeyDeriver {
            app,
            keys,
            invariant_fp: invariant.footprint(),
            replacement_fp: replacement.footprint(),
            eliminated_hash: fx_hash(app.eliminated()),
        }
    }

    /// Content hash and footprint of a program action.
    fn action(&self, name: &ActionName) -> Option<(u64, Footprint)> {
        let key = *self.keys.actions.get(name)?;
        let fp = self.app.program().action(name).ok()?.footprint()?;
        Some((key, fp))
    }

    /// Content hash and footprint of `α(name)`. Custom abstractions have no
    /// faithful content key, so they make the obligation uncacheable.
    fn alpha(&self, name: &ActionName) -> Option<(u64, Footprint)> {
        if self.app.has_custom_abstraction(name) {
            return None;
        }
        self.action(name)
    }

    /// Hash of the `(store, args)` pairs at which `name` is enabled,
    /// projected onto `indices`.
    fn enabled_slice(&self, prep: &CheckPrep, name: &ActionName, indices: &BTreeSet<usize>) -> u64 {
        combine_unordered(
            prep.universe
                .enabled_inputs(name)
                .map(|(g, args)| mix(project_store(g, indices), fx_hash(args)))
                .collect(),
        )
    }

    /// Hash of the target inputs projected onto `indices`.
    fn target_slice(&self, prep: &CheckPrep, indices: &BTreeSet<usize>) -> u64 {
        combine_unordered(
            prep.target_inputs()
                .map(|(g, args)| mix(project_store(g, indices), fx_hash(args)))
                .collect(),
        )
    }

    fn key(&self, prep: &CheckPrep, kind: &ObligationKind) -> Option<u64> {
        let label = fx_hash(&kind.label());
        let body = match kind {
            ObligationKind::AbstractionSound(a) => {
                let (concrete_key, concrete_fp) = self.action(a)?;
                let (alpha_key, alpha_fp) = self.alpha(a)?;
                let idx = indices_of(&[&concrete_fp, &alpha_fp]);
                mix(
                    mix(concrete_key, alpha_key),
                    self.enabled_slice(prep, a, &idx),
                )
            }
            ObligationKind::InvariantBase => {
                let (target_key, target_fp) = self.action(self.app.target())?;
                let inv_fp = self.invariant_fp.as_ref()?;
                let idx = indices_of(&[&target_fp, inv_fp]);
                mix(
                    mix(target_key, self.keys.invariant),
                    self.target_slice(prep, &idx),
                )
            }
            ObligationKind::Replacement => {
                // (I2) filters created PAs by the eliminated set, so the
                // set's names are part of the key.
                let inv_fp = self.invariant_fp.as_ref()?;
                let repl_fp = self.replacement_fp.as_ref()?;
                let idx = indices_of(&[inv_fp, repl_fp]);
                mix(
                    mix(
                        mix(self.keys.invariant, self.keys.replacement),
                        self.eliminated_hash,
                    ),
                    self.target_slice(prep, &idx),
                )
            }
            ObligationKind::Induction => {
                // (I3) evaluates the invariant, the choice function, and
                // the abstraction of any chosen action, at stores reached
                // from the target inputs through the invariant.
                let inv_fp = self.invariant_fp.as_ref()?;
                let mut fps: Vec<&Footprint> = vec![inv_fp];
                let mut deps = mix(
                    mix(self.keys.invariant, self.keys.choice),
                    self.eliminated_hash,
                );
                let alphas: Vec<(u64, Footprint)> = self
                    .app
                    .eliminated()
                    .iter()
                    .map(|a| self.alpha(a))
                    .collect::<Option<_>>()?;
                for (key, _) in &alphas {
                    deps = mix(deps, *key);
                }
                fps.extend(alphas.iter().map(|(_, fp)| fp));
                let idx = indices_of(&fps);
                mix(deps, self.target_slice(prep, &idx))
            }
            ObligationKind::LeftMover(a) => {
                let (alpha_key, alpha_fp) = self.alpha(a)?;
                // Partners with footprints disjoint from α(a) commute with
                // it regardless of their content, so only overlapping
                // partners contribute their content hash. The co-enabled
                // stores are projected per pair onto both footprints.
                let interner = prep.universe.interner();
                let mut partner: BTreeMap<&ActionName, (u64, Footprint)> = BTreeMap::new();
                for (_, x, _) in prep.universe.coenabled_with_first(a) {
                    let x = &interner.pa(x).action;
                    if !partner.contains_key(x) {
                        partner.insert(x, self.action(x)?);
                    }
                }
                let mut deps = alpha_key;
                for (x_key, x_fp) in partner.values() {
                    if x_fp.overlaps(&alpha_fp) {
                        deps = mix(deps, *x_key);
                    }
                }
                let mut pair_hashes = Vec::new();
                for (l, x, stores) in prep.universe.coenabled_with_first(a) {
                    let (pa_l, pa_x) = (interner.pa(l), interner.pa(x));
                    let (_, x_fp) = &partner[&pa_x.action];
                    let idx = indices_of(&[&alpha_fp, x_fp]);
                    let stores_hash = combine_unordered(
                        stores
                            .iter()
                            .map(|&g| project_store(interner.store(g), &idx))
                            .collect(),
                    );
                    pair_hashes.push(mix(mix(fx_hash(&pa_l.args), fx_hash(&pa_x)), stores_hash));
                }
                mix(deps, combine_unordered(pair_hashes))
            }
            ObligationKind::Cooperation(a) => {
                // The measure is an opaque closure; only the standard
                // pending-async-count measure (which reads no globals) is
                // recognised as content-addressable by its label.
                if self.app.measure_label() != Measure::pending_async_count().label() {
                    return None;
                }
                let (alpha_key, alpha_fp) = self.alpha(a)?;
                let idx = indices_of(&[&alpha_fp]);
                mix(
                    mix(alpha_key, fx_hash(self.app.measure_label())),
                    self.enabled_slice(prep, a, &idx),
                )
            }
        };
        Some(mix(label, body))
    }

    /// The whole-run key: every artifact plus instances and budget. `None`
    /// when any eliminated action carries a custom abstraction (whose
    /// content cannot be keyed).
    fn full_key(&self) -> Option<u64> {
        for a in self.app.eliminated() {
            if self.app.has_custom_abstraction(a) {
                return None;
            }
        }
        let mut key = self.keys.program;
        key = mix(key, fx_hash(self.app.target()));
        key = mix(key, self.eliminated_hash);
        key = mix(key, self.keys.invariant);
        key = mix(key, self.keys.replacement);
        key = mix(key, self.keys.choice);
        key = mix(key, fx_hash(self.app.measure_label()));
        key = mix(key, fx_hash(&self.app.instances()));
        key = mix(key, self.app.budget_limit() as u64);
        Some(key)
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Who discharges the obligations the cache did not answer.
pub(crate) enum Executor<'e> {
    /// The calling thread, in canonical order, stopping at the first
    /// failure. Every (LM) obligation shares one [`MoverChecker`], so its
    /// evaluation cache spans the eliminated actions.
    InThread,
    /// One engine job per obligation. The checker is `!Sync`, so each (LM)
    /// job builds its own.
    Engine(&'e Engine),
}

/// An obligation's outcome, and its violation when it failed in this run.
type Discharged = (ObligationOutcome, Option<IsViolation>);

fn outcome_of(
    kind: &ObligationKind,
    result: Result<(), IsViolation>,
    wall: Duration,
) -> Discharged {
    let failure = result.as_ref().err();
    let outcome = ObligationOutcome {
        kind: kind.clone(),
        passed: failure.is_none(),
        premise: failure.map(|v| v.premise().to_owned()),
        message: failure.map(ToString::to_string),
        cached: false,
        wall,
    };
    (outcome, result.err())
}

/// One run of the driver.
pub(crate) struct Run {
    pub(crate) incremental: IncrementalReport,
    /// The violation behind `incremental.failure`, unless the cache served
    /// that failure.
    violation: Option<IsViolation>,
}

impl Run {
    /// The run itself when every discharged premise held, else the first
    /// violation in canonical order.
    pub(crate) fn verdict(self) -> Result<Self, IsViolation> {
        if self.incremental.failure.is_none() {
            return Ok(self);
        }
        Err(self
            .violation
            .expect("runs without a cache keep their violations"))
    }
}

impl IncrementalReport {
    fn new(report: IsReport, outcomes: Vec<ObligationOutcome>, full_hit: bool) -> Self {
        let failure = outcomes.iter().find(|o| !o.passed).cloned();
        IncrementalReport {
            report,
            outcomes,
            failure,
            full_hit,
        }
    }
}

impl IsApplication {
    /// The obligations of this application, in canonical premise order:
    /// abstraction soundness per eliminated action, (I1), (I2), (I3), then
    /// (LM) and (CO) per eliminated action. Every check path discharges
    /// exactly this list.
    #[must_use]
    pub fn obligations(&self) -> Vec<ObligationKind> {
        let mut v = Vec::new();
        for a in self.eliminated() {
            v.push(ObligationKind::AbstractionSound(a.clone()));
        }
        v.push(ObligationKind::InvariantBase);
        v.push(ObligationKind::Replacement);
        v.push(ObligationKind::Induction);
        for a in self.eliminated() {
            v.push(ObligationKind::LeftMover(a.clone()));
        }
        for a in self.eliminated() {
            v.push(ObligationKind::Cooperation(a.clone()));
        }
        v
    }

    /// The driver behind every check path: resolves the artifacts, answers
    /// an identical earlier run from `cache`, explores the instances,
    /// [`discharge`](IsApplication::discharge)s the obligations and records
    /// this run's statistics.
    ///
    /// # Errors
    ///
    /// Returns `Err` only when there is no verdict: a structural problem, a
    /// failed exploration, or an obligation the engine did not run.
    pub(crate) fn drive(
        &self,
        explore: Explore<'_>,
        executor: Executor<'_>,
        cache: Option<(&ObligationCache, &ArtifactKeys)>,
        on_outcome: &(dyn Fn(&ObligationOutcome) + Sync),
    ) -> Result<Run, IsViolation> {
        let artifacts = self.artifacts()?;
        let cache = cache.map(|(store, keys)| {
            let deriver = KeyDeriver::new(self, keys, artifacts.invariant, artifacts.replacement);
            (store, deriver)
        });
        let full = cache
            .as_ref()
            .and_then(|(store, deriver)| Some((*store, deriver.full_key()?)));

        // Whole-run short-circuit: an identical submission skips even the
        // exploration. Nothing runs, so nothing is timed or counted.
        if let Some((mut report, outcomes)) = full.and_then(|(store, key)| store.lookup_full(key)) {
            outcomes.iter().for_each(on_outcome);
            self.record_stats(
                &mut report,
                Duration::ZERO,
                &outcomes,
                MoverStats::default(),
            );
            return Ok(Run {
                incremental: IncrementalReport::new(report, outcomes, true),
                violation: None,
            });
        }

        let started = Instant::now();
        let prep = self.prepare(explore, artifacts.invariant)?;
        let explore_wall = started.elapsed();
        let cache = cache.as_ref().map(|(store, deriver)| (*store, deriver));
        let (discharged, mover) = self.discharge(&prep, &artifacts, executor, cache, on_outcome)?;
        let (outcomes, mut violations): (Vec<_>, Vec<_>) = discharged.into_iter().unzip();
        let violation = outcomes
            .iter()
            .position(|o| !o.passed)
            .and_then(|i| violations[i].take());

        let mut report = prep.report;
        self.record_stats(&mut report, explore_wall, &outcomes, mover);
        if let Some((store, key)) = full {
            store.store_full(key, &report, &outcomes);
        }
        Ok(Run {
            incremental: IncrementalReport::new(report, outcomes, false),
            violation,
        })
    }

    /// Discharges the obligations over `prep`: cache hits first, streamed in
    /// canonical order, then the misses on `executor`. Returns the outcomes
    /// in canonical order and the mover checkers' statistics.
    fn discharge(
        &self,
        prep: &CheckPrep,
        artifacts: &Artifacts<'_>,
        executor: Executor<'_>,
        cache: Option<(&ObligationCache, &KeyDeriver<'_>)>,
        on_outcome: &(dyn Fn(&ObligationOutcome) + Sync),
    ) -> Result<(Vec<Discharged>, MoverStats), IsViolation> {
        let obligations = self.obligations();
        let mut slots: Vec<Option<Discharged>> = Vec::with_capacity(obligations.len());
        let mut misses: Vec<(usize, Option<u64>)> = Vec::new();
        for (i, kind) in obligations.iter().enumerate() {
            let key = cache.and_then(|(_, deriver)| deriver.key(prep, kind));
            let hit = cache
                .zip(key)
                .and_then(|((store, _), k)| store.lookup_obligation(k));
            if let Some(outcome) = &hit {
                on_outcome(outcome);
            } else {
                misses.push((i, key));
            }
            slots.push(hit.map(|outcome| (outcome, None)));
        }

        let run_one = |i: usize, key: Option<u64>, mover: &OnceCell<_>| {
            let kind = &obligations[i];
            let started = Instant::now();
            let result = match kind {
                ObligationKind::AbstractionSound(a) => self.check_abstraction_sound(prep, a),
                ObligationKind::InvariantBase => self.check_i1(prep, artifacts.invariant),
                ObligationKind::Replacement => self.check_i2(prep, artifacts.replacement),
                ObligationKind::Induction => self.check_i3(prep, artifacts.choice),
                ObligationKind::LeftMover(a) => {
                    let checker =
                        mover.get_or_init(|| MoverChecker::new(self.program(), &prep.universe));
                    self.check_left_mover(prep, a, checker)
                }
                ObligationKind::Cooperation(a) => self.check_cooperation(prep, a),
            };
            let (outcome, violation) = outcome_of(kind, result, started.elapsed());
            if let Some(((store, _), k)) = cache.zip(key) {
                store.store_obligation(k, &outcome);
            }
            on_outcome(&outcome);
            (outcome, violation)
        };

        let mut mover_stats = MoverStats::default();
        // Why the engine did not complete its first unfinished obligation.
        // Only engine jobs leave a slot empty, so that obligation is the
        // first one left undischarged below.
        let mut not_run = None;
        match executor {
            Executor::InThread => {
                let mover = OnceCell::new();
                for (i, key) in misses {
                    let (outcome, violation) = run_one(i, key, &mover);
                    let failed = !outcome.passed;
                    slots[i] = Some((outcome, violation));
                    if failed {
                        break;
                    }
                }
                mover_stats = mover.get().map(MoverChecker::stats).unwrap_or_default();
            }
            Executor::Engine(engine) => {
                let table = Mutex::new((&mut slots, &mut mover_stats));
                let (run_one, shared) = (&run_one, &table);
                let jobs: Vec<Job<'_>> = misses
                    .iter()
                    .map(|&(i, key)| -> Job<'_> {
                        Box::new(move || {
                            let mover = OnceCell::new();
                            let discharged = run_one(i, key, &mover);
                            let mut table = shared.lock().expect("outcome table poisoned");
                            table.0[i] = Some(discharged);
                            if let Some(checker) = mover.into_inner() {
                                *table.1 = table.1.merged(checker.stats());
                            }
                        })
                    })
                    .collect();
                not_run = engine.run(jobs).into_iter().find_map(Result::err);
            }
        }

        // Outcomes up to the first obligation left undischarged. Without a
        // failure before it — the engine rejected its job (shutting down) or
        // the job panicked — there is no verdict.
        let discharged: Vec<Discharged> = slots.into_iter().map_while(|s| s).collect();
        if let Some(kind) = obligations.get(discharged.len()) {
            if discharged.iter().all(|(o, _)| o.passed) {
                let reason = not_run.unwrap_or_default();
                return Err(IsViolation::Exploration {
                    message: format!("obligation `{kind}` was not discharged: {reason}"),
                });
            }
        }
        Ok((discharged, mover_stats))
    }

    /// Records this run's statistics in `report`: the mover checkers'
    /// traffic, the evaluation-backend counters, and the premise phases —
    /// `"explore"` first, then each outcome in canonical order.
    fn record_stats(
        &self,
        report: &mut IsReport,
        explore_wall: Duration,
        outcomes: &[ObligationOutcome],
        mover: MoverStats,
    ) {
        let explore = PhaseStat::new("explore", explore_wall, report.reachable_configs);
        let obligations = outcomes
            .iter()
            .map(|o| PhaseStat::new(o.kind.label(), o.wall, 0));
        let stats = &mut report.stats;
        stats.mover_cache = mover.eval_cache;
        stats.pairwise_checks = mover.pairwise_checks;
        stats.exec = self.program().exec_stats();
        stats.premises = std::iter::once(explore).chain(obligations).collect();
    }

    /// Checks all premises like [`check`](IsApplication::check), but answers
    /// content-addressed obligations from `cache` and schedules the rest as
    /// concurrent jobs on `engine`. Every obligation's outcome is pushed to
    /// `on_outcome` as soon as it is known — cache hits immediately (in
    /// canonical order), recomputed ones as their jobs finish.
    ///
    /// The verdict is bit-equal to `check`'s: the same deterministic counts
    /// in the report, and — when premises fail — the first failure in
    /// canonical premise order carries the same premise label and rendered
    /// message (witness traces included, since the universe is prepared on
    /// the same sequential explorer). Unlike `check`, *all* obligations are
    /// discharged rather than stopping at the first failure, so their
    /// verdicts populate the cache for later submissions.
    ///
    /// The report's statistics belong to this run: on a whole-run cache hit
    /// nothing is explored or discharged, so every premise wall is zero and
    /// there is no interner or mover traffic.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for the shared prefix — structural problems or a
    /// failed exploration — exactly as `check` does, or when the engine does
    /// not run an obligation. Premise violations are reported through
    /// [`IncrementalReport::failure`], not `Err`.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned.
    pub fn check_incremental(
        &self,
        engine: &Engine,
        cache: &ObligationCache,
        keys: &ArtifactKeys,
        on_outcome: &(dyn Fn(&ObligationOutcome) + Sync),
    ) -> Result<IncrementalReport, IsViolation> {
        let executor = Executor::Engine(engine);
        let run = self.drive(
            Explore::Sequential,
            executor,
            Some((cache, keys)),
            on_outcome,
        )?;
        Ok(run.incremental)
    }
}

// ---------------------------------------------------------------------------
// Mechanical applications
// ---------------------------------------------------------------------------

/// A mechanical IS application over a program: eliminate every non-entry
/// action, with the entry action standing in for both the invariant `I` and
/// the replacement `M'`, identity abstractions, the pending-async-count
/// measure, and a choice function picking the least eliminated pending
/// async. This is the application the verification daemon constructs for
/// submitted programs, and the one the fuzzer's cross-path oracle uses; the
/// premises may well *fail* — the point is a deterministic, fully
/// content-addressable application.
///
/// # Panics
///
/// Panics if the program's entry action is not defined — impossible for
/// programs built through [`inseq_kernel::ProgramBuilder`].
#[must_use]
pub fn mechanical_application(program: &Program, init: Config, budget: usize) -> IsApplication {
    let main_name = program.main().clone();
    let main: Arc<dyn ActionSemantics> = Arc::clone(
        program
            .action(&main_name)
            .expect("entry action is always defined"),
    );
    let eliminated: BTreeSet<ActionName> = program
        .action_names()
        .filter(|n| **n != main_name)
        .cloned()
        .collect();
    let mut app = IsApplication::new(program.clone(), main_name)
        .invariant(Arc::clone(&main))
        .replacement(main)
        .measure(Measure::pending_async_count())
        .instance(init)
        .budget(budget);
    let elim_for_choice = eliminated.clone();
    app = app.choice(move |t| {
        t.created
            .distinct()
            .find(|pa| elim_for_choice.contains(&pa.action))
            .cloned()
    });
    for name in eliminated {
        app = app.eliminate(name);
    }
    app
}
