//! The campaign's coverage signal: one [`CoverageMap`] per measured program.
//!
//! A map is the union of three bitmap families:
//!
//! * **VM dispatch edges** — `(previous opcode kind, opcode kind)` pairs
//!   recorded into the measured program's own `inseq_lang::coverage` sink
//!   while its deterministic explorations and checks execute on the
//!   register VM;
//! * **oracle outcomes** — which of the battery's oracles fired and with
//!   which verdict class (checked / skipped / disagreement);
//! * **verdict variants** — the program's own behavior classes (assertion
//!   failure, deadlock, clean termination, budget exhaustion, violated IS
//!   premises, reduction pruning), bucketed into fixed bit positions.
//!
//! **Determinism contract.** A map is a *set* of bits, and every recorded
//! section is either sequential and deterministic (kernel exploration,
//! reduced exploration, `check()`) or parallel with a worker-invariant
//! evaluation set (unreduced engine exploration: every visited
//! configuration's pending asyncs are evaluated at least once, and edges
//! per evaluation are a pure function of `(action, store, args)`). The two
//! schedule-dependent paths the workspace ships — parallel *reduced*
//! exploration, whose ample choices depend on interning order, and any
//! budget-truncated parallel run — are excluded from recording, so the same
//! seed and program produce a bit-identical signature at any worker count
//! and under any `--reduce` mode. `tests/coverage_determinism.rs` pins this.
//!
//! The sink is attached to the program [`measure_battery`] builds for the
//! recorded sections and to nothing else: the battery, [`crate::meta`]'s
//! observation, and every other program in the process — on any thread —
//! build their own and cannot reach it. Concurrent measurements need no
//! lock.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inseq_core::mechanical_application;
use inseq_engine::{ParallelExplorer, Reducer};
use inseq_kernel::{Explorer, ReduceMode};
use inseq_lang::coverage::{self as vmcov, CoverageSink};

use crate::oracles::{run_oracle_with, Disagreement, Faults, Oracle, OracleOutcome};
use inseq_lang::spec::ProgramSpec;

/// Number of `u64` words of auxiliary (non-VM) coverage.
const AUX_WORDS: usize = 2;

// Aux word 0 layout. Bits 0..18: oracle × outcome class (3 bits per oracle,
// battery order). The rest are verdict-variant bits:
const BIT_BUILD_FAILS: usize = 18;
const BIT_PASS: usize = 19;
const BIT_FAILURE: usize = 20;
const BIT_DEADLOCK: usize = 21;
const BIT_OVER_BUDGET: usize = 22;
const BIT_CHECK_PASSES: usize = 23;
const BIT_CHECK_VIOLATED: usize = 24;
const BIT_REDUCE_PRUNED: usize = 25;
const BIT_REDUCE_EXHAUSTIVE: usize = 26;
const BIT_REDUCE_ORBITS: usize = 27;
const BIT_REDUCE_OVER_BUDGET: usize = 28;
// Aux word 1: 64 hash buckets over violated-premise labels and failure
// reasons (distinct diagnostics are distinct behavior variants).

/// The coverage fingerprint of one measured program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    vm: Vec<u64>,
    aux: [u64; AUX_WORDS],
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// The empty map.
    #[must_use]
    pub fn new() -> Self {
        CoverageMap {
            vm: vec![0; vmcov::SNAPSHOT_WORDS],
            aux: [0; AUX_WORDS],
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.vm.iter().copied().chain(self.aux.iter().copied())
    }

    /// Total distinct coverage edges (set bits) in the map.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Distinct VM dispatch edges alone.
    #[must_use]
    pub fn vm_edges(&self) -> usize {
        vmcov::edge_count(&self.vm)
    }

    /// Folds `other` into `self`; returns how many bits were new.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let mut fresh = 0;
        for (mine, theirs) in self
            .vm
            .iter_mut()
            .chain(self.aux.iter_mut())
            .zip(other.words())
        {
            fresh += (theirs & !*mine).count_ones() as usize;
            *mine |= theirs;
        }
        fresh
    }

    /// How many of `other`'s bits are not in `self`, without merging.
    #[must_use]
    pub fn would_add(&self, other: &CoverageMap) -> usize {
        self.words()
            .zip(other.words())
            .map(|(mine, theirs)| (theirs & !mine).count_ones() as usize)
            .sum()
    }

    /// A 16-hex-digit signature of the map, stable across runs and worker
    /// counts (FNV-1a over the bitmap words).
    #[must_use]
    pub fn signature(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in self.words() {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut s = String::new();
        let _ = write!(s, "{h:016x}");
        s
    }

    fn set_aux(&mut self, word: usize, bit: usize) {
        self.aux[word] |= 1 << bit;
    }

    /// `class`: 0 = checked, 1 = skipped, 2 = disagreement.
    fn set_oracle(&mut self, oracle: Oracle, class: usize) {
        let slot = Oracle::ALL
            .iter()
            .position(|&o| o == oracle)
            .expect("oracle is one of ALL");
        self.set_aux(0, slot * 3 + class);
    }

    fn bucket_label(&mut self, label: &str) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.aux[1] |= 1 << (h % 64);
    }
}

/// Everything one measured battery run produces.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Per-oracle outcomes, or the first disagreement.
    pub outcomes: Result<Vec<(Oracle, OracleOutcome)>, Disagreement>,
    /// The program's coverage fingerprint.
    pub coverage: CoverageMap,
    /// Wall-clock spent in each oracle, battery order.
    pub phases: Vec<(Oracle, Duration)>,
}

/// Knobs of a measured run.
#[derive(Debug, Clone)]
pub struct MeasureOptions {
    /// Exploration budget (distinct configurations) per oracle.
    pub budget: usize,
    /// Worker count of the recorded unreduced engine exploration.
    pub workers: usize,
    /// Reduction mode of the recorded reduced sequential exploration.
    pub reduce: ReduceMode,
    /// Deliberate faults, in the recorded sections and the battery alike.
    #[doc(hidden)]
    pub faults: Faults,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            budget: crate::oracles::DEFAULT_BUDGET,
            workers: 2,
            reduce: ReduceMode::Por,
            faults: Faults::default(),
        }
    }
}

/// Runs the full oracle battery on `spec` while recording its coverage map.
///
/// Coverage recording follows the determinism contract in the module docs:
/// sequential exploration, reduced sequential exploration, `check()`, and
/// the worker-invariant unreduced engine exploration record VM edges; the
/// battery itself (which interleaves parallel and budget-sensitive paths)
/// builds the spec afresh without the sink and contributes outcome bits
/// only.
#[must_use]
pub fn measure_battery(spec: &ProgramSpec, opts: &MeasureOptions) -> MeasuredRun {
    let mut map = CoverageMap::new();
    let sink = Arc::new(CoverageSink::default());
    let hooks = opts.faults.vm.clone().with_coverage(Arc::clone(&sink));

    let built = spec.build_with(&hooks);
    let mut within_budget = false;
    match &built {
        Err(_) => map.set_aux(0, BIT_BUILD_FAILS),
        Ok(built) => {
            // Deterministic sequential exploration: verdict variants.
            match Explorer::new(&built.program)
                .with_budget(opts.budget)
                .explore([built.init.clone()])
            {
                Err(_) => map.set_aux(0, BIT_OVER_BUDGET),
                Ok(exp) => {
                    within_budget = true;
                    if exp.has_failure() {
                        map.set_aux(0, BIT_FAILURE);
                        for reason in exp.failure_reports() {
                            map.bucket_label(&reason);
                        }
                    }
                    if exp.has_deadlock() {
                        map.set_aux(0, BIT_DEADLOCK);
                    }
                    if !exp.has_failure() && !exp.has_deadlock() {
                        map.set_aux(0, BIT_PASS);
                    }
                }
            }
            // Deterministic reduced sequential exploration: pruning variants.
            let mut reducer = Reducer::new(opts.reduce);
            if opts.faults.unsound_prune {
                reducer = reducer.unsound_prune();
            }
            match Explorer::new(&built.program)
                .with_budget(opts.budget)
                .with_reduction(&reducer)
                .explore([built.init.clone()])
            {
                Err(_) => map.set_aux(0, BIT_REDUCE_OVER_BUDGET),
                Ok(exp) => {
                    if exp.pruned() > 0 {
                        map.set_aux(0, BIT_REDUCE_PRUNED);
                    } else {
                        map.set_aux(0, BIT_REDUCE_EXHAUSTIVE);
                    }
                    if exp.orbit_collapses() > 0 {
                        map.set_aux(0, BIT_REDUCE_ORBITS);
                    }
                }
            }
            // Sequential IS check of the mechanical application: premise
            // variants (multi-action programs only, like the oracle).
            if built.program.action_names().count() >= 2 {
                let app = mechanical_application(&built.program, built.init.clone(), opts.budget);
                match app.check() {
                    Ok(_) => map.set_aux(0, BIT_CHECK_PASSES),
                    Err(v) => {
                        map.set_aux(0, BIT_CHECK_VIOLATED);
                        map.bucket_label(v.premise());
                    }
                }
            }
            // Unreduced engine exploration at the requested worker count:
            // recorded only when the sequential run fit the budget, so a
            // truncated (schedule-dependent) parallel frontier can never
            // leak into the signature.
            if within_budget {
                let _ = ParallelExplorer::new(&built.program)
                    .with_workers(opts.workers)
                    .with_budget(opts.budget)
                    .explore([built.init.clone()]);
            }
        }
    }
    map.vm = sink.snapshot();

    // The battery re-checks everything through both sequential and parallel
    // paths; it runs unrecorded (outcome bits only) per the contract above.
    let mut outcomes = Vec::new();
    let mut phases = Vec::new();
    let mut disagreement = None;
    for &oracle in &Oracle::ALL {
        let start = Instant::now();
        let result = run_oracle_with(oracle, spec, opts.budget, &opts.faults);
        phases.push((oracle, start.elapsed()));
        match result {
            Ok(out) => {
                map.set_oracle(oracle, if out.checked() { 0 } else { 1 });
                outcomes.push((oracle, out));
            }
            Err(d) => {
                map.set_oracle(oracle, 2);
                map.bucket_label(&format!("disagreement:{}", d.oracle));
                disagreement = Some(d);
                break;
            }
        }
    }
    MeasuredRun {
        outcomes: match disagreement {
            Some(d) => Err(d),
            None => Ok(outcomes),
        },
        coverage: map,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn measurement_produces_nonempty_coverage_and_agrees() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = generate(&mut rng, &GenConfig::default());
        let run = measure_battery(&spec, &MeasureOptions::default());
        assert!(run.outcomes.is_ok(), "seed 7 battery must agree");
        assert!(run.coverage.vm_edges() > 0, "VM edges must be recorded");
        assert!(run.coverage.edges() > run.coverage.vm_edges());
        assert_eq!(run.phases.len(), Oracle::ALL.len());
    }

    #[test]
    fn merge_counts_fresh_bits_and_converges() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = measure_battery(
            &generate(&mut rng, &GenConfig::default()),
            &MeasureOptions::default(),
        );
        let b = measure_battery(
            &generate(&mut rng, &GenConfig::default()),
            &MeasureOptions::default(),
        );
        let mut global = CoverageMap::new();
        let first = global.merge(&a.coverage);
        assert_eq!(first, a.coverage.edges());
        assert_eq!(global.would_add(&a.coverage), 0);
        assert_eq!(global.merge(&a.coverage), 0, "idempotent merge");
        let fresh = global.would_add(&b.coverage);
        assert_eq!(global.merge(&b.coverage), fresh);
        assert!(global.edges() >= a.coverage.edges().max(b.coverage.edges()));
    }

    #[test]
    fn signature_is_stable_across_repeat_measurement() {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = generate(&mut rng, &GenConfig::default());
        let opts = MeasureOptions::default();
        let one = measure_battery(&spec, &opts).coverage.signature();
        let two = measure_battery(&spec, &opts).coverage.signature();
        assert_eq!(one, two);
    }
}
