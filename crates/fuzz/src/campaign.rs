//! The coverage-guided campaign: corpus evolution over the oracle battery.
//!
//! The blind campaign the fuzz binary always had generates a fresh program
//! per iteration and forgets it. The guided campaign keeps a **corpus**: a
//! program whose [`CoverageMap`] contains bits no earlier program produced
//! is retained, and later iterations *mutate* corpus members
//! ([`crate::mutate()`]) instead of starting over — probing the
//! neighborhood of inputs that already proved they reach new behavior. A
//! configurable slice of iterations (`fresh_ratio`) still generates from
//! scratch so the corpus never inbreeds.
//!
//! Scheduling policy: mutation parents are drawn uniformly from the most
//! recent `RECENCY_WINDOW` corpus entries — recent entries found bits the
//! whole earlier corpus missed, so their neighborhoods are the least
//! explored. Each parent takes several mutation steps (3–8 by default):
//! single-step mutants sit too close to their parent to out-discover fresh
//! generation, while multi-step mutants accumulate material past the
//! generator's size bounds (the mutate bounds are deliberately wider) and
//! cross-pollinate via [`crate::mutate::MutOp::CrossSplice`], which is what
//! lets a guided campaign strictly beat a blind one on distinct coverage
//! edges at equal iterations (see `tests/guided_vs_blind.rs` and
//! EXPERIMENTS.md). The corpus needs ~100 iterations of warmup before the
//! advantage shows; very short campaigns are better off blind.
//!
//! Everything is deterministic per `(seed, config)`: iteration `i` seeds
//! its own RNG with `seed + i`, so any iteration can be replayed in
//! isolation, and a campaign interrupted and re-run from the same seed
//! retraces the same trajectory.

use std::time::{Duration, Instant};

use inseq_kernel::ReduceMode;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::coverage::{measure_battery, CoverageMap, MeasureOptions};
use crate::gen::{generate, GenConfig};
use crate::mutate::{mutate, MutateConfig};
use crate::oracles::{Disagreement, Faults, Oracle};
use inseq_lang::spec::ProgramSpec;

/// Mutation parents come from the last this-many corpus entries.
const RECENCY_WINDOW: usize = 8;

/// Guided campaigns stay blind until the corpus holds this many entries.
/// A one-entry corpus makes a terrible gene pool — early mutants would all
/// orbit whatever program iteration 0 happened to produce — and the warmup
/// also keeps short guided and blind campaigns behaviorally identical, so
/// faults the battery can catch in the first few iterations are caught at
/// the same iteration in both modes (see `tests/guided_fault_race.rs`).
const WARMUP_CORPUS: usize = RECENCY_WINDOW;

/// Salt separating the scheduling RNG from the payload RNG. Scheduling
/// decisions (mutate or generate, which parent, how many steps) draw from
/// their own stream so a guided iteration that decides to generate fresh
/// produces *exactly* the program the blind campaign's same-numbered
/// iteration would — corpus entries stay replayable from the iteration
/// seed alone, and guided-vs-blind comparisons line up program-for-program
/// on fresh iterations.
const SCHED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base RNG seed; iteration `i` uses `seed + i`.
    pub seed: u64,
    /// Iteration count.
    pub iters: u64,
    /// Guided (corpus evolution) or blind (fresh program every iteration).
    pub guided: bool,
    /// Fraction of guided iterations that generate fresh anyway.
    pub fresh_ratio: f64,
    /// Mutation steps per guided iteration, drawn uniformly from
    /// `min_mutate_steps..=max_mutate_steps`. Enough steps let mutants
    /// accumulate material past the generator's size bounds (the mutate
    /// bounds are wider), reaching program shapes fresh generation never
    /// produces.
    pub min_mutate_steps: usize,
    /// Upper bound of the per-iteration mutation step draw (inclusive).
    pub max_mutate_steps: usize,
    /// Generator bounds.
    pub gen: GenConfig,
    /// Mutant bounds.
    pub mutate: MutateConfig,
    /// Per-oracle exploration budget.
    pub budget: usize,
    /// Worker count of the recorded parallel exploration section.
    pub workers: usize,
    /// Reduction mode of the recorded reduced exploration section.
    pub reduce: ReduceMode,
    /// Wall-clock cap; the campaign stops at the first iteration boundary
    /// past it. `None` means iterations alone bound the run.
    pub time_limit: Option<Duration>,
    /// Deliberate faults injected into every measured program.
    #[doc(hidden)]
    pub faults: Faults,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            iters: 200,
            guided: true,
            fresh_ratio: 0.5,
            min_mutate_steps: 3,
            max_mutate_steps: 8,
            gen: GenConfig::default(),
            mutate: MutateConfig::default(),
            budget: crate::oracles::DEFAULT_BUDGET,
            workers: 2,
            reduce: ReduceMode::Por,
            time_limit: None,
            faults: Faults::default(),
        }
    }
}

impl CampaignConfig {
    fn measure_options(&self) -> MeasureOptions {
        MeasureOptions {
            budget: self.budget,
            workers: self.workers,
            reduce: self.reduce,
            faults: self.faults.clone(),
        }
    }
}

/// How a corpus entry was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Fresh from the generator.
    Generated,
    /// Mutated from an earlier corpus entry.
    Mutated,
}

impl EntryKind {
    /// The metadata name of the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EntryKind::Generated => "generated",
            EntryKind::Mutated => "mutated",
        }
    }
}

/// One retained program.
#[derive(Debug)]
pub struct CorpusEntry {
    /// The program.
    pub spec: ProgramSpec,
    /// Iteration seed that produced it (`config.seed + iteration`).
    pub seed: u64,
    /// Generated or mutated.
    pub kind: EntryKind,
    /// Coverage bits this entry added when promoted.
    pub gain: usize,
    /// The entry's own full coverage map.
    pub coverage: CoverageMap,
}

/// One point of the coverage-over-time trend (recorded whenever the global
/// edge count grows, plus once at the end).
#[derive(Debug, Clone)]
pub struct TrendPoint {
    /// Iterations completed when the point was taken.
    pub iteration: u64,
    /// Global distinct coverage edges at that time.
    pub edges: usize,
    /// Corpus size at that time.
    pub corpus: usize,
    /// Wall-clock seconds since the campaign started.
    pub elapsed_secs: f64,
}

/// A disagreement the campaign hit, with provenance.
#[derive(Debug)]
pub struct CampaignFinding {
    /// Iteration (0-based) at which the battery disagreed.
    pub iteration: u64,
    /// That iteration's RNG seed.
    pub seed: u64,
    /// The offending program, unshrunk.
    pub spec: ProgramSpec,
    /// The disagreement.
    pub disagreement: Disagreement,
}

/// Everything a campaign run produces.
#[derive(Debug)]
pub struct CampaignResult {
    /// Iterations actually executed (≤ `config.iters` when a disagreement
    /// or the time limit stopped the run early).
    pub iterations: u64,
    /// The union coverage map.
    pub global: CoverageMap,
    /// Retained programs, promotion order.
    pub corpus: Vec<CorpusEntry>,
    /// Coverage growth over time.
    pub trend: Vec<TrendPoint>,
    /// Cumulative per-oracle wall clock across all iterations.
    pub oracle_wall: Vec<(Oracle, Duration)>,
    /// The first disagreement, when one was found.
    pub finding: Option<CampaignFinding>,
    /// Total wall clock of the run.
    pub wall: Duration,
}

impl CampaignResult {
    /// Programs per second through the full battery.
    #[must_use]
    pub fn programs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.iterations as f64 / secs
        } else {
            0.0
        }
    }

    /// The trend as a self-contained JSON document (no serde in the tree;
    /// the fields are all numbers, so hand-rendering is trivial).
    #[must_use]
    pub fn trend_json(&self) -> String {
        let points: Vec<String> = self
            .trend
            .iter()
            .map(|p| {
                format!(
                    "{{\"iteration\":{},\"edges\":{},\"corpus\":{},\"elapsed_secs\":{:.3}}}",
                    p.iteration, p.edges, p.corpus, p.elapsed_secs
                )
            })
            .collect();
        format!(
            "{{\"iterations\":{},\"edges\":{},\"corpus\":{},\"programs_per_sec\":{:.3},\
             \"found_disagreement\":{},\"trend\":[{}]}}\n",
            self.iterations,
            self.global.edges(),
            self.corpus.len(),
            self.programs_per_sec(),
            self.finding.is_some(),
            points.join(",")
        )
    }
}

/// Runs a campaign. `on_iteration`, when given, observes each completed
/// iteration (`iteration, global edge count`) — the binary uses it for
/// progress lines.
pub fn run_campaign(
    config: &CampaignConfig,
    mut on_iteration: Option<&mut dyn FnMut(u64, usize)>,
) -> CampaignResult {
    let start = Instant::now();
    let mut global = CoverageMap::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut trend: Vec<TrendPoint> = Vec::new();
    let mut oracle_wall: Vec<(Oracle, Duration)> =
        Oracle::ALL.iter().map(|&o| (o, Duration::ZERO)).collect();
    let mut finding = None;
    let mut iterations = 0;

    for i in 0..config.iters {
        if let Some(limit) = config.time_limit {
            if start.elapsed() >= limit {
                break;
            }
        }
        let seed = config.seed.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sched = StdRng::seed_from_u64(seed ^ SCHED_SALT);

        let (spec, kind) = if config.guided
            && corpus.len() >= WARMUP_CORPUS
            && !sched.gen_bool(config.fresh_ratio)
        {
            let window = corpus.len().min(RECENCY_WINDOW);
            let parent = &corpus[corpus.len() - 1 - sched.gen_range(0..window)];
            let steps = config.min_mutate_steps.max(1);
            let span = config.max_mutate_steps.saturating_sub(steps) + 1;
            let steps = steps + sched.gen_range(0..span.max(1));
            let mut mutant = parent.spec.clone();
            for _ in 0..steps {
                mutant = mutate(&mut rng, &mutant, &config.mutate);
            }
            (mutant, EntryKind::Mutated)
        } else {
            (generate(&mut rng, &config.gen), EntryKind::Generated)
        };

        let run = measure_battery(&spec, &config.measure_options());
        for (slot, (_, wall)) in oracle_wall.iter_mut().enumerate() {
            if let Some((_, d)) = run.phases.get(slot) {
                *wall += *d;
            }
        }
        iterations = i + 1;

        if let Err(disagreement) = run.outcomes {
            finding = Some(CampaignFinding {
                iteration: i,
                seed,
                spec,
                disagreement,
            });
            break;
        }

        let gain = global.merge(&run.coverage);
        if gain > 0 {
            corpus.push(CorpusEntry {
                spec,
                seed,
                kind,
                gain,
                coverage: run.coverage,
            });
            trend.push(TrendPoint {
                iteration: iterations,
                edges: global.edges(),
                corpus: corpus.len(),
                elapsed_secs: start.elapsed().as_secs_f64(),
            });
        }
        if let Some(observe) = on_iteration.as_deref_mut() {
            observe(iterations, global.edges());
        }
    }

    trend.push(TrendPoint {
        iteration: iterations,
        edges: global.edges(),
        corpus: corpus.len(),
        elapsed_secs: start.elapsed().as_secs_f64(),
    });
    CampaignResult {
        iterations,
        global,
        corpus,
        trend,
        oracle_wall,
        finding,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(guided: bool, iters: u64) -> CampaignConfig {
        CampaignConfig {
            iters,
            guided,
            budget: 600,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn guided_campaign_builds_a_corpus_and_finds_no_disagreement() {
        let result = run_campaign(&quick(true, 25), None);
        assert!(result.finding.is_none(), "{:?}", result.finding);
        assert_eq!(result.iterations, 25);
        assert!(!result.corpus.is_empty(), "corpus must retain something");
        assert!(result.global.edges() > 0);
        // Trend is monotone in edges and ends at the final count.
        let edges: Vec<usize> = result.trend.iter().map(|p| p.edges).collect();
        assert!(edges.windows(2).all(|w| w[0] <= w[1]), "{edges:?}");
        assert_eq!(*edges.last().unwrap(), result.global.edges());
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let sigs = |_| {
            let r = run_campaign(&quick(true, 15), None);
            (
                r.global.signature(),
                r.corpus.iter().map(|e| e.seed).collect::<Vec<_>>(),
            )
        };
        assert_eq!(sigs(0), sigs(1));
    }

    #[test]
    fn guided_mode_actually_mutates() {
        let result = run_campaign(&quick(true, 40), None);
        assert!(
            result.corpus.iter().any(|e| e.kind == EntryKind::Mutated),
            "40 guided iterations should promote at least one mutant"
        );
    }

    #[test]
    fn trend_json_is_well_formed_enough() {
        let result = run_campaign(&quick(false, 5), None);
        let json = result.trend_json();
        assert!(json.starts_with('{') && json.ends_with("]}\n"), "{json}");
        assert!(json.contains("\"programs_per_sec\""));
    }
}
