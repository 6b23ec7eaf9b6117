//! The baseline the paper compares IS against (§5.2 "Invariant
//! complexity"): classical **flat inductive invariants** over the original
//! asynchronous program — "asynchrony-aware" formulas in the style of Ivy
//! that must describe *every* reachable intermediate configuration of every
//! interleaving at once.
//!
//! The crate provides:
//!
//! * [`FlatInvariant`] — a named configuration-logic formula
//!   ([`inseq_vc::Formula`]) together with a safety property, and
//!   [`check_flat_invariant`], which discharges initiation, consecution and
//!   safety by enumeration over the instance (plus optional random
//!   perturbations probing inductiveness beyond the reachable set);
//! * [`broadcast_flat`] — the paper's invariant (2) for broadcast consensus,
//!   written out in full; and
//! * [`paxos_flat`] — an Ivy-style flat invariant for the Paxos model of
//!   `inseq_protocols::paxos`, including the extra asynchrony-awareness
//!   conjuncts relating in-flight pending asyncs to the protocol state — the
//!   conjuncts the paper highlights as the cost of not sequentializing.
//!
//! Comparing [`FlatReport::complexity`]/[`FlatReport::conjuncts`] and check
//! time against the IS artifacts regenerates the §5.2 discussion.

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // baseline counterexamples carry full configurations by design
#![warn(missing_docs)]

pub mod broadcast_flat;
pub mod paxos_flat;

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use inseq_kernel::{Config, Explorer, PendingAsync, Program};
use inseq_vc::Formula;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A named flat inductive invariant with its safety property.
#[derive(Debug, Clone)]
pub struct FlatInvariant {
    /// Human-readable name.
    pub name: String,
    /// The invariant formula over configurations.
    pub invariant: Formula,
    /// The safety property the invariant must imply.
    pub safety: Formula,
}

/// A violated baseline check, with a concrete witness.
#[derive(Debug)]
pub enum BaselineError {
    /// The invariant does not hold in an initial configuration.
    Initiation {
        /// The violating configuration.
        config: Config,
    },
    /// A step leads from an invariant configuration to a non-invariant one.
    Consecution {
        /// The pre-state (satisfying the invariant).
        from: Config,
        /// The pending async that stepped.
        fired: PendingAsync,
        /// The post-state (violating the invariant).
        to: Config,
    },
    /// The invariant does not imply safety.
    Safety {
        /// The configuration satisfying the invariant but not safety.
        config: Config,
    },
    /// The program can fail (flat invariants as used here presume
    /// failure-freedom).
    Failure(String),
    /// Exploration or formula-evaluation error.
    Internal(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Initiation { config } => {
                write!(f, "invariant violated initially at {config}")
            }
            BaselineError::Consecution { from, fired, to } => write!(
                f,
                "invariant is not inductive: {fired} steps {from} to {to}"
            ),
            BaselineError::Safety { config } => {
                write!(f, "invariant does not imply safety at {config}")
            }
            BaselineError::Failure(msg) => write!(f, "program can fail: {msg}"),
            BaselineError::Internal(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for BaselineError {}

/// Statistics of a successful flat-invariant check.
#[derive(Debug, Clone)]
pub struct FlatReport {
    /// Configurations on which consecution was verified.
    pub configs_checked: usize,
    /// Steps verified.
    pub steps_checked: usize,
    /// Perturbed configurations additionally probed.
    pub perturbations_checked: usize,
    /// AST-node complexity of the invariant.
    pub complexity: usize,
    /// Top-level conjunct count of the invariant.
    pub conjuncts: usize,
    /// Wall-clock time of the check.
    pub time: Duration,
}

impl fmt::Display for FlatReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flat invariant ok: {} configs, {} steps, {} perturbations, \
             complexity {} ({} conjuncts), {:.3}s",
            self.configs_checked,
            self.steps_checked,
            self.perturbations_checked,
            self.complexity,
            self.conjuncts,
            self.time.as_secs_f64()
        )
    }
}

/// Options for [`check_flat_invariant`].
#[derive(Debug, Clone, Copy)]
pub struct FlatOptions {
    /// Exploration budget (configurations).
    pub budget: usize,
    /// Number of random perturbed configurations to probe (0 disables).
    pub perturbations: usize,
    /// RNG seed for perturbation generation (determinism for tests/benches).
    pub seed: u64,
}

impl Default for FlatOptions {
    fn default() -> Self {
        FlatOptions {
            budget: 2_000_000,
            perturbations: 200,
            seed: 0x15EC,
        }
    }
}

/// Checks a flat inductive invariant on a program instance: initiation,
/// consecution along every explored step, safety, and (optionally)
/// consecution from randomly perturbed configurations that happen to satisfy
/// the invariant — probing inductiveness beyond the reachable set, which is
/// where hand-written flat invariants usually break.
///
/// # Errors
///
/// Returns the first violated check with a concrete witness.
pub fn check_flat_invariant(
    program: &Program,
    init: Config,
    inv: &FlatInvariant,
    options: FlatOptions,
) -> Result<FlatReport, BaselineError> {
    let start = Instant::now();
    let schema = program.schema().clone();
    let holds = |c: &Config| -> Result<bool, BaselineError> {
        inv.invariant
            .eval(&schema, c)
            .map_err(|e| BaselineError::Internal(e.to_string()))
    };

    // Initiation.
    if !holds(&init)? {
        return Err(BaselineError::Initiation { config: init });
    }

    let exp = Explorer::new(program)
        .with_budget(options.budget)
        .explore([init])
        .map_err(|e| BaselineError::Internal(e.to_string()))?;
    if exp.has_failure() {
        return Err(BaselineError::Failure(
            exp.failure_reports().into_iter().next().unwrap_or_default(),
        ));
    }

    // Consecution along every explored step, and safety everywhere the
    // invariant holds.
    let mut steps_checked = 0;
    for step in exp.steps(program) {
        if holds(&step.before)? && !holds(&step.after)? {
            return Err(BaselineError::Consecution {
                from: step.before,
                fired: step.fired,
                to: step.after,
            });
        }
        steps_checked += 1;
    }
    for config in exp.configs() {
        if holds(&config)? {
            let safe = inv
                .safety
                .eval(&schema, &config)
                .map_err(|e| BaselineError::Internal(e.to_string()))?;
            if !safe {
                return Err(BaselineError::Safety { config });
            }
        }
    }

    // Perturbation probing: mutate reachable configurations by adding or
    // removing pending asyncs; any mutant inside the invariant must stay
    // inside under every step.
    let mut perturbations_checked = 0;
    if options.perturbations > 0 {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let configs: Vec<Config> = exp.configs().collect();
        let pa_pool: Vec<PendingAsync> = {
            let mut pool: Vec<PendingAsync> = Vec::new();
            for c in &configs {
                for pa in c.pending.distinct() {
                    if !pool.contains(pa) {
                        pool.push(pa.clone());
                    }
                }
            }
            pool
        };
        for _ in 0..options.perturbations {
            let Some(base) = configs.choose(&mut rng) else {
                break;
            };
            let mut mutant = base.clone();
            if rng.gen_bool(0.5) {
                if let Some(pa) = pa_pool.choose(&mut rng) {
                    mutant.pending.insert(pa.clone());
                }
            } else {
                let present: Vec<PendingAsync> = mutant.pending.distinct().cloned().collect();
                if let Some(pa) = present.choose(&mut rng) {
                    mutant.pending.remove_one(pa);
                }
            }
            if !holds(&mutant)? {
                continue; // outside the invariant: vacuous
            }
            perturbations_checked += 1;
            // The invariant must imply safety on the mutant too.
            let safe = inv
                .safety
                .eval(&schema, &mutant)
                .map_err(|e| BaselineError::Internal(e.to_string()))?;
            if !safe {
                return Err(BaselineError::Safety { config: mutant });
            }
            for pa in mutant.pending.distinct().cloned().collect::<Vec<_>>() {
                let outcome = program
                    .eval_pa(&mutant.globals, &pa)
                    .map_err(|e| BaselineError::Internal(e.to_string()))?;
                if let inseq_kernel::ActionOutcome::Transitions(ts) = outcome {
                    let rest = mutant.pending.without(&pa).expect("distinct PA is present");
                    for t in ts {
                        let next = Config::new(t.globals, rest.union(&t.created));
                        if !holds(&next)? {
                            return Err(BaselineError::Consecution {
                                from: mutant,
                                fired: pa,
                                to: next,
                            });
                        }
                    }
                }
            }
        }
    }

    Ok(FlatReport {
        configs_checked: exp.config_count(),
        steps_checked,
        perturbations_checked,
        complexity: inv.invariant.complexity(),
        conjuncts: inv.invariant.conjunct_count(),
        time: start.elapsed(),
    })
}
