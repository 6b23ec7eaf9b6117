//! Generative differential testing for the IS workspace.
//!
//! The crate closes the loop the hand-written suites leave open: instead of
//! checking fixed protocols against fixed expectations, it *generates*
//! well-typed DSL programs ([`gen`]), runs each through a battery of
//! redundant-path oracles ([`oracles`]) — VM vs interpreter, sequential vs
//! engine-scheduled IS checking, interned vs structural identity, memoized
//! vs brute-force mover analysis, multiset permutation invariance — and,
//! when two paths disagree, greedily shrinks the program to a locally
//! minimal repro ([`shrink()`]) serialized in a textual corpus format
//! ([`inseq_lang::serial`]) alongside the RNG seed that produced it.
//!
//! Everything operates on [`inseq_lang::spec::ProgramSpec`], a name-based program
//! description that builds through the ordinary `inseq_lang` typechecker —
//! so every generated or shrunk program is well-typed by construction, and
//! corpus files replay through the exact pipeline hand-written protocols
//! use. [`corpus`] seeds the corpus with the paper's Table 1 protocols
//! exported through the same format.

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod meta;
pub mod mutate;
pub mod oracles;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult};
pub use coverage::{measure_battery, CoverageMap, MeasureOptions, MeasuredRun};
pub use gen::{generate, GenConfig};
pub use mutate::{mutate, MutOp, MutateConfig};
pub use oracles::{run_battery, run_oracle, Disagreement, Oracle, OracleOutcome, DEFAULT_BUDGET};
pub use shrink::shrink;
