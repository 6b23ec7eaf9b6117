//! Semantic kernel for *inductive sequentialization* (Kragl et al., PLDI 2020).
//!
//! This crate provides the semantic objects of §3 of the paper:
//!
//! * [`Value`] and the canonical [`Multiset`] container,
//! * global stores ([`GlobalStore`]) with a named [`GlobalSchema`],
//! * pending asyncs ([`PendingAsync`]) — an action name paired with argument
//!   values, representing a created-but-not-yet-executed task,
//! * gated atomic actions, represented semantically by the
//!   [`ActionSemantics`] trait: from an input store an action either *fails*
//!   (the gate is violated), *blocks* (no transition is enabled), or yields a
//!   set of transitions `(g′, Ω′)`,
//! * programs ([`Program`]) — finite maps from action names to actions with a
//!   dedicated `Main`,
//! * configurations ([`Config`]) `(g, Ω)` and the small-step transition
//!   relation, realized by the exhaustive [`Explorer`],
//! * program summaries `Good(P)` / `Trans(P)` ([`Summary`]) as used by the
//!   refinement definition (Def. 3.2), and
//! * the [`StateUniverse`] over which mover and IS side conditions are
//!   discharged by enumeration (our explicit-state substitute for the SMT
//!   backend used by the paper's CIVL implementation).
//!
//! # Example
//!
//! ```
//! use inseq_kernel::{Explorer, Program, Value};
//! use inseq_kernel::demo::counter_program;
//!
//! // A tiny demo program whose Main spawns two `Inc` tasks.
//! let program: Program = counter_program();
//! let init = program.initial_config(vec![]).unwrap();
//! let exploration = Explorer::new(&program).explore([init]).unwrap();
//! assert!(!exploration.has_failure());
//! // Both interleavings end with the counter at 2.
//! for store in exploration.terminal_stores() {
//!     assert_eq!(store.get(0), &Value::Int(2));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod cintern;
mod config;
pub mod demo;
mod error;
mod explore;
pub mod hash;
pub mod intern;
mod multiset;
mod program;
pub mod reduce;
pub mod render;
mod store;
pub mod succ;
mod universe;
mod value;

pub use cintern::{ConcurrentInterner, ConfigReq, NUM_SHARDS};

pub use action::{
    ActionName, ActionOutcome, ActionSemantics, ExecStats, Footprint, NativeAction, PendingAsync,
    Transition,
};
pub use config::{Config, Step};
pub use error::{ExploreError, KernelError};
pub use explore::{
    Execution, Exploration, ExploreRecord, Explorer, FailureWitness, Summary, Trace,
    DEFAULT_CONFIG_BUDGET,
};
pub use intern::{BagId, ConfigId, PaId, StoreId, ValueId};
pub use multiset::Multiset;
pub use program::{GlobalSchema, Program, ProgramBuilder};
pub use reduce::{
    canonical_parts, node_permutations, pair_commutes_at, pair_commutes_within, ReduceMode,
    ReductionPolicy, SymmetrySpec, PAIR_CLOSURE_DEPTH,
};
pub use store::GlobalStore;
pub use succ::SuccessorCache;
pub use universe::StateUniverse;
pub use value::{Map, Shared, Value};
