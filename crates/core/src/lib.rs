//! The **inductive sequentialization (IS)** proof rule of Kragl, Enea,
//! Henzinger, Mutluergil & Qadeer (PLDI 2020) — the primary contribution of
//! the paper this crate reproduces.
//!
//! IS shows that an asynchronous program `P` refines the program
//! `P' = P[M ↦ M']` in which the action `M` is replaced by a *sequential
//! summary* `M'` that creates no pending asyncs to the eliminated set `E`.
//! The rule (Fig. 3 of the paper) takes:
//!
//! * an **invariant action** `I` summarising every prefix of one fixed
//!   interleaving of the eliminated pending asyncs,
//! * a **choice function** `f` selecting, from each transition of `I` that
//!   still has pending asyncs to `E`, the single one to eliminate next,
//! * an **abstraction function** `α` providing, per eliminated action, a
//!   left-moving abstraction whose strengthened gate holds in the sequential
//!   context, and
//! * a **well-founded measure** `≫` for the cooperation condition.
//!
//! and discharges the premises (I1), (I2), (I3), (LM) and (CO). This crate
//! checks each premise by enumeration over a state universe built from the
//! program's reachable configurations and the invariant action's own
//! transitions — our explicit-state substitute for the sequential Boogie
//! verification conditions generated by the paper's CIVL implementation
//! (see DESIGN.md). Each failed premise produces a targeted error naming at
//! most two actions, mirroring CIVL's fine-grained error reporting (§5.1).
//!
//! The crate also provides [`rewrite::find_witness_executions`], a
//! constructive check of the soundness theorem's conclusion on explored
//! instances (Fig. 2 / Lemmas 4.2–4.3), and [`chain::IsChain`] for the
//! iterated applications of §5.3.

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // IS violations carry whole-configuration witnesses by design
#![warn(missing_docs)]

pub mod chain;
pub mod incr;
pub mod json;
mod measure;
pub mod rewrite;
mod rule;

pub use incr::{
    mechanical_application, ArtifactKeys, IncrementalReport, ObligationCache, ObligationKind,
    ObligationOutcome,
};
pub use measure::Measure;
pub use rule::{ChoiceFn, InvariantTransition, IsApplication, IsReport, IsStats, IsViolation};
