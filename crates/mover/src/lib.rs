//! Mover types, commutativity checking, and Lipton reduction.
//!
//! This crate implements §3's "Left movers" conditions (and their right-mover
//! duals) as exhaustive checks over a [`inseq_kernel::StateUniverse`],
//! playing the role of CIVL's SMT-backed mover engine. It also provides the
//! atomic-sequence validation of Lipton reduction
//! (`right*; non-mover?; left*`), which the paper applies to turn
//! fine-grained procedures into atomic actions (Fig. 1-① → Fig. 1-②) before
//! inductive sequentialization.
//!
//! # Example
//!
//! ```
//! use inseq_mover::{atomic_pattern, MoverType};
//!
//! // receive*; local* — a right-mover prefix followed by both-movers is atomic.
//! let seq = [MoverType::Right, MoverType::Right, MoverType::Both];
//! assert!(atomic_pattern(&seq));
//! // left; right — a left mover before a right mover is NOT atomic.
//! assert!(!atomic_pattern(&[MoverType::Left, MoverType::Right]));
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // verification counterexamples carry full stores by design
#![warn(missing_docs)]

mod check;
mod reduction;
mod types;

pub use check::{
    check_left_mover, check_right_mover, classify_actions, infer_mover_type, MoverChecker,
    MoverStats, MoverViolation,
};
pub use reduction::{atomic_pattern, summarize_chain, summarize_mover_types};
pub use types::MoverType;
