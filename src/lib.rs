//! **inductive-sequentialization** — a Rust reproduction of
//! *Inductive Sequentialization of Asynchronous Programs*
//! (Kragl, Enea, Henzinger, Mutluergil, Qadeer — PLDI 2020).
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`kernel`] | `inseq-kernel` | values, stores, pending asyncs, configurations, programs, exhaustive exploration |
//! | [`engine`] | `inseq-engine` | sharded parallel exploration and the flat obligation pool |
//! | [`lang`] | `inseq-lang` | the typed action DSL and its nondeterministic interpreter |
//! | [`mover`] | `inseq-mover` | mover types, commutativity checking, Lipton reduction |
//! | [`refine`] | `inseq-refine` | action and program refinement (Defs. 3.1/3.2) |
//! | [`core`] | `inseq-core` | **the IS proof rule** (Fig. 3), iterated IS, Fig. 2 witnesses |
//! | [`vc`] | `inseq-vc` | configuration logic for flat invariants |
//! | [`protocols`] | `inseq-protocols` | the seven case studies with full proof artifacts |
//! | [`baseline`] | `inseq-baseline` | flat inductive-invariant baseline (§5.2) |
//!
//! # Quickstart
//!
//! Prove that broadcast consensus (the paper's running example, Fig. 1)
//! refines its sequentialization and satisfies consensus:
//!
//! ```
//! use inductive_sequentialization::protocols::broadcast;
//!
//! let instance = broadcast::Instance::new(&[3, 1]);
//! let row = broadcast::verify(&instance)?;
//! assert_eq!(row.is_applications, 2); // Table 1: #IS = 2
//! # Ok::<(), inductive_sequentialization::protocols::common::CaseError>(())
//! ```
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use inseq_baseline as baseline;
pub use inseq_core as core;
pub use inseq_engine as engine;
pub use inseq_kernel as kernel;
pub use inseq_lang as lang;
pub use inseq_mover as mover;
pub use inseq_protocols as protocols;
pub use inseq_refine as refine;
pub use inseq_vc as vc;
