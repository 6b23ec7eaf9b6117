//! A typed DSL for *gated atomic actions* with pending asyncs.
//!
//! The paper expresses programs in CIVL, Boogie's concurrent intermediate
//! verification language. This crate plays that role for our reproduction:
//! protocols and proof artifacts (invariant actions, abstractions,
//! sequentializations) are written as [`DslAction`]s whose gate `ρ` and
//! transition relation `τ` are *computed* by a nondeterministic interpreter
//! rather than axiomatised for an SMT solver.
//!
//! # Language summary
//!
//! * **Sorts** ([`Sort`]): `Unit`, `Bool`, `Int`, options, tuples, sets,
//!   bags (multiset channels), sequences (FIFO channels), and total maps.
//! * **Expressions** ([`Expr`]): pure; include bounded quantifiers and set
//!   comprehensions over finite collections.
//! * **Statements** ([`Stmt`]): assignment, `assume` (blocks), `assert`
//!   (gates), conditionals, ascending `for` loops, nondeterministic
//!   `choose`, channel `send`/`receive`, `async` (creates a pending async),
//!   and `call` (inlines another action into the same atomic step — used by
//!   invariant actions, cf. Fig. 1-⑤ of the paper).
//!
//! # Example: the `Broadcast` action of Fig. 1-②
//!
//! ```
//! use std::sync::Arc;
//! use inseq_lang::{DslAction, GlobalDecls, Sort};
//! use inseq_lang::build::*;
//! use inseq_kernel::ActionSemantics;
//!
//! let mut g = GlobalDecls::new();
//! g.declare("n", Sort::Int);
//! g.declare("value", Sort::map(Sort::Int, Sort::Int));
//! g.declare("CH", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
//! let g = Arc::new(g);
//!
//! // action Broadcast(i): for j in 1..n: send value[i] to CH[j]
//! let broadcast = DslAction::build("Broadcast", &g)
//!     .param("i", Sort::Int)
//!     .local("j", Sort::Int)
//!     .body(vec![for_range("j", int(1), var("n"), vec![
//!         send_to("CH", var("j"), get(var("value"), var("i"))),
//!     ])])
//!     .finish()?;
//! assert_eq!(broadcast.arity(), 1);
//! # Ok::<(), inseq_lang::TypeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod compile;
#[cfg(feature = "coverage")]
pub mod coverage;
mod error;
mod expr;
mod footprint;
mod interp;
mod pretty;
mod rt;
pub mod serial;
mod sort;
pub mod spec;
mod stmt;
mod typeck;
mod vm;

pub use action::{program_of, ActionBuilder, DslAction, GlobalDecls};
pub use compile::ExecMode;
pub use error::TypeError;
pub use expr::{BinOp, Expr};
pub use pretty::{action_loc, pretty_action};
pub use sort::Sort;
pub use stmt::Stmt;
pub use vm::VmHooks;

/// Ergonomic constructors for expressions and statements, designed for glob
/// import in protocol definitions: `use inseq_lang::build::*;`.
pub mod build {
    pub use crate::expr::build::*;
    pub use crate::stmt::build::*;
}
