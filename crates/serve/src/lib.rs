//! `inseq-serve`: a persistent verification daemon.
//!
//! Batch checking re-explores and re-discharges everything on every run;
//! this crate keeps a verifier *resident* instead. A long-running TCP
//! daemon accepts programs in the corpus s-expression format
//! ([`inseq_lang::serial`]), constructs the mechanical IS application over
//! each ([`inseq_core::mechanical_application`]), schedules the Fig. 3
//! proof obligations on a shared [`inseq_engine::Engine`], and streams
//! verdicts back as JSON lines. Three mechanisms make the daemon worth
//! keeping warm:
//!
//! 1. **Content-addressed caching** — every obligation verdict is stored
//!    under a key derived from the canonical hashes of the artifacts it
//!    evaluates plus the footprint-projected slice of the state universe it
//!    reads ([`inseq_core::incr`]). Re-submitting an identical program is
//!    answered entirely from the whole-run cache, without re-exploring.
//! 2. **Footprint-incremental re-checking** — after an edit, only the
//!    obligations whose read/write footprints intersect the changed actions
//!    are re-discharged; the rest are answered from cache and marked
//!    `"cached": true` on the wire.
//! 3. **Multi-tenant concurrency** — connections are served on separate
//!    threads over one shared engine and cache, with a bounded number of
//!    concurrently running checks (excess requests are rejected gracefully)
//!    and a clean shutdown that drains in-flight obligations.
//!
//! Quick start (see the README's "Serving" section for a netcat session):
//!
//! ```text
//! cargo run --release -p inseq-serve -- --addr 127.0.0.1:9738 --threads 4
//! printf '(ping)\n' | nc 127.0.0.1 9738
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
mod server;

pub use server::{Server, ServerConfig, ServerState, DEFAULT_REQUEST_BUDGET, MAX_REQUEST_LINE};
