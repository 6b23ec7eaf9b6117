//! The seven message-passing case studies of the paper's evaluation
//! (Table 1), each with its full complement of IS proof artifacts:
//!
//! | Module | Protocol | #IS in the paper |
//! |---|---|---|
//! | [`broadcast`] | Broadcast consensus (the running example, Fig. 1) | 2 |
//! | [`ping_pong`] | Ping-Pong | 1 |
//! | [`producer_consumer`] | Producer-Consumer | 1 |
//! | [`n_buyer`] | N-Buyer | 4 |
//! | [`chang_roberts`] | Chang-Roberts leader election | 2 |
//! | [`two_phase_commit`] | Two-phase commit with early abort | 4 |
//! | [`paxos`] | Single-decree Paxos | 1 |
//!
//! Every module provides, for a finite instance size:
//!
//! * the low-level implementation `P1` (fine-grained steps in
//!   continuation-passing style, the paper's §5.2 "Implementation"),
//! * the atomic-action program `P2` (after reduction),
//! * the IS artifacts — invariant action(s), choice function(s), left-mover
//!   abstractions, replacement action(s), and well-founded measure(s),
//! * the functional specification, checked on terminal stores, and
//! * the Table-1 `proof` as data ([`common::Proof`]): `P1 ≼ P2` (explicit
//!   refinement), the IS application(s), `P2 ≼ P'` (the IS guarantee,
//!   re-checked end-to-end), and the spec on `P'` and `P2`, and
//! * a [`common::CaseReport`]-producing `verify` entry point that runs that
//!   proof on the pipeline driver ([`common::Proof::run`]), which explores
//!   each (program, init) once.

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // case errors embed verification witnesses
#![warn(missing_docs)]

pub mod broadcast;
pub mod chang_roberts;
pub mod common;
pub mod n_buyer;
pub mod paxos;
pub mod paxos_impl;
pub mod ping_pong;
pub mod producer_consumer;
pub mod two_phase_commit;
pub mod zoo;

pub use common::ExplorationCase;

/// All seven cases of Table 1 at small reference instance sizes, packaged
/// as [`ExplorationCase`]s for exploration engines (kernel types only, so
/// both the sequential explorer and `inseq-engine`'s parallel one can
/// consume them).
#[must_use]
pub fn exploration_cases() -> Vec<ExplorationCase> {
    vec![
        broadcast::exploration_case(&broadcast::Instance::new(&[3, 1, 2])),
        ping_pong::exploration_case(ping_pong::Instance::new(4)),
        producer_consumer::exploration_case(producer_consumer::Instance::new(4)),
        n_buyer::exploration_case(&n_buyer::Instance::new(10, &[6, 6, 9])),
        chang_roberts::exploration_case(&chang_roberts::Instance::new(&[10, 30, 20])),
        two_phase_commit::exploration_case(&two_phase_commit::Instance::new(&[true, false, true])),
        paxos::exploration_case(paxos::Instance::new(2, 2)),
    ]
}

/// The `table1 --large` tier: parametric instances sized so exploration
/// visits 10^4–10^6+ configurations — big enough that configs/sec and
/// multi-worker speedup are meaningful, small enough to fit the kernel's
/// default configuration budget.
///
/// Ordered by ascending sequential exploration cost. The first case is the
/// one CI's `large-smoke` job and the cross-engine equivalence gate run;
/// the last (multi-round multi-decree Paxos) is the headline instance with
/// over two million reachable configurations.
///
/// Measured sequential visited-set sizes:
///
/// | Case | Instance | Visited | Edges |
/// |---|---|---:|---:|
/// | Broadcast | `n = 6` | 128 | 385 |
/// | Producer-Consumer | `K = 256` | 33,154 | 65,793 |
/// | Paxos | `R = 3, N = 2` | 54,873 | 245,509 |
/// | Chang-Roberts | `n = 8`, scrambled ring | 362,881 | 2,239,345 |
/// | Two-phase commit | `n = 8`, one abort | 566,434 | 4,889,404 |
/// | Paxos | `R = 4, N = 2` | 2,085,137 | 11,851,273 |
#[must_use]
pub fn large_exploration_cases() -> Vec<ExplorationCase> {
    // A ring whose ids are a scrambled permutation: sorted ids collapse the
    // election races and shrink the reachable set by orders of magnitude.
    let ring_ids: Vec<i64> = (1..=8).map(|i| ((i * 7) % 8) * 10 + i).collect();
    let broadcast_vals: Vec<i64> = (1..=6).collect();
    // One dissenting participant keeps both the commit and abort phases
    // reachable (an all-yes instance never exercises the abort paths).
    let votes: Vec<bool> = (0..8).map(|i| i != 1).collect();
    vec![
        broadcast::exploration_case(&broadcast::Instance::new(&broadcast_vals)),
        producer_consumer::exploration_case(producer_consumer::Instance::new(256)),
        paxos::exploration_case(paxos::Instance::new(3, 2)),
        chang_roberts::exploration_case(&chang_roberts::Instance::new(&ring_ids)),
        two_phase_commit::exploration_case(&two_phase_commit::Instance::new(&votes)),
        paxos::exploration_case(paxos::Instance::new(4, 2)),
    ]
}
