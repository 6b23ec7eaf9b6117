//! Benchmark harness regenerating the paper's evaluation (§5): the Table 1
//! rows, the §5.2 invariant-complexity comparison, the §5.3 iterated-IS
//! ablation, and a scaling sweep over instance sizes.
//!
//! The reference instances below are the largest that our explicit-state
//! checker (the SMT substitute, see DESIGN.md §2) verifies in interactive
//! time; EXPERIMENTS.md records the measured numbers next to the paper's.

#![forbid(unsafe_code)]
#![allow(clippy::result_large_err)] // pipeline errors embed case reports
#![warn(missing_docs)]

pub mod large;

pub use large::{
    large_rows, large_rows_as_json, machine_cores, render_large, render_large_stats, LargeEngine,
    LargeOptions, LargeRow,
};

use std::time::Duration;

use inseq_baseline::{broadcast_flat, check_flat_invariant, paxos_flat, FlatOptions};
use inseq_protocols::common::{CaseError, CaseReport};
use inseq_protocols::{
    broadcast, chang_roberts, n_buyer, paxos, ping_pong, producer_consumer, two_phase_commit,
};

/// The reference instance of each protocol (the sizes used for the Table 1
/// reproduction).
pub mod instances {
    use super::*;

    /// Broadcast consensus: `n = 3`, distinct values.
    #[must_use]
    pub fn broadcast() -> broadcast::Instance {
        broadcast::Instance::new(&[3, 1, 2])
    }

    /// Ping-Pong: `K = 4` rounds.
    #[must_use]
    pub fn ping_pong() -> ping_pong::Instance {
        ping_pong::Instance::new(4)
    }

    /// Producer-Consumer: `K = 4` items.
    #[must_use]
    pub fn producer_consumer() -> producer_consumer::Instance {
        producer_consumer::Instance::new(4)
    }

    /// N-Buyer: three buyers, affordable price.
    #[must_use]
    pub fn n_buyer() -> n_buyer::Instance {
        n_buyer::Instance::new(10, &[6, 6, 9])
    }

    /// Chang-Roberts: a ring of three nodes with the maximum in the middle.
    #[must_use]
    pub fn chang_roberts() -> chang_roberts::Instance {
        chang_roberts::Instance::new(&[10, 30, 20])
    }

    /// Two-phase commit: three participants with an early abort.
    #[must_use]
    pub fn two_phase_commit() -> two_phase_commit::Instance {
        two_phase_commit::Instance::new(&[true, false, true])
    }

    /// Paxos: two rounds, two acceptors.
    #[must_use]
    pub fn paxos() -> paxos::Instance {
        paxos::Instance::new(2, 2)
    }
}

/// A Table-1 pipeline: one protocol's `verify` (a [`Proof`] run) at its
/// reference instance.
///
/// [`Proof`]: inseq_protocols::common::Proof
pub type Table1Runner = fn() -> Result<CaseReport, CaseError>;

/// The seven rows of Table 1, in the paper's order: each protocol's name
/// and its pipeline at the reference instance. [`table1_rows`] and
/// [`table1_rows_only`] both run this list.
pub const TABLE1: [(&str, Table1Runner); 7] = [
    ("Broadcast consensus", || {
        broadcast::verify(&instances::broadcast())
    }),
    ("Ping-Pong", || ping_pong::verify(instances::ping_pong())),
    ("Producer-Consumer", || {
        producer_consumer::verify(instances::producer_consumer())
    }),
    ("N-Buyer", || n_buyer::verify(&instances::n_buyer())),
    ("Chang-Roberts", || {
        chang_roberts::verify(&instances::chang_roberts())
    }),
    ("Two-phase commit", || {
        two_phase_commit::verify(&instances::two_phase_commit())
    }),
    ("Paxos", || paxos::verify(instances::paxos())),
];

/// Runs the full verification pipeline of every protocol on its reference
/// instance — the rows of our Table 1.
///
/// # Errors
///
/// Returns the first failing case.
pub fn table1_rows() -> Result<Vec<CaseReport>, CaseError> {
    TABLE1.iter().map(|(_, run)| run()).collect()
}

/// Like [`table1_rows`], but restricted to protocols whose Table-1 name
/// contains any of `needles` (case-insensitive) — the `table1 --only a,b`
/// path, used by the CI bench smoke to run just the fastest cases.
///
/// # Errors
///
/// Returns the first failing selected case, or a synthetic error when any
/// needle matches no protocol (a misspelled `--only` must not silently
/// shrink the benchmark).
pub fn table1_rows_only(needles: &[String]) -> Result<Vec<CaseReport>, CaseError> {
    if needles.is_empty() {
        return Err(CaseError::new(
            "--only",
            "no needles given; pass one or more protocol-name fragments".to_owned(),
        ));
    }
    let matched_by = |needle: &String| {
        let needle = needle.to_lowercase();
        move |name: &str| name.to_lowercase().contains(&needle)
    };
    if let Some(unmatched) = needles
        .iter()
        .find(|needle| !TABLE1.iter().any(|(name, _)| matched_by(needle)(name)))
    {
        let known: Vec<&str> = TABLE1.iter().map(|(name, _)| *name).collect();
        return Err(CaseError::new(
            "--only",
            format!("needle `{unmatched}` matches no Table-1 protocol; known protocols: {known:?}"),
        ));
    }
    TABLE1
        .iter()
        .filter(|(name, _)| needles.iter().any(|needle| matched_by(needle)(name)))
        .map(|(_, run)| run())
        .collect()
}

/// Renders Table 1 rows in the paper's column layout.
#[must_use]
pub fn render_table1(rows: &[CaseReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>4} {:>6} {:>6} {:>6} {:>10}   {}\n",
        "Example", "#IS", "Total", "IS", "Impl", "Time", "Instance"
    ));
    out.push_str(&format!("{}\n", "-".repeat(78)));
    for row in rows {
        out.push_str(&format!("{row}\n"));
    }
    out
}

/// One side of the §5.2 invariant-complexity comparison.
#[derive(Debug, Clone)]
pub struct ComparisonSide {
    /// Which artifact this measures.
    pub label: String,
    /// Proof-artifact size: DSL LOC for IS, formula complexity for flat.
    pub artifact_size: usize,
    /// Top-level pieces: IS applications or invariant conjuncts.
    pub pieces: usize,
    /// Wall-clock checking time.
    pub time: Duration,
}

/// The §5.2 comparison for one protocol: IS artifacts vs the flat invariant.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Protocol name.
    pub protocol: String,
    /// The IS side.
    pub is_side: ComparisonSide,
    /// The flat-invariant side.
    pub flat_side: ComparisonSide,
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}:\n  IS    artifacts: size {:>4}, {:>2} application(s), {:>9.3}s",
            self.protocol,
            self.is_side.artifact_size,
            self.is_side.pieces,
            self.is_side.time.as_secs_f64()
        )?;
        write!(
            f,
            "  flat  invariant: size {:>4}, {:>2} conjunct(s),    {:>9.3}s",
            self.flat_side.artifact_size,
            self.flat_side.pieces,
            self.flat_side.time.as_secs_f64()
        )
    }
}

/// The broadcast-consensus §5.2 comparison: the iterated IS proof vs the
/// paper's invariant (2).
///
/// # Errors
///
/// Returns a description of the failing side.
pub fn broadcast_comparison() -> Result<Comparison, String> {
    let instance = instances::broadcast();
    // IS side.
    let artifacts = broadcast::build();
    let (chain_result, is_time) =
        inseq_protocols::common::timed(|| broadcast::iterated_chain(&artifacts, &instance).run());
    let outcome = chain_result.map_err(|e| e.to_string())?;
    let is_loc: usize = [
        &artifacts.main_seq,
        &artifacts.inv_broadcast,
        &artifacts.main_mid,
        &artifacts.inv_collect,
        &artifacts.collect_abs_weak,
    ]
    .iter()
    .map(|a| inseq_lang::action_loc(a))
    .sum();
    // Flat side.
    let flat = broadcast_flat::build();
    let inv = broadcast_flat::invariant();
    let init = broadcast_flat::init_config(&flat, &instance.values);
    let report = check_flat_invariant(&flat.p2, init, &inv, FlatOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(Comparison {
        protocol: "Broadcast consensus".into(),
        is_side: ComparisonSide {
            label: "iterated IS".into(),
            artifact_size: is_loc,
            pieces: outcome.reports.len(),
            time: is_time,
        },
        flat_side: ComparisonSide {
            label: inv.name,
            artifact_size: report.complexity,
            pieces: report.conjuncts,
            time: report.time,
        },
    })
}

/// The Paxos §5.2 comparison: `PaxosInv` + abstractions vs the Ivy-style
/// flat invariant.
///
/// # Errors
///
/// Returns a description of the failing side.
pub fn paxos_comparison() -> Result<Comparison, String> {
    let instance = instances::paxos();
    let artifacts = paxos::build();
    let (check_result, is_time) =
        inseq_protocols::common::timed(|| paxos::application(&artifacts, instance).check());
    check_result.map_err(|e| e.to_string())?;
    let is_loc: usize = [
        &artifacts.round_seq,
        &artifacts.main_seq,
        &artifacts.inv,
        &artifacts.start_round_abs,
        &artifacts.join_abs,
        &artifacts.propose_abs,
        &artifacts.vote_abs,
        &artifacts.conclude_abs,
    ]
    .iter()
    .map(|a| inseq_lang::action_loc(a))
    .sum();
    let inv = paxos_flat::invariant();
    let (p2, init) = paxos_flat::program_and_init(instance);
    let report = check_flat_invariant(
        &p2,
        init,
        &inv,
        FlatOptions {
            perturbations: 50,
            ..FlatOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(Comparison {
        protocol: "Paxos".into(),
        is_side: ComparisonSide {
            label: "IS (PaxosInv + 5 abstractions)".into(),
            artifact_size: is_loc,
            pieces: 1,
            time: is_time,
        },
        flat_side: ComparisonSide {
            label: inv.name,
            artifact_size: report.complexity,
            pieces: report.conjuncts,
            time: report.time,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_instances_are_well_formed() {
        assert_eq!(instances::broadcast().n, 3);
        assert_eq!(instances::paxos().quorum(), 2);
    }

    #[test]
    fn render_produces_one_line_per_row() {
        let rows = vec![];
        let text = render_table1(&rows);
        assert!(text.contains("#IS"));
    }
}
