//! Known answers the benchmark checks every operation against.

use inseq_core::IsReport;

/// The deterministic counts of one IS application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsCounts {
    /// Reachable configurations of the instance.
    pub configs: usize,
    /// Transition edges of the instance.
    pub edges: usize,
    /// Stores in the quantification universe.
    pub universe_stores: usize,
    /// Invariant transitions examined.
    pub invariant_transitions: usize,
}

impl IsCounts {
    /// The counts `report` carries.
    #[must_use]
    pub fn of(report: &IsReport) -> Self {
        IsCounts {
            configs: report.reachable_configs,
            edges: report.edges,
            universe_stores: report.universe_stores,
            invariant_transitions: report.invariant_transitions,
        }
    }
}

const fn counts(
    configs: usize,
    edges: usize,
    universe_stores: usize,
    invariant_transitions: usize,
) -> IsCounts {
    IsCounts {
        configs,
        edges,
        universe_stores,
        invariant_transitions,
    }
}

/// Paxos at `R = 3, N = 2`: the heavy certification instance.
pub const PAXOS_R3N2: IsCounts = counts(54_873, 245_509, 54_872, 2_094);

/// The Table-1 pipelines at their reference instances: one entry per IS
/// application, keyed like [`crate::report::TABLE1_KEYS`].
pub const TABLE1: [(&str, &[IsCounts]); 7] = [
    ("broadcast", &[counts(16, 25, 16, 4), counts(9, 13, 9, 4)]),
    ("ping_pong", &[counts(11, 10, 9, 10)]),
    ("producer_consumer", &[counts(16, 21, 11, 9)]),
    (
        "n_buyer",
        &[
            counts(8, 7, 6, 2),
            counts(7, 6, 6, 2),
            counts(6, 5, 6, 4),
            counts(3, 2, 3, 2),
        ],
    ),
    ("chang_roberts", &[counts(25, 47, 2, 6), counts(3, 2, 2, 2)]),
    (
        "two_phase_commit",
        &[
            counts(100, 268, 40, 4),
            counts(41, 97, 40, 4),
            counts(10, 14, 10, 2),
            counts(9, 13, 9, 4),
        ],
    ),
    ("paxos", &[counts(1_445, 4_645, 1_444, 231)]),
];

/// The Table-1 counts for protocol `key`.
///
/// # Panics
///
/// Panics on an unknown key.
#[must_use]
pub fn table1(key: &str) -> &'static [IsCounts] {
    TABLE1
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, c)| *c)
        .expect("known Table-1 key")
}

/// Unreduced visited configurations and edges of the large exploration
/// cases, as the doc comment of `inseq_protocols::large_exploration_cases`
/// tabulates them, in that function's order.
pub const LARGE: [(&str, usize, usize); 6] = [
    ("Broadcast consensus", 128, 385),
    ("Producer-Consumer", 33_154, 65_793),
    ("Paxos", 54_873, 245_509),
    ("Chang-Roberts", 362_881, 2_239_345),
    ("Two-phase commit", 566_434, 4_889_404),
    ("Paxos", 2_085_137, 11_851_273),
];
