//! End-to-end equivalence of the interned explorers with plain semantics on
//! all seven Table-1 protocols and the smallest `--large` instance: the
//! hash-consed sequential explorer and the work-stealing parallel explorer
//! (at 1, 2, 4, and 8 workers) must agree *exactly* — same reachable
//! configuration set, same verdicts, same edge count, same terminal stores.
//! This is the bit-identical-results acceptance gate for the interning
//! layer and the deque engine.

use std::collections::BTreeSet;

use inseq_engine::ParallelExplorer;
use inseq_kernel::{Config, Explorer, GlobalStore};
use inseq_protocols::common::ExplorationCase;
use inseq_protocols::{exploration_cases, large_exploration_cases};

/// Asserts the parallel explorer is bit-identical to the sequential kernel
/// on `case` at every given worker count.
fn assert_engines_agree(case: &ExplorationCase, worker_counts: &[usize]) {
    let seq = Explorer::new(&case.program)
        .explore([case.init.clone()])
        .unwrap_or_else(|e| panic!("{case}: sequential exploration failed: {e}"));
    let seq_set: BTreeSet<Config> = seq.configs().collect();
    let seq_terminal: BTreeSet<GlobalStore> = seq.terminal_stores().cloned().collect();
    assert_eq!(
        seq_set.len(),
        seq.config_count(),
        "{case}: interned visited list must be duplicate-free"
    );

    for &workers in worker_counts {
        let par = ParallelExplorer::new(&case.program)
            .with_workers(workers)
            .explore([case.init.clone()])
            .unwrap_or_else(|e| panic!("{case}: parallel exploration failed: {e}"));
        let par_set: BTreeSet<Config> = par.configs().collect();
        assert_eq!(
            par_set, seq_set,
            "{case}: reachable set differs at {workers} workers"
        );
        assert_eq!(
            par.config_count(),
            seq.config_count(),
            "{case}: shards must be duplicate-free at {workers} workers"
        );
        assert_eq!(
            par.edge_count(),
            seq.edge_count(),
            "{case}: edge count differs at {workers} workers"
        );
        assert_eq!(
            par.has_failure(),
            seq.has_failure(),
            "{case}: failure verdict differs at {workers} workers"
        );
        assert_eq!(
            par.has_deadlock(),
            seq.has_deadlock(),
            "{case}: deadlock verdict differs at {workers} workers"
        );
        let par_terminal: BTreeSet<GlobalStore> = par.terminal_stores().cloned().collect();
        assert_eq!(
            par_terminal, seq_terminal,
            "{case}: terminal stores differ at {workers} workers"
        );
        assert_eq!(
            par.summary().good,
            !seq.has_failure(),
            "{case}: summary verdict differs"
        );
    }
}

#[test]
fn interned_explorers_agree_on_all_seven_protocols() {
    for case in exploration_cases() {
        assert_engines_agree(&case, &[1, 2, 4, 8]);
    }
}

/// The large-tier gate: on the smallest `--large` instance the deque engine
/// stays bit-identical to the sequential kernel at 1/2/4/8 workers. The
/// smaller reference instances above cannot exercise deep deques or steal
/// batches; this case does (tens of thousands of configurations).
#[test]
fn work_stealing_engine_is_bit_identical_on_the_smallest_large_instance() {
    let cases = large_exploration_cases();
    let case = cases
        .iter()
        .find(|c| c.name == "Producer-Consumer")
        .expect("the large tier includes a deep producer-consumer queue");
    assert_engines_agree(case, &[1, 2, 4, 8]);
}

#[test]
fn exploration_is_deterministic_across_runs() {
    // Interning must not introduce any run-to-run nondeterminism in the
    // sequential explorer: two explorations of the same case are identical
    // config-for-config and edge-for-edge (not merely set-equal).
    for case in exploration_cases().into_iter().take(4) {
        let a = Explorer::new(&case.program)
            .explore([case.init.clone()])
            .unwrap();
        let b = Explorer::new(&case.program)
            .explore([case.init.clone()])
            .unwrap();
        let ca: Vec<Config> = a.configs().collect();
        let cb: Vec<Config> = b.configs().collect();
        assert_eq!(ca, cb, "{case}: visit order must be deterministic");
        assert_eq!(a.edge_count(), b.edge_count(), "{case}");
    }
}
