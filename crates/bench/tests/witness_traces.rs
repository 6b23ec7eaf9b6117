//! The steal engine's parent forest must cover the *whole* visited set:
//! `trace_to` rebuilds a concrete firing sequence to every configuration
//! the engine interned, on all seven Table 1 protocols, at 1/2/4/8
//! workers. This pins the witness-trace restoration — an earlier engine
//! revision kept no parent forest and answered `trace: None` on every
//! parallel counterexample — at the strongest level: if *any* reachable
//! configuration lacked a parent edge, a violation at that configuration
//! would be the one that loses its witness.
//!
//! Traces are validated structurally (start at the seed, steps chain,
//! end at the target), not compared step-for-step against the sequential
//! kernel: the forest records whichever schedule interned first, so a
//! parallel trace is a real run but not necessarily the BFS-shortest one.
//! The sequential kernel's traces, by contrast, are BFS-shortest, which
//! the last test pins against distances computed from the explored graph.

use std::collections::{HashMap, VecDeque};

use inseq_engine::ParallelExplorer;
use inseq_kernel::{Config, Explorer};
use inseq_protocols::exploration_cases;

#[test]
fn every_visited_config_has_a_witness_trace_at_1_2_4_8_workers() {
    for case in exploration_cases() {
        for workers in [1usize, 2, 4, 8] {
            let exploration = ParallelExplorer::new(&case.program)
                .with_workers(workers)
                .explore([case.init.clone()])
                .unwrap_or_else(|e| panic!("{case}: exploration failed at w={workers}: {e}"));
            for config in exploration.configs() {
                let trace = exploration.trace_to(&config).unwrap_or_else(|| {
                    panic!(
                        "{case}, w={workers}: visited configuration {config} has no \
                         witness trace"
                    )
                });
                if config == case.init {
                    assert!(trace.is_empty(), "{case}, w={workers}: seed trace");
                    continue;
                }
                let first = &trace.steps[0];
                assert_eq!(
                    first.before, case.init,
                    "{case}, w={workers}: trace must start at the seed"
                );
                for pair in trace.steps.windows(2) {
                    assert_eq!(
                        pair[0].after, pair[1].before,
                        "{case}, w={workers}: steps must chain"
                    );
                }
                assert_eq!(
                    trace.last(),
                    Some(&config),
                    "{case}, w={workers}: trace must end at its target"
                );
            }
        }
    }
}

/// The sequential kernel's witness traces are BFS-shortest: on every
/// Table 1 P2 program, the trace to each visited configuration has exactly
/// as many firings as that configuration's breadth-first distance from the
/// seed, computed here independently from the explored graph's `steps()`.
#[test]
fn kernel_traces_are_bfs_shortest() {
    for case in exploration_cases() {
        let exploration = Explorer::new(&case.program)
            .explore([case.init.clone()])
            .unwrap_or_else(|e| panic!("{case}: exploration failed: {e}"));
        let mut successors: HashMap<Config, Vec<Config>> = HashMap::new();
        for step in exploration.steps() {
            successors.entry(step.before).or_default().push(step.after);
        }
        let mut distance: HashMap<Config, usize> = HashMap::from([(case.init.clone(), 0)]);
        let mut queue = VecDeque::from([case.init.clone()]);
        while let Some(config) = queue.pop_front() {
            let d = distance[&config];
            for next in successors.get(&config).into_iter().flatten() {
                if !distance.contains_key(next) {
                    distance.insert(next.clone(), d + 1);
                    queue.push_back(next.clone());
                }
            }
        }
        assert_eq!(
            distance.len(),
            exploration.config_count(),
            "{case}: every visited config is reachable over steps()"
        );
        for config in exploration.configs() {
            let trace = exploration
                .trace_to(config)
                .unwrap_or_else(|| panic!("{case}: visited config {config} has no trace"));
            assert_eq!(
                trace.len(),
                distance[config],
                "{case}: the trace to {config} is not BFS-shortest"
            );
        }
    }
}
