//! Property-based conservation of the work-stealing frontier: batched
//! deque handoff must never drop or duplicate a frontier configuration.
//!
//! The observable consequences, checked on randomized spawner programs and
//! worker counts against the sequential kernel:
//!
//! * every reachable configuration is visited (reachable sets are equal),
//! * every visited configuration is expanded **exactly once**
//!   (`Σ expanded = |visited|` — a dropped item would expand fewer, a
//!   duplicated one more, and either would also skew edge counts),
//! * every steal moves at least one configuration (`Σ stolen_in ≥ Σ steals`).

use std::collections::BTreeSet;

use proptest::prelude::*;

use inseq_engine::ParallelExplorer;
use inseq_kernel::{
    ActionOutcome, Config, Explorer, GlobalSchema, GlobalStore, Multiset, NativeAction,
    PendingAsync, Program, Transition, Value,
};

/// Builds a terminating "spawner" program over one integer global from a
/// compact genome: action `i` increments the global by `incs[i]` (at least
/// one) while it is below `cap`, spawning the listed successor actions; at
/// or above `cap` it just consumes itself.
fn spawner_program(cap: i64, genome: &[(i64, Vec<usize>)]) -> Program {
    let n = genome.len();
    let mut builder = Program::builder(GlobalSchema::new(["g"]));
    let spawn_names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
    for (i, (inc, spawns)) in genome.iter().enumerate() {
        let inc = 1 + (inc.rem_euclid(2));
        let created: Vec<String> = spawns
            .iter()
            .map(|&target| spawn_names[target % n].clone())
            .collect();
        builder.action(
            spawn_names[i].clone(),
            NativeAction::new(
                spawn_names[i].clone(),
                0,
                move |g: &GlobalStore, _: &[Value]| {
                    let current = g.get(0).as_int();
                    if current < cap {
                        let mut spawned = Multiset::new();
                        for name in &created {
                            spawned.insert(PendingAsync::new(name.as_str(), vec![]));
                        }
                        ActionOutcome::Transitions(vec![Transition::new(
                            g.with(0, Value::Int(current + inc)),
                            spawned,
                        )])
                    } else {
                        ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
                    }
                },
            ),
        );
    }
    let entry: Vec<String> = spawn_names.clone();
    builder.action(
        "Main",
        NativeAction::new("Main", 0, move |g: &GlobalStore, _: &[Value]| {
            let mut spawned = Multiset::new();
            for name in &entry {
                spawned.insert(PendingAsync::new(name.as_str(), vec![]));
            }
            ActionOutcome::Transitions(vec![Transition::new(g.with(0, Value::Int(0)), spawned)])
        }),
    );
    builder.build().expect("spawner program is well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_handoff_conserves_the_frontier(
        cap in 1i64..5,
        genome in proptest::collection::vec(
            (0i64..2, proptest::collection::vec(0usize..4, 0..3)),
            1..4,
        ),
        workers in 1usize..9,
    ) {
        let program = spawner_program(cap, &genome);
        let init = program.initial_config(vec![]).unwrap();
        let sequential = Explorer::new(&program).explore([init.clone()]).unwrap();
        let seq_set: BTreeSet<Config> = sequential.configs().cloned().collect();

        let parallel = ParallelExplorer::new(&program)
            .with_workers(workers)
            .explore([init])
            .unwrap();
        let par_set: BTreeSet<Config> = parallel.configs().collect();
        prop_assert_eq!(&par_set, &seq_set, "workers = {}", workers);
        prop_assert_eq!(parallel.edge_count(), sequential.edge_count());

        let stats = parallel.stats();
        // No drop, no duplicate: every visited config expanded exactly once.
        prop_assert_eq!(stats.expanded() as usize, parallel.config_count());
        // Every distinct config is exactly one dedup miss somewhere.
        prop_assert_eq!(stats.intern().misses as usize, parallel.config_count());
        // Every steal moved at least one configuration.
        prop_assert!(stats.stolen() >= stats.steals());
    }
}
