//! Cross-crate equivalence: the sharded parallel explorer must reach
//! exactly the same configuration set — and render the same verdict — as
//! the sequential kernel explorer, for every protocol of Table 1 and for
//! randomly generated programs.

use std::collections::{BTreeMap, BTreeSet};

use inductive_sequentialization::core::{ArtifactKeys, ObligationCache};
use inductive_sequentialization::engine::{Engine, ParallelExplorer};
use inductive_sequentialization::kernel::{
    ActionOutcome, Config, Explorer, GlobalSchema, GlobalStore, Multiset, NativeAction,
    PendingAsync, Program, Transition, Value,
};
use inductive_sequentialization::protocols::{broadcast, exploration_cases};

/// Explores `program` from `init` both ways and asserts bit-identical
/// reachable sets and verdicts for 1, 2, and 4 workers.
fn assert_equivalent(label: &str, program: &Program, init: Config) {
    let sequential = Explorer::new(program)
        .explore([init.clone()])
        .unwrap_or_else(|e| panic!("{label}: sequential exploration failed: {e}"));
    let seq_set: BTreeSet<Config> = sequential.configs().collect();
    let seq_terminal: BTreeSet<_> = sequential.terminal_stores().cloned().collect();

    for workers in [1, 2, 4] {
        let parallel = ParallelExplorer::new(program)
            .with_workers(workers)
            .explore([init.clone()])
            .unwrap_or_else(|e| panic!("{label}: parallel exploration failed: {e}"));
        let par_set: BTreeSet<Config> = parallel.configs().collect();
        assert_eq!(
            par_set, seq_set,
            "{label}: reachable sets differ with {workers} workers"
        );
        assert_eq!(
            parallel.config_count(),
            sequential.config_count(),
            "{label}: config counts differ with {workers} workers"
        );
        assert_eq!(
            parallel.edge_count(),
            sequential.edge_count(),
            "{label}: edge counts differ with {workers} workers"
        );
        assert_eq!(
            parallel.has_failure(),
            sequential.has_failure(),
            "{label}: failure verdicts differ with {workers} workers"
        );
        assert_eq!(
            parallel.has_deadlock(),
            sequential.has_deadlock(),
            "{label}: deadlock verdicts differ with {workers} workers"
        );
        let par_terminal: BTreeSet<_> = parallel.terminal_stores().cloned().collect();
        assert_eq!(
            par_terminal, seq_terminal,
            "{label}: terminal stores differ with {workers} workers"
        );
    }
}

#[test]
fn all_seven_protocols_explore_identically() {
    let cases = exploration_cases();
    assert_eq!(cases.len(), 7, "Table 1 has seven case studies");
    for case in cases {
        assert_equivalent(&case.to_string(), &case.program, case.init.clone());
    }
}

#[test]
fn parallel_summaries_match_sequential_on_every_protocol() {
    for case in exploration_cases() {
        let seq = Explorer::new(&case.program)
            .summarize(case.init.clone())
            .unwrap();
        let par = ParallelExplorer::new(&case.program)
            .with_workers(4)
            .summarize(case.init.clone())
            .unwrap();
        assert_eq!(par, seq, "{case}: summaries differ");
    }
}

#[test]
fn check_with_agrees_with_sequential_check() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let application = broadcast::oneshot_application(&artifacts, &instance);
    let sequential = application.check().expect("broadcast IS premises hold");
    // No artifact keys: nothing is cacheable, so every obligation runs.
    let keys = ArtifactKeys {
        program: 0,
        actions: BTreeMap::new(),
        invariant: 0,
        replacement: 0,
        choice: 0,
    };
    for threads in [1, 4] {
        let exploration = ParallelExplorer::new(application.program())
            .with_workers(threads)
            .with_budget(application.budget_limit())
            .explore(application.instances().iter().cloned())
            .expect("broadcast instance explores within budget");
        let report = application
            .check_on(&exploration)
            .expect("broadcast IS premises hold over a parallel exploration");
        assert_eq!(report, sequential, "threads = {threads}");

        let incremental = application
            .check_incremental(
                &Engine::new().with_threads(threads),
                &ObligationCache::new(),
                &keys,
                &|_| {},
            )
            .expect("broadcast IS premises hold on the engine");
        assert!(incremental.all_passed(), "threads = {threads}");
        assert_eq!(incremental.report, sequential, "threads = {threads}");
        // (I1)(I2)(I3) + 3 obligations per eliminated action.
        assert_eq!(
            incremental.outcomes.len(),
            3 + 3 * report.eliminated_actions,
            "threads = {threads}"
        );
    }
}

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
            // Globals default to `Unit`; Main initialises the counter.
            ActionOutcome::Transitions(vec![Transition::new(g.with(0, Value::Int(0)), spawned)])
        }),
    );
    builder.build().expect("spawner program is well formed")
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn parallel_matches_sequential_on_random_programs(
            cap in 1i64..4,
            genome in proptest::collection::vec(
                (0i64..2, proptest::collection::vec(0usize..4, 0..3)),
                1..4,
            ),
        ) {
            let program = spawner_program(cap, &genome);
            let init = program.initial_config(vec![]).unwrap();
            let sequential = Explorer::new(&program).explore([init.clone()]).unwrap();
            let seq_set: BTreeSet<Config> = sequential.configs().collect();
            for workers in [1, 2, 4] {
                let parallel = ParallelExplorer::new(&program)
                    .with_workers(workers)
                    .explore([init.clone()])
                    .unwrap();
                let par_set: BTreeSet<Config> = parallel.configs().collect();
                prop_assert_eq!(&par_set, &seq_set, "workers = {}", workers);
                prop_assert_eq!(parallel.edge_count(), sequential.edge_count());
                prop_assert_eq!(parallel.has_failure(), sequential.has_failure());
                prop_assert_eq!(parallel.has_deadlock(), sequential.has_deadlock());
            }
        }
    }
}
