//! The kernel [`Explorer`] against a plain-semantics breadth-first search:
//! owned configurations, [`Program::eval_pa`] on every firing, bag updates
//! through [`Multiset`] operations, no interner and no successor cache.
//!
//! The explorer must equal the reference exactly: configurations in id
//! (discovery) order, its edge count, every edge in firing order (as
//! `Exploration::steps` re-derives them), every gate failure in
//! order with its fired pending async, reason and shortest witness,
//! deadlocks with their witnesses, terminal stores, and — under a budget —
//! the same error at the same point. The engine shares the successor cache
//! with the kernel, so the kernel-vs-engine equivalence gates cannot catch
//! a cache bug; this gate can.

use std::collections::HashMap;

use inseq_kernel::{
    ActionOutcome, Config, Exploration, ExploreError, Explorer, FailureWitness, GlobalSchema,
    GlobalStore, Multiset, NativeAction, PendingAsync, Program, Step, Trace, Transition, Value,
    DEFAULT_CONFIG_BUDGET,
};
use inseq_protocols::{
    broadcast, chang_roberts, n_buyer, paxos, paxos_impl, ping_pong, producer_consumer,
    two_phase_commit,
};

/// The reachable graph as the plain multiset semantics builds it, one
/// pending async at a time.
#[derive(Default)]
struct Reference {
    configs: Vec<Config>,
    index: HashMap<Config, usize>,
    /// The edge that discovered each configuration (`None` for seeds).
    parent: Vec<Option<(usize, PendingAsync)>>,
    edges: Vec<(usize, PendingAsync, usize)>,
    failures: Vec<(usize, PendingAsync, String)>,
    deadlocks: Vec<usize>,
}

impl Reference {
    /// Breadth-first exploration from `initial`. Seeds are exempt from the
    /// budget; the first fresh configuration past it ends the run, as does
    /// the first evaluation error.
    fn explore(program: &Program, initial: &[Config], budget: usize) -> Result<Self, ExploreError> {
        let mut r = Reference::default();
        let mut frontier = Vec::new();
        for config in initial {
            frontier.push(r.intern(config.clone(), None).0);
        }
        let mut cursor = 0;
        while cursor < frontier.len() {
            let from = frontier[cursor];
            cursor += 1;
            let config = r.configs[from].clone();
            let mut progressed = config.pending.is_empty();
            for pa in config.pending.distinct() {
                match program.eval_pa(&config.globals, pa)? {
                    ActionOutcome::Failure { reason } => {
                        progressed = true;
                        r.failures.push((from, pa.clone(), reason));
                    }
                    ActionOutcome::Transitions(ts) => {
                        progressed |= !ts.is_empty();
                        for t in ts {
                            let mut bag = config.pending.clone();
                            assert!(bag.remove_one(pa));
                            let next = Config::new(t.globals, bag.union(&t.created));
                            let (to, fresh) = r.intern(next, Some((from, pa.clone())));
                            r.edges.push((from, pa.clone(), to));
                            if fresh {
                                if r.configs.len() > budget {
                                    return Err(ExploreError::BudgetExceeded {
                                        limit: budget,
                                        visited: r.configs.len(),
                                        trace: Some(r.trace(to)),
                                    });
                                }
                                frontier.push(to);
                            }
                        }
                    }
                }
            }
            if !progressed {
                r.deadlocks.push(from);
            }
        }
        Ok(r)
    }

    fn intern(&mut self, config: Config, edge: Option<(usize, PendingAsync)>) -> (usize, bool) {
        if let Some(&id) = self.index.get(&config) {
            return (id, false);
        }
        let id = self.configs.len();
        self.index.insert(config.clone(), id);
        self.configs.push(config);
        self.parent.push(edge);
        (id, true)
    }

    /// The discovering-edge path from a seed to `target`: breadth-first
    /// order makes it a shortest one.
    fn trace(&self, mut target: usize) -> Trace {
        let mut steps = Vec::new();
        while let Some((from, fired)) = &self.parent[target] {
            steps.push(Step {
                before: self.configs[*from].clone(),
                fired: fired.clone(),
                after: self.configs[target].clone(),
            });
            target = *from;
        }
        steps.reverse();
        Trace { steps }
    }
}

/// Asserts `exp` equals the reference in every observable, in order.
fn assert_matches(label: &str, program: &Program, exp: &Exploration, r: &Reference) {
    let configs: Vec<Config> = exp.configs().collect();
    assert_eq!(configs, r.configs, "{label}: configurations in id order");
    assert_eq!(exp.edge_count(), r.edges.len(), "{label}: edge count");
    let steps: Vec<Step> = exp.steps(program).collect();
    let want: Vec<Step> = r
        .edges
        .iter()
        .map(|(from, fired, to)| Step {
            before: r.configs[*from].clone(),
            fired: fired.clone(),
            after: r.configs[*to].clone(),
        })
        .collect();
    assert_eq!(steps.len(), want.len(), "{label}: step count");
    assert_eq!(steps, want, "{label}: edges in firing order");
    let want: Vec<FailureWitness> = r
        .failures
        .iter()
        .map(|(at, fired, reason)| FailureWitness {
            trace: r.trace(*at),
            fired: fired.clone(),
            reason: reason.clone(),
        })
        .collect();
    assert_eq!(exp.failure_witnesses(), want, "{label}: failures");
    let want: Vec<String> = r
        .failures
        .iter()
        .map(|(at, fired, reason)| {
            format!("executing {fired} from {} fails: {reason}", r.configs[*at])
        })
        .collect();
    assert_eq!(exp.failure_reports(), want, "{label}: failure reports");
    let deadlocked: Vec<Config> = exp.deadlocked_configs().collect();
    let want: Vec<Config> = r.deadlocks.iter().map(|&d| r.configs[d].clone()).collect();
    assert_eq!(deadlocked, want, "{label}: deadlocks");
    let want: Vec<Trace> = r.deadlocks.iter().map(|&d| r.trace(d)).collect();
    assert_eq!(
        exp.deadlock_witnesses(),
        want,
        "{label}: deadlock witnesses"
    );
    let terminal: Vec<&GlobalStore> = exp.terminal_stores().collect();
    let want: Vec<&GlobalStore> = r
        .configs
        .iter()
        .filter(|c| c.is_terminal())
        .map(|c| &c.globals)
        .collect();
    assert_eq!(terminal, want, "{label}: terminal stores");
}

/// Explores `program` from `init` both ways and compares.
fn check(label: &str, program: &Program, init: &Config) -> Exploration {
    let exp = Explorer::new(program)
        .explore([init.clone()])
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let r = Reference::explore(program, std::slice::from_ref(init), DEFAULT_CONFIG_BUDGET)
        .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
    assert_matches(label, program, &exp, &r);
    exp
}

/// Compares `P1`, `P2` and the sequentialization `P′` of one Table-1 row.
fn check_row(name: &str, p1: (&Program, Config), p2: (&Program, Config), p_prime: &Program) {
    check(&format!("{name} P1"), p1.0, &p1.1);
    check(&format!("{name} P2"), p2.0, &p2.1);
    check(&format!("{name} P′"), p_prime, &p2.1);
}

#[test]
fn table1_programs_match_the_reference() {
    // The instances of `inseq_protocols::exploration_cases`.
    let a = broadcast::build();
    let i = broadcast::Instance::new(&[3, 1, 2]);
    let pp = broadcast::iterated_chain(&a, &i).run().unwrap().program;
    check_row(
        "Broadcast",
        (&a.p1, broadcast::init_config(&a.p1, &a, &i)),
        (&a.p2, broadcast::init_config(&a.p2, &a, &i)),
        &pp,
    );

    let a = ping_pong::build();
    let i = ping_pong::Instance::new(4);
    let (pp, _) = ping_pong::application(&a, i).check_and_apply().unwrap();
    check_row(
        "Ping-Pong",
        (&a.p1, ping_pong::init_config(&a.p1, &a, i)),
        (&a.p2, ping_pong::init_config(&a.p2, &a, i)),
        &pp,
    );

    let a = producer_consumer::build();
    let i = producer_consumer::Instance::new(4);
    let (pp, _) = producer_consumer::application(&a, i)
        .check_and_apply()
        .unwrap();
    check_row(
        "Producer-Consumer",
        (&a.p1, producer_consumer::init_config(&a.p1, &a, i)),
        (&a.p2, producer_consumer::init_config(&a.p2, &a, i)),
        &pp,
    );

    let a = n_buyer::build();
    let i = n_buyer::Instance::new(10, &[6, 6, 9]);
    let pp = n_buyer::iterated_chain(&a, &i).run().unwrap().program;
    check_row(
        "N-Buyer",
        (&a.p1, n_buyer::init_config(&a.p1, &a, &i)),
        (&a.p2, n_buyer::init_config(&a.p2, &a, &i)),
        &pp,
    );

    let a = chang_roberts::build();
    let i = chang_roberts::Instance::new(&[10, 30, 20]);
    let pp = chang_roberts::iterated_chain(&a, &i).run().unwrap().program;
    check_row(
        "Chang-Roberts",
        (&a.p1, chang_roberts::init_config(&a.p1, &a, &i)),
        (&a.p2, chang_roberts::init_config(&a.p2, &a, &i)),
        &pp,
    );

    let a = two_phase_commit::build();
    let i = two_phase_commit::Instance::new(&[true, false, true]);
    let pp = two_phase_commit::iterated_chain(&a, &i)
        .run()
        .unwrap()
        .program;
    check_row(
        "Two-phase commit",
        (&a.p1, two_phase_commit::init_config(&a.p1, &a, &i)),
        (&a.p2, two_phase_commit::init_config(&a.p2, &a, &i)),
        &pp,
    );

    // Paxos P1 at R = 1 (R = 2 is left to the engine gates for its size).
    let a = paxos::build();
    let i = paxos::Instance::new(2, 2);
    let (pp, _) = paxos::application(&a, i).check_and_apply().unwrap();
    let imp = paxos_impl::build();
    check_row(
        "Paxos",
        (
            &imp.p1,
            paxos_impl::init_config(&imp, paxos::Instance::new(1, 2)),
        ),
        (&a.p2, paxos::init_config(&a.p2, &a, i)),
        &pp,
    );
}

#[test]
fn zoo_programs_match_the_reference() {
    let cases = inseq_protocols::zoo::zoo_exploration_cases();
    assert_eq!(cases.len(), 3);
    for case in &cases {
        check(&case.to_string(), &case.program, &case.init);
    }
}

#[test]
fn paxos_implementation_repeats_pairs_and_matches_the_reference() {
    let imp = paxos_impl::build();
    let init = paxos_impl::init_config(&imp, paxos::Instance::new(1, 2));
    let exp = check("Paxos P1 R=1,N=2", &imp.p1, &init);
    assert!(
        exp.succ_cache_stats().hits > 0,
        "P1 fires repeated (store, pending) pairs: {}",
        exp.succ_cache_stats()
    );
}

/// A native program over one global `g` that never changes: `Main` spawns
/// `main_spawns`, and each named action creates its listed pendings (or
/// fails, for `"F"`).
fn still_program(
    main_spawns: &'static [&'static str],
    actions: &[(&'static str, &'static [&'static str])],
) -> Program {
    let spawn = |names: &'static [&'static str]| {
        move |g: &GlobalStore, _: &[Value]| {
            let created: Multiset<PendingAsync> = names
                .iter()
                .map(|&n| PendingAsync::new(n, vec![]))
                .collect();
            ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
        }
    };
    let mut b = Program::builder(GlobalSchema::new(["g"]));
    b.action("Main", NativeAction::new("Main", 0, spawn(main_spawns)));
    for &(name, creates) in actions {
        if name == "F" {
            b.action(
                "F",
                NativeAction::new("F", 0, |_: &GlobalStore, _: &[Value]| {
                    ActionOutcome::Failure {
                        reason: "assert false".into(),
                    }
                }),
            );
        } else {
            b.action(name, NativeAction::new(name, 0, spawn(creates)));
        }
    }
    b.build().unwrap()
}

fn still_init(p: &Program) -> Config {
    p.initial_config_with(GlobalStore::new(vec![Value::Int(0)]), vec![])
        .unwrap()
}

#[test]
fn a_cached_failure_is_reported_at_every_configuration_that_fires_it() {
    // (g, {A, F}) fails F; firing A leads to (g, {F}), where the same
    // (store, F) pair fails again — now a cache hit.
    let p = still_program(&["A", "F"], &[("A", &[]), ("F", &[])]);
    let exp = check("failure twice", &p, &still_init(&p));
    let witnesses = exp.failure_witnesses();
    assert_eq!(witnesses.len(), 2, "{witnesses:?}");
    assert_eq!(witnesses[0].trace.to_string(), "Main()");
    assert_eq!(witnesses[1].trace.to_string(), "Main() ; A()");
    assert_eq!(exp.succ_cache_stats().hits, 1);
}

#[test]
fn a_cache_hit_that_crosses_the_budget_stops_before_the_next_evaluation() {
    // (g, {Main}) → (g, {A, X}); firing A adds `Zzz`, which names no
    // action, and X at that store is cached by the time (g, {X, Zzz}) is
    // expanded. Its hit successor (g, {Zzz}) is the fifth configuration.
    let p = still_program(&["A", "X"], &[("A", &["Zzz"]), ("X", &[])]);
    let init = still_init(&p);
    for budget in [4, 5] {
        let got = Explorer::new(&p)
            .with_budget(budget)
            .explore([init.clone()])
            .unwrap_err();
        let want = Reference::explore(&p, std::slice::from_ref(&init), budget)
            .err()
            .unwrap();
        assert_eq!(got, want, "budget {budget}");
    }
    // At 4 the hit's successor crosses the budget before `Zzz` is
    // evaluated; at 5 it fits, and `Zzz`'s evaluation error ends the run.
    let at_four = Explorer::new(&p)
        .with_budget(4)
        .explore([init.clone()])
        .unwrap_err();
    let ExploreError::BudgetExceeded {
        visited: 5,
        trace: Some(trace),
        ..
    } = at_four
    else {
        panic!("expected the budget to trip first, got {at_four:?}");
    };
    assert_eq!(trace.to_string(), "Main() ; A() ; X()");
    let at_five = Explorer::new(&p)
        .with_budget(5)
        .explore([init])
        .unwrap_err();
    assert!(
        matches!(at_five, ExploreError::Kernel(_)),
        "expected the unknown action, got {at_five:?}"
    );
}

/// A random protocol over one counter `g`: each `Ai` adds 1 or 2 while
/// `g < cap` and spawns its listed actions; `Main` zeroes `g` and spawns
/// every `Ai` once.
fn spawner_program(cap: i64, genome: &[(i64, Vec<usize>)]) -> Program {
    let n = genome.len();
    let mut builder = Program::builder(GlobalSchema::new(["g"]));
    let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
    for (i, (inc, spawns)) in genome.iter().enumerate() {
        let inc = 1 + inc.rem_euclid(2);
        let created: Vec<String> = spawns.iter().map(|&t| names[t % n].clone()).collect();
        builder.action(
            names[i].clone(),
            NativeAction::new(names[i].clone(), 0, move |g: &GlobalStore, _: &[Value]| {
                let current = g.get(0).as_int();
                if current < cap {
                    let spawned: Multiset<PendingAsync> = created
                        .iter()
                        .map(|name| PendingAsync::new(name.as_str(), vec![]))
                        .collect();
                    ActionOutcome::Transitions(vec![Transition::new(
                        g.with(0, Value::Int(current + inc)),
                        spawned,
                    )])
                } else {
                    ActionOutcome::Transitions(vec![Transition::pure(g.clone())])
                }
            }),
        );
    }
    let entry = names.clone();
    builder.action(
        "Main",
        NativeAction::new("Main", 0, move |g: &GlobalStore, _: &[Value]| {
            let spawned: Multiset<PendingAsync> = entry
                .iter()
                .map(|name| PendingAsync::new(name.as_str(), vec![]))
                .collect();
            ActionOutcome::Transitions(vec![Transition::new(g.with(0, Value::Int(0)), spawned)])
        }),
    );
    builder.build().expect("spawner program is well formed")
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn explorer_matches_the_reference_on_random_programs(
            cap in 1i64..5,
            genome in proptest::collection::vec(
                (0i64..2, proptest::collection::vec(0usize..4, 0..3)),
                1..4,
            ),
        ) {
            let program = spawner_program(cap, &genome);
            let init = program.initial_config(vec![]).unwrap();
            check("spawner", &program, &init);
        }
    }
}
