//! Broadcast consensus — the paper's running example (Fig. 1).
//!
//! `n` nodes agree on a common value: every node broadcasts its input value
//! to all nodes (over bag channels), every node collects `n` values and
//! decides their maximum. The correctness property (1) is that all nodes
//! decide the same value.
//!
//! This module reproduces every artifact of Fig. 1:
//!
//! * ① the low-level program `P1` (fine-grained sends/receives in
//!   continuation-passing style),
//! * ② the atomic-action program `P2` (`Main`, `Broadcast`, `Collect`),
//! * ③ the sequentialization `Main'`,
//! * ④ the abstraction `CollectAbs` with its strengthened gate
//!   (`∀j. Broadcast(j) ∉ Ω ∧ |CH[i]| ≥ n`, via the ghost pending-async
//!   bag), and
//! * ⑤ the invariant action `Inv` describing all partial sequentializations,
//!
//! plus the two proof styles the paper discusses: the **one-shot**
//! application (`E = {Broadcast, Collect}`, needing the full `CollectAbs`
//! gate) and the **iterated** proof of §5.3 (two applications; the second
//! abstraction no longer needs the `Broadcast ∉ Ω` conjunct). Table 1
//! reports `#IS = 2` for this example — the iterated proof.

use std::sync::Arc;

use inseq_core::{chain::IsChain, IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};

use crate::common::{ghost, CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// Ghost tag for `Broadcast` pending asyncs.
pub const TAG_BROADCAST: i64 = 1;
/// Ghost tag for `Collect` pending asyncs.
pub const TAG_COLLECT: i64 = 2;

/// A finite instance: the input value of each node (node `i` holds
/// `values[i-1]`).
#[derive(Debug, Clone)]
pub struct Instance {
    /// Number of nodes.
    pub n: i64,
    /// Input values, indexed by node (1-based in the protocol).
    pub values: Vec<i64>,
}

impl Instance {
    /// Creates an instance from the nodes' input values.
    #[must_use]
    pub fn new(values: &[i64]) -> Self {
        Instance {
            n: values.len() as i64,
            values: values.to_vec(),
        }
    }

    /// The consensus value: the maximum input.
    ///
    /// # Panics
    ///
    /// Panics on an empty instance.
    #[must_use]
    pub fn expected_decision(&self) -> i64 {
        *self.values.iter().max().expect("non-empty instance")
    }
}

/// All programs and proof artifacts for one instance size.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Global declarations shared by `P1` and `P2`.
    pub decls: Arc<GlobalDecls>,
    /// The fine-grained implementation (Fig. 1-①).
    pub p1: Program,
    /// The atomic-action program (Fig. 1-②).
    pub p2: Program,
    /// Atomic `Broadcast(i)`.
    pub broadcast: Arc<DslAction>,
    /// Atomic `Collect(i)`.
    pub collect: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// The sequentialization `Main'` (Fig. 1-③).
    pub main_seq: Arc<DslAction>,
    /// The one-shot invariant action `Inv` (Fig. 1-⑤).
    pub inv_oneshot: Arc<DslAction>,
    /// The abstraction `CollectAbs` with the full gate (Fig. 1-④).
    pub collect_abs: Arc<DslAction>,
    /// Iterated proof, application 1: invariant eliminating `Broadcast`.
    pub inv_broadcast: Arc<DslAction>,
    /// Iterated proof, intermediate target `Main''` (broadcasts
    /// sequentialized, collects still asynchronous).
    pub main_mid: Arc<DslAction>,
    /// Iterated proof, application 2: invariant eliminating `Collect`.
    pub inv_collect: Arc<DslAction>,
    /// Iterated proof: `CollectAbs` without the `Broadcast ∉ Ω` conjunct
    /// (§5.3: the gate on Fig. 1 line 33 is unnecessary after iteration).
    pub collect_abs_weak: Arc<DslAction>,
    /// P1: one send per step, chained by continuation PAs.
    pub broadcast_step: Arc<DslAction>,
    /// P1: one receive per step, folding the running maximum.
    pub collect_step: Arc<DslAction>,
    /// P1: the fine-grained `main`.
    pub main_impl: Arc<DslAction>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![
            self.broadcast.clone(),
            self.collect.clone(),
            self.main.clone(),
        ]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("n", Sort::Int);
    g.declare("value", Sort::map(Sort::Int, Sort::Int));
    g.declare("decision", Sort::map(Sort::Int, Sort::opt(Sort::Int)));
    g.declare("CH", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
    g.declare(ghost::VAR, ghost::sort());
    Arc::new(g)
}

/// Builds all programs and artifacts. The artifacts are instance-independent
/// (they read `n` from the store); the instance only fixes the initial
/// store.
#[must_use]
pub fn build() -> Artifacts {
    let g = decls();

    // ----- P2: atomic actions (Fig. 1-②) -----

    // action Broadcast(i): for j in 1..n: send value[i] to CH[j]
    let broadcast = DslAction::build("Broadcast", &g)
        .param("i", Sort::Int)
        .local("j", Sort::Int)
        .body(vec![
            ghost::consume_stmt(TAG_BROADCAST, var("i")),
            for_range(
                "j",
                int(1),
                var("n"),
                vec![send_to("CH", var("j"), get(var("value"), var("i")))],
            ),
        ])
        .finish()
        .expect("Broadcast type-checks");

    // action Collect(i): receive n values atomically, decide their max.
    let collect = DslAction::build("Collect", &g)
        .param("i", Sort::Int)
        .local("j", Sort::Int)
        .local("v", Sort::Int)
        .local("got", Sort::bag(Sort::Int))
        .body(vec![
            ghost::consume_stmt(TAG_COLLECT, var("i")),
            for_range(
                "j",
                int(1),
                var("n"),
                vec![
                    recv_from("v", "CH", var("i")),
                    assign("got", with_elem(var("got"), var("v"))),
                ],
            ),
            assign_at("decision", var("i"), some(max_of(var("got")))),
        ])
        .finish()
        .expect("Collect type-checks");

    // Fills the ghost bag with all 2n pending asyncs.
    let ghost_fill = |body: &mut Vec<inseq_lang::Stmt>| {
        body.push(for_range(
            "gi",
            int(1),
            var("n"),
            vec![
                ghost::add_stmt(TAG_BROADCAST, var("gi")),
                ghost::add_stmt(TAG_COLLECT, var("gi")),
            ],
        ));
    };

    // action Main: atomically create 2n new tasks.
    let main = {
        let mut body = Vec::new();
        ghost_fill(&mut body);
        body.push(for_range(
            "i",
            int(1),
            var("n"),
            vec![
                async_call(&broadcast, vec![var("i")]),
                async_call(&collect, vec![var("i")]),
            ],
        ));
        DslAction::build("Main", &g)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("Main type-checks")
    };

    // ----- Fig. 1-③: Main' -----
    let main_seq = {
        let mut body = Vec::new();
        ghost_fill(&mut body);
        body.push(for_range(
            "i",
            int(1),
            var("n"),
            vec![call(&broadcast, vec![var("i")])],
        ));
        body.push(for_range(
            "i",
            int(1),
            var("n"),
            vec![call(&collect, vec![var("i")])],
        ));
        DslAction::build("MainSeq", &g)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("Main' type-checks")
    };

    // ----- Fig. 1-④: CollectAbs -----
    // assert ∀j. Broadcast(j) ∉ Ω;  assert |CH[i]| ≥ n;  call Collect(i)
    let collect_abs = DslAction::build("CollectAbs", &g)
        .param("i", Sort::Int)
        .body(vec![
            assert_msg(
                ghost::none_pending(TAG_BROADCAST, var("n")),
                "CollectAbs: a Broadcast is still pending",
            ),
            assert_msg(
                ge(size(get(var("CH"), var("i"))), var("n")),
                "CollectAbs: fewer than n messages in CH[i]",
            ),
            call(&collect, vec![var("i")]),
        ])
        .finish()
        .expect("CollectAbs type-checks");

    // §5.3: after eliminating Broadcast first, the Ω-gate is unnecessary.
    let collect_abs_weak = DslAction::build("CollectAbsWeak", &g)
        .param("i", Sort::Int)
        .body(vec![
            assert_msg(
                ge(size(get(var("CH"), var("i"))), var("n")),
                "CollectAbsWeak: fewer than n messages in CH[i]",
            ),
            call(&collect, vec![var("i")]),
        ])
        .finish()
        .expect("CollectAbsWeak type-checks");

    // ----- Fig. 1-⑤: the one-shot invariant action Inv -----
    // choose k, l; k Broadcasts and l Collects are already sequentialized;
    // the rest remain pending; l = 0 unless k = n.
    let inv_oneshot = {
        let mut body = vec![
            choose("k", range(int(0), var("n"))),
            choose("l", range(int(0), var("n"))),
            assume(or(eq(var("k"), var("n")), eq(var("l"), int(0)))),
        ];
        ghost_fill(&mut body);
        body.extend([
            for_range(
                "i",
                int(1),
                var("k"),
                vec![call(&broadcast, vec![var("i")])],
            ),
            for_range(
                "i",
                add(var("k"), int(1)),
                var("n"),
                vec![async_call(&broadcast, vec![var("i")])],
            ),
            for_range("i", int(1), var("l"), vec![call(&collect, vec![var("i")])]),
            for_range(
                "i",
                add(var("l"), int(1)),
                var("n"),
                vec![async_call(&collect, vec![var("i")])],
            ),
        ]);
        DslAction::build("Inv", &g)
            .local("k", Sort::Int)
            .local("l", Sort::Int)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv type-checks")
    };

    // ----- Iterated proof (§5.3) -----

    // Application 1 invariant: only Broadcasts are being sequentialized.
    let inv_broadcast = {
        let mut body = vec![choose("k", range(int(0), var("n")))];
        ghost_fill(&mut body);
        body.extend([
            for_range(
                "i",
                int(1),
                var("k"),
                vec![call(&broadcast, vec![var("i")])],
            ),
            for_range(
                "i",
                add(var("k"), int(1)),
                var("n"),
                vec![async_call(&broadcast, vec![var("i")])],
            ),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&collect, vec![var("i")])],
            ),
        ]);
        DslAction::build("InvBroadcast", &g)
            .local("k", Sort::Int)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("InvBroadcast type-checks")
    };

    // Intermediate Main'': broadcasts inlined, collects still async.
    let main_mid = {
        let mut body = Vec::new();
        ghost_fill(&mut body);
        body.extend([
            for_range(
                "i",
                int(1),
                var("n"),
                vec![call(&broadcast, vec![var("i")])],
            ),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&collect, vec![var("i")])],
            ),
        ]);
        DslAction::build("MainMid", &g)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("MainMid type-checks")
    };

    // Application 2 invariant: broadcasts fully inlined, collects
    // sequentialized up to a nondeterministic l.
    let inv_collect = {
        let mut body = vec![choose("l", range(int(0), var("n")))];
        ghost_fill(&mut body);
        body.extend([
            for_range(
                "i",
                int(1),
                var("n"),
                vec![call(&broadcast, vec![var("i")])],
            ),
            for_range("i", int(1), var("l"), vec![call(&collect, vec![var("i")])]),
            for_range(
                "i",
                add(var("l"), int(1)),
                var("n"),
                vec![async_call(&collect, vec![var("i")])],
            ),
        ]);
        DslAction::build("InvCollect", &g)
            .local("l", Sort::Int)
            .local("i", Sort::Int)
            .local("gi", Sort::Int)
            .body(body)
            .finish()
            .expect("InvCollect type-checks")
    };

    // ----- P1: the fine-grained implementation (Fig. 1-①) -----
    // Procedures are decomposed into per-message steps chained by
    // continuation pending asyncs (the representation the paper notes is
    // without loss of generality in §2.1).

    // BroadcastStep(i, j): send value[i] to CH[j]; continue with j+1.
    let bstep = DslAction::build("BroadcastStep", &g)
        .param("i", Sort::Int)
        .param("j", Sort::Int)
        .body(vec![
            send_to("CH", var("j"), get(var("value"), var("i"))),
            if_(
                lt(var("j"), var("n")),
                vec![async_named(
                    "BroadcastStep",
                    vec![Sort::Int, Sort::Int],
                    vec![var("i"), add(var("j"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("BroadcastStep type-checks");

    // CollectStep(i, j, cur): receive one value, fold the max, continue or
    // decide.
    let cstep = DslAction::build("CollectStep", &g)
        .param("i", Sort::Int)
        .param("j", Sort::Int)
        .param("cur", Sort::opt(Sort::Int))
        .local("v", Sort::Int)
        .local("m", Sort::Int)
        .body(vec![
            recv_from("v", "CH", var("i")),
            assign(
                "m",
                ite(
                    and(is_some(var("cur")), gt(unwrap(var("cur")), var("v"))),
                    unwrap(var("cur")),
                    var("v"),
                ),
            ),
            if_else(
                lt(var("j"), var("n")),
                vec![async_named(
                    "CollectStep",
                    vec![Sort::Int, Sort::Int, Sort::opt(Sort::Int)],
                    vec![var("i"), add(var("j"), int(1)), some(var("m"))],
                )],
                vec![assign_at("decision", var("i"), some(var("m")))],
            ),
        ])
        .finish()
        .expect("CollectStep type-checks");

    // proc main (Fig. 1-①): spawn one broadcaster and one collector chain
    // per node.
    let main_impl = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![for_range(
            "i",
            int(1),
            var("n"),
            vec![
                async_call(&bstep, vec![var("i"), int(1)]),
                async_call(&cstep, vec![var("i"), int(1), none()]),
            ],
        )])
        .finish()
        .expect("P1 main type-checks");

    let p1 = program_of(
        &g,
        [
            Arc::clone(&bstep),
            Arc::clone(&cstep),
            Arc::clone(&main_impl),
        ],
        "Main",
    )
    .expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [
            Arc::clone(&broadcast),
            Arc::clone(&collect),
            Arc::clone(&main),
        ],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        broadcast,
        collect,
        main,
        main_seq,
        inv_oneshot,
        collect_abs,
        inv_broadcast,
        main_mid,
        inv_collect,
        collect_abs_weak,
        broadcast_step: bstep,
        collect_step: cstep,
        main_impl,
    }
}

/// The initial store of an instance: `n` and `value[·]` set, everything else
/// at its default.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: &Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("n").unwrap(), Value::Int(instance.n));
    let mut value_map = inseq_kernel::Map::new(Value::Int(0));
    for (idx, v) in instance.values.iter().enumerate() {
        value_map.set_in_place(Value::Int(idx as i64 + 1), Value::Int(*v));
    }
    store.set(g.index_of("value").unwrap(), Value::map(value_map));
    store
}

/// The initialized configuration of a program for an instance.
///
/// # Panics
///
/// Panics when the store does not match the schema (a bug in this module).
#[must_use]
pub fn init_config(program: &Program, artifacts: &Artifacts, instance: &Instance) -> Config {
    program
        .initial_config_with(initial_store(artifacts, instance), vec![])
        .expect("instance store matches schema")
}

/// Packages this case's atomic program `P2` and initialized configuration
/// for exploration engines.
#[must_use]
pub fn exploration_case(instance: &Instance) -> ExplorationCase {
    let artifacts = build();
    let init = init_config(&artifacts.p2, &artifacts, instance);
    ExplorationCase::new(
        "Broadcast consensus",
        format!("n = {}", instance.n),
        artifacts.p2,
        init,
    )
}

/// The correctness property (1): every node decided, and all decisions equal
/// the maximum input value.
pub fn spec(artifacts: &Artifacts, instance: &Instance) -> impl Fn(&GlobalStore) -> bool {
    let decision_idx = artifacts.decls.index_of("decision").unwrap();
    let expected = Value::some(Value::Int(instance.expected_decision()));
    let n = instance.n;
    move |store: &GlobalStore| {
        let decision = store.get(decision_idx).as_map();
        (1..=n).all(|i| decision.get(&Value::Int(i)) == &expected)
    }
}

fn choose_smallest(
    created: &inseq_kernel::Multiset<inseq_kernel::PendingAsync>,
    action: &str,
) -> Option<inseq_kernel::PendingAsync> {
    created
        .distinct()
        .filter(|pa| pa.action.as_str() == action)
        .min_by_key(|pa| pa.args[0].as_int())
        .cloned()
}

/// The one-shot IS application: `E = {Broadcast, Collect}` with the full
/// `CollectAbs` abstraction (Example 4.1 of the paper).
#[must_use]
pub fn oneshot_application(artifacts: &Artifacts, instance: &Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Broadcast")
        .eliminate("Collect")
        .invariant(Arc::clone(&artifacts.inv_oneshot) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Collect",
            Arc::clone(&artifacts.collect_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| {
            choose_smallest(t.created, "Broadcast")
                .or_else(|| choose_smallest(t.created, "Collect"))
        })
        .measure(Measure::pending_async_count())
        .instance(init)
}

/// The iterated proof of §5.3: eliminate `Broadcast` first, then `Collect`
/// with the weakened abstraction gate.
#[must_use]
pub fn iterated_chain(artifacts: &Artifacts, instance: &Instance) -> IsChain {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let first = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Broadcast")
        .invariant(Arc::clone(&artifacts.inv_broadcast) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_mid) as Arc<dyn ActionSemantics>)
        .choice(|t| choose_smallest(t.created, "Broadcast"))
        .measure(Measure::pending_async_count())
        .instance(init.clone());
    let second = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Collect")
        .invariant(Arc::clone(&artifacts.inv_collect) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Collect",
            Arc::clone(&artifacts.collect_abs_weak) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| choose_smallest(t.created, "Collect"))
        .measure(Measure::pending_async_count())
        .instance(init);
    IsChain::new().then(first).then(second)
}

/// The Table-1 proof of an instance as data for [`Proof::run`]: `P1 ≼ P2`
/// by explicit refinement, the IS application(s), `P2 ≼ P'`, and the spec
/// on `P'` and `P2`.
#[must_use]
pub fn proof<'a>(artifacts: &'a Artifacts, instance: &Instance) -> Proof<'a> {
    let mut loc = LocCounter::new();
    loc.impl_actions([
        &artifacts.broadcast_step,
        &artifacts.collect_step,
        &artifacts.main_impl,
        &artifacts.broadcast,
        &artifacts.collect,
        &artifacts.main,
    ]);
    loc.is_actions([
        &artifacts.main_seq,
        &artifacts.inv_broadcast,
        &artifacts.main_mid,
        &artifacts.inv_collect,
        &artifacts.collect_abs_weak,
    ]);
    Proof {
        name: "Broadcast consensus",
        instance: format!("n = {}", instance.n),
        loc,
        budget: 4_000_000,
        refinement: Refinement::program(
            &artifacts.p1,
            init_config(&artifacts.p1, artifacts, instance),
        ),
        p2: &artifacts.p2,
        init: init_config(&artifacts.p2, artifacts, instance),
        chain: iterated_chain(artifacts, instance),
        spec: Box::new(spec(artifacts, instance)),
    }
}

/// Runs the full verification pipeline for one instance and produces a
/// Table 1 row: `P1 ≼ P2` by explicit refinement, the two IS applications
/// of the iterated proof, the end-to-end refinement `P2 ≼ P'`, and the
/// consensus property on the sequentialization.
///
/// # Errors
///
/// Returns the first failing pipeline stage.
pub fn verify(instance: &Instance) -> Result<CaseReport, CaseError> {
    proof(&build(), instance).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_spec;

    #[test]
    fn p2_satisfies_consensus_directly() {
        let instance = Instance::new(&[3, 1]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        let hits = check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
        assert!(hits >= 1);
    }

    #[test]
    fn p1_satisfies_consensus_directly() {
        let instance = Instance::new(&[3, 1]);
        let artifacts = build();
        let init = init_config(&artifacts.p1, &artifacts, &instance);
        check_spec(&artifacts.p1, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
    }

    #[test]
    fn oneshot_is_application_passes_n2() {
        let instance = Instance::new(&[3, 1]);
        let artifacts = build();
        let report = oneshot_application(&artifacts, &instance)
            .check()
            .expect("one-shot IS holds");
        assert_eq!(report.eliminated_actions, 2);
    }

    #[test]
    fn iterated_chain_passes_n2() {
        let instance = Instance::new(&[2, 5]);
        let artifacts = build();
        let outcome = iterated_chain(&artifacts, &instance)
            .run()
            .expect("both applications hold");
        assert_eq!(outcome.reports.len(), 2);
    }

    #[test]
    fn verify_produces_table1_row() {
        let instance = Instance::new(&[3, 1]);
        let row = verify(&instance).expect("pipeline passes");
        assert_eq!(row.is_applications, 2, "Table 1 reports #IS = 2");
        assert!(row.loc_is > 0 && row.loc_impl > 0);
    }
}
