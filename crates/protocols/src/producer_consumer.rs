//! Producer-Consumer (§5.3 of the paper).
//!
//! A producer enqueues the numbers `1..=K` into a shared FIFO queue; a
//! consumer dequeues and asserts that the numbers arrive in increasing
//! order. Unlike Ping-Pong there is no acknowledgement: the producer can run
//! arbitrarily far ahead, so the queue can grow up to `K` elements and the
//! program has many more interleavings. IS reduces it to the alternation in
//! which the queue holds at most one element. Table 1 reports `#IS = 1`.

use std::sync::Arc;

use inseq_core::chain::IsChain;
use inseq_core::{IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Multiset, PendingAsync, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// A finite instance: how many numbers are produced.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Number of produced items.
    pub k: i64,
}

impl Instance {
    /// Creates an instance producing `k` items.
    ///
    /// # Panics
    ///
    /// Panics when `k < 1`.
    #[must_use]
    pub fn new(k: i64) -> Self {
        assert!(k >= 1, "at least one item");
        Instance { k }
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// Fine-grained implementation (dequeue and check as separate tasks).
    pub p1: Program,
    /// Atomic-action program.
    pub p2: Program,
    /// Atomic `Produce(i)`: enqueue `i`, continue.
    pub produce: Arc<DslAction>,
    /// Atomic `Consume(j)`: dequeue, assert order, continue.
    pub consume: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// The sequentialization (`skip` over a drained queue).
    pub main_seq: Arc<DslAction>,
    /// The invariant action: all prefixes of the alternation.
    pub inv: Arc<DslAction>,
    /// Left-mover abstraction of `Consume`: the expected item is at the
    /// head of the queue.
    pub consume_abs: Arc<DslAction>,
    /// P1 actions (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![
            self.produce.clone(),
            self.consume.clone(),
            self.main.clone(),
        ]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("K", Sort::Int);
    g.declare("queue", Sort::seq(Sort::Int));
    Arc::new(g)
}

/// Builds all programs and artifacts.
#[must_use]
pub fn build() -> Artifacts {
    let g = decls();
    let int_sorts = vec![Sort::Int];

    // action Produce(i): send i to queue; if i < K: async Produce(i+1)
    let produce = DslAction::build("Produce", &g)
        .param("i", Sort::Int)
        .body(vec![
            send("queue", var("i")),
            if_(
                lt(var("i"), var("K")),
                vec![async_named(
                    "Produce",
                    int_sorts.clone(),
                    vec![add(var("i"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("Produce type-checks");

    // action Consume(j): v := receive queue; assert v == j;
    //                    if j < K: async Consume(j+1)
    let consume = DslAction::build("Consume", &g)
        .param("j", Sort::Int)
        .local("v", Sort::Int)
        .body(vec![
            recv("v", "queue"),
            assert_msg(
                eq(var("v"), var("j")),
                "Consumer saw a non-increasing number",
            ),
            if_(
                lt(var("j"), var("K")),
                vec![async_named(
                    "Consume",
                    int_sorts.clone(),
                    vec![add(var("j"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("Consume type-checks");

    let main = DslAction::build("Main", &g)
        .body(vec![
            async_call(&produce, vec![int(1)]),
            async_call(&consume, vec![int(1)]),
        ])
        .finish()
        .expect("Main type-checks");

    // Main': the drained summary.
    let main_seq = DslAction::build("MainSeq", &g)
        .body(vec![skip()])
        .finish()
        .expect("Main' type-checks");

    // Inv: t tasks of the alternation `P(1) C(1) P(2) C(2) …` already ran;
    // p = ⌈t/2⌉ produced, c = ⌊t/2⌋ consumed; queue = [p] iff p > c.
    let inv = DslAction::build("Inv", &g)
        .local("t", Sort::Int)
        .local("p", Sort::Int)
        .local("c", Sort::Int)
        .body(vec![
            choose("t", range(int(0), mul(int(2), var("K")))),
            assign(
                "c",
                inseq_lang::Expr::Bin(inseq_lang::BinOp::Div, var("t").boxed(), int(2).boxed()),
            ),
            assign("p", sub(var("t"), var("c"))),
            if_else(
                gt(var("p"), var("c")),
                vec![assign(
                    "queue",
                    with_elem(lit(Value::empty_seq()), var("p")),
                )],
                vec![assign("queue", lit(Value::empty_seq()))],
            ),
            if_(
                lt(var("p"), var("K")),
                vec![async_call(&produce, vec![add(var("p"), int(1))])],
            ),
            if_(
                lt(var("c"), var("K")),
                vec![async_call(&consume, vec![add(var("c"), int(1))])],
            ),
        ])
        .finish()
        .expect("Inv type-checks");

    // ConsumeAbs: the expected item is at the head.
    let consume_abs = DslAction::build("ConsumeAbs", &g)
        .param("j", Sort::Int)
        .body(vec![
            assert_msg(ge(size(var("queue")), int(1)), "ConsumeAbs: queue is empty"),
            assert_msg(
                eq(get(var("queue"), int(0)), var("j")),
                "ConsumeAbs: expected item is not at the head",
            ),
            call(&consume, vec![var("j")]),
        ])
        .finish()
        .expect("ConsumeAbs type-checks");

    // ----- P1: dequeue and order-check as separate fine-grained tasks -----
    let cons_recv = DslAction::build("ConsRecv", &g)
        .param("j", Sort::Int)
        .local("v", Sort::Int)
        .body(vec![
            recv("v", "queue"),
            async_named(
                "ConsCheck",
                vec![Sort::Int, Sort::Int],
                vec![var("j"), var("v")],
            ),
        ])
        .finish()
        .expect("ConsRecv type-checks");
    let cons_check = DslAction::build("ConsCheck", &g)
        .param("j", Sort::Int)
        .param("v", Sort::Int)
        .body(vec![
            assert_msg(
                eq(var("v"), var("j")),
                "Consumer saw a non-increasing number",
            ),
            if_(
                lt(var("j"), var("K")),
                vec![async_named(
                    "ConsRecv",
                    int_sorts,
                    vec![add(var("j"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("ConsCheck type-checks");
    let main_impl = DslAction::build("Main", &g)
        .body(vec![
            async_call(&produce, vec![int(1)]),
            async_call(&cons_recv, vec![int(1)]),
        ])
        .finish()
        .expect("P1 main type-checks");

    let p1_actions = vec![
        Arc::clone(&cons_recv),
        Arc::clone(&cons_check),
        Arc::clone(&main_impl),
    ];
    let p1 = program_of(
        &g,
        [Arc::clone(&produce), cons_recv, cons_check, main_impl],
        "Main",
    )
    .expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [
            Arc::clone(&produce),
            Arc::clone(&consume),
            Arc::clone(&main),
        ],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        produce,
        consume,
        main,
        main_seq,
        inv,
        consume_abs,
        p1_actions,
    }
}

/// The initial store: `K` set, queue empty.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("K").unwrap(), Value::Int(instance.k));
    store
}

/// The initialized configuration of a program for an instance.
///
/// # Panics
///
/// Panics when the store does not match the schema (a bug in this module).
#[must_use]
pub fn init_config(program: &Program, artifacts: &Artifacts, instance: Instance) -> Config {
    program
        .initial_config_with(initial_store(artifacts, instance), vec![])
        .expect("instance store matches schema")
}

/// Packages this case's atomic program `P2` and initialized configuration
/// for exploration engines.
#[must_use]
pub fn exploration_case(instance: Instance) -> ExplorationCase {
    let artifacts = build();
    let init = init_config(&artifacts.p2, &artifacts, instance);
    ExplorationCase::new(
        "Producer-Consumer",
        format!("K = {}", instance.k),
        artifacts.p2,
        init,
    )
}

/// Final-state spec: the queue is drained.
pub fn spec(artifacts: &Artifacts) -> impl Fn(&GlobalStore) -> bool {
    let q_idx = artifacts.decls.index_of("queue").unwrap();
    move |store: &GlobalStore| store.get(q_idx).as_seq().is_empty()
}

fn position(pa: &PendingAsync) -> i64 {
    let i = pa.args[0].as_int();
    match pa.action.as_str() {
        "Produce" => 2 * i - 1,
        "Consume" => 2 * i,
        _ => i64::MAX,
    }
}

fn weight(pa: &PendingAsync, k: i64) -> u64 {
    let last = 2 * k + 1;
    u64::try_from((last - position(pa)).max(0)).unwrap_or(0)
}

/// The single IS application (Table 1: `#IS = 1`).
#[must_use]
pub fn application(artifacts: &Artifacts, instance: Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let k = instance.k;
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Produce")
        .eliminate("Consume")
        .invariant(Arc::clone(&artifacts.inv) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Consume",
            Arc::clone(&artifacts.consume_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| t.created.distinct().min_by_key(|pa| position(pa)).cloned())
        .measure(Measure::lexicographic(
            "Σ remaining-positions",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, k)).sum()]
            },
        ))
        .instance(init)
}

/// The Table-1 proof of an instance as data for [`Proof::run`]: `P1 ≼ P2`
/// by explicit refinement, the IS application(s), `P2 ≼ P'`, and the spec
/// on `P'` and `P2`.
#[must_use]
pub fn proof<'a>(artifacts: &'a Artifacts, instance: Instance) -> Proof<'a> {
    let mut loc = LocCounter::new();
    loc.impl_actions([&artifacts.produce, &artifacts.consume, &artifacts.main]);
    loc.impl_actions(artifacts.p1_actions.iter());
    loc.is_actions([&artifacts.main_seq, &artifacts.inv, &artifacts.consume_abs]);
    Proof {
        name: "Producer-Consumer",
        instance: format!("K = {}", instance.k),
        loc,
        budget: 2_000_000,
        refinement: Refinement::program(
            &artifacts.p1,
            init_config(&artifacts.p1, artifacts, instance),
        ),
        p2: &artifacts.p2,
        init: init_config(&artifacts.p2, artifacts, instance),
        chain: IsChain::new().then(application(artifacts, instance)),
        spec: Box::new(spec(artifacts)),
    }
}

/// Runs the full pipeline and produces the Table 1 row.
///
/// # Errors
///
/// Returns the first failing pipeline stage.
pub fn verify(instance: Instance) -> Result<CaseReport, CaseError> {
    proof(&build(), instance).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_spec;
    use inseq_refine::check_program_refinement;

    #[test]
    fn p2_never_fails_despite_producer_running_ahead() {
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, Instance::new(4));
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts)).unwrap();
    }

    #[test]
    fn queue_really_grows_in_p2() {
        // Sanity: the concurrent program reaches a state where the queue has
        // more than one element (the behaviour IS proves away).
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, Instance::new(3));
        let exp = inseq_kernel::Explorer::new(&artifacts.p2)
            .explore([init])
            .unwrap();
        let q_idx = artifacts.decls.index_of("queue").unwrap();
        assert!(exp
            .configs()
            .any(|c| c.globals.get(q_idx).as_seq().len() >= 2));
    }

    #[test]
    fn p1_refines_p2() {
        let artifacts = build();
        let instance = Instance::new(2);
        let init1 = init_config(&artifacts.p1, &artifacts, instance);
        check_program_refinement(&artifacts.p1, &artifacts.p2, [init1], 1_000_000).unwrap();
    }

    #[test]
    fn is_application_passes() {
        let artifacts = build();
        let report = application(&artifacts, Instance::new(3))
            .check()
            .expect("IS premises hold");
        assert_eq!(report.eliminated_actions, 2);
    }

    #[test]
    fn verify_produces_table1_row() {
        let row = verify(Instance::new(3)).expect("pipeline passes");
        assert_eq!(row.is_applications, 1, "Table 1 reports #IS = 1");
    }
}
