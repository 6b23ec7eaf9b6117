//! Ping-Pong (§5.3 of the paper).
//!
//! A `Ping` process sends increasing numbers `1..=K` to a `Pong` process,
//! which acknowledges each number back. The verified assertions state that
//! Pong receives strictly increasing numbers and Ping receives the matching
//! acknowledgements. The sequential reduction makes the alternation of the
//! two processes explicit. Table 1 reports `#IS = 1`.
//!
//! The example is interesting because both processes carry loop state across
//! rounds (the round number travels in the continuation pending async),
//! which places it outside the fragment handled by canonical
//! sequentialization (§6).

use std::sync::Arc;

use inseq_core::chain::IsChain;
use inseq_core::{IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Multiset, PendingAsync, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, BinOp, DslAction, Expr, GlobalDecls, Sort};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// A finite instance: the number of rounds `K`.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Number of ping-pong rounds.
    pub k: i64,
}

impl Instance {
    /// Creates an instance with `k` rounds.
    ///
    /// # Panics
    ///
    /// Panics when `k < 1`.
    #[must_use]
    pub fn new(k: i64) -> Self {
        assert!(k >= 1, "at least one round");
        Instance { k }
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// Fine-grained implementation (separate receive and send steps).
    pub p1: Program,
    /// Atomic-action program: `Ping(i)` / `Pong(i)` handlers.
    pub p2: Program,
    /// Atomic `Ping(i)`: receive ack `i-1` (for `i > 1`), send `i`.
    pub ping: Arc<DslAction>,
    /// Atomic `Pong(i)`: receive `i`, send ack `i`.
    pub pong: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// The sequentialization: strict alternation `P(1) Q(1) P(2) … P(K+1)`.
    pub main_seq: Arc<DslAction>,
    /// The invariant action: all prefixes of the alternation.
    pub inv: Arc<DslAction>,
    /// Left-mover abstraction of `Ping`: gate asserts its ack is available.
    pub ping_abs: Arc<DslAction>,
    /// Left-mover abstraction of `Pong`: gate asserts its message is
    /// available.
    pub pong_abs: Arc<DslAction>,
    /// The four P1 step actions plus the P1 main (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![self.ping.clone(), self.pong.clone(), self.main.clone()]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("K", Sort::Int);
    g.declare("msgCh", Sort::bag(Sort::Int));
    g.declare("ackCh", Sort::bag(Sort::Int));
    Arc::new(g)
}

/// Builds all programs and artifacts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> Artifacts {
    let g = decls();
    let int_sorts = vec![Sort::Int];

    // action Ping(i):
    //   if i > 1: a := receive ackCh; assert a == i - 1
    //   if i <= K: send i to msgCh; async Ping(i+1)
    let ping = DslAction::build("Ping", &g)
        .param("i", Sort::Int)
        .local("a", Sort::Int)
        .body(vec![
            if_(
                gt(var("i"), int(1)),
                vec![
                    recv("a", "ackCh"),
                    assert_msg(
                        eq(var("a"), sub(var("i"), int(1))),
                        "Ping received a wrong acknowledgement",
                    ),
                ],
            ),
            if_(
                le(var("i"), var("K")),
                vec![
                    send("msgCh", var("i")),
                    async_named("Ping", int_sorts.clone(), vec![add(var("i"), int(1))]),
                ],
            ),
        ])
        .finish()
        .expect("Ping type-checks");

    // action Pong(i):
    //   v := receive msgCh; assert v == i; send i to ackCh
    //   if i < K: async Pong(i+1)
    let pong = DslAction::build("Pong", &g)
        .param("i", Sort::Int)
        .local("v", Sort::Int)
        .body(vec![
            recv("v", "msgCh"),
            assert_msg(
                eq(var("v"), var("i")),
                "Pong received a non-increasing number",
            ),
            send("ackCh", var("i")),
            if_(
                lt(var("i"), var("K")),
                vec![async_named(
                    "Pong",
                    int_sorts.clone(),
                    vec![add(var("i"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("Pong type-checks");

    let main = DslAction::build("Main", &g)
        .body(vec![
            async_call(&ping, vec![int(1)]),
            async_call(&pong, vec![int(1)]),
        ])
        .finish()
        .expect("Main type-checks");

    // Main': the completed alternation leaves both channels drained and no
    // pending asyncs — every observable effect of Ping-Pong is in its
    // verified assertions, so the summary is `skip` over drained channels.
    let main_seq = DslAction::build("MainSeq", &g)
        .body(vec![skip()])
        .finish()
        .expect("Main' type-checks");

    // Inv: choose t in 0..2K+1 — the alternation `P(1) Q(1) P(2) … P(K+1)`
    // progressed t tasks. p = ⌈t/2⌉ Pings and q = ⌊t/2⌋ Pongs already ran.
    // Because Ping/Pong spawn their own continuations, the invariant states
    // the prefix *effect* directly (the paper notes IS is insensitive to the
    // representation of prefixes): exactly the in-flight message survives —
    // msgCh = {p} when a ping awaits its pong, ackCh = {q} when a pong's ack
    // awaits the next ping — and the frontier tasks remain pending.
    let inv = DslAction::build("Inv", &g)
        .local("t", Sort::Int)
        .local("p", Sort::Int)
        .local("q", Sort::Int)
        .body(vec![
            choose("t", range(int(0), add(mul(int(2), var("K")), int(1)))),
            assign("q", Expr::Bin(BinOp::Div, var("t").boxed(), int(2).boxed())),
            assign("p", sub(var("t"), var("q"))),
            if_else(
                and(gt(var("p"), var("q")), le(var("p"), var("K"))),
                vec![assign(
                    "msgCh",
                    with_elem(lit(Value::empty_bag()), var("p")),
                )],
                vec![assign("msgCh", lit(Value::empty_bag()))],
            ),
            if_else(
                and(eq(var("p"), var("q")), ge(var("q"), int(1))),
                vec![assign(
                    "ackCh",
                    with_elem(lit(Value::empty_bag()), var("q")),
                )],
                vec![assign("ackCh", lit(Value::empty_bag()))],
            ),
            if_(
                le(var("p"), var("K")),
                vec![async_call(&ping, vec![add(var("p"), int(1))])],
            ),
            if_(
                lt(var("q"), var("K")),
                vec![async_call(&pong, vec![add(var("q"), int(1))])],
            ),
        ])
        .finish()
        .expect("Inv type-checks");

    // Abstractions: assert the expected message is already in flight.
    let ping_abs = DslAction::build("PingAbs", &g)
        .param("i", Sort::Int)
        .body(vec![
            assert_msg(
                or(
                    eq(var("i"), int(1)),
                    contains(var("ackCh"), sub(var("i"), int(1))),
                ),
                "PingAbs: acknowledgement not yet available",
            ),
            call(&ping, vec![var("i")]),
        ])
        .finish()
        .expect("PingAbs type-checks");
    let pong_abs = DslAction::build("PongAbs", &g)
        .param("i", Sort::Int)
        .body(vec![
            assert_msg(
                contains(var("msgCh"), var("i")),
                "PongAbs: message not yet available",
            ),
            call(&pong, vec![var("i")]),
        ])
        .finish()
        .expect("PongAbs type-checks");

    // ----- P1: receive and send as separate fine-grained steps -----
    let ping_send = DslAction::build("PingSend", &g)
        .param("i", Sort::Int)
        .body(vec![if_(
            le(var("i"), var("K")),
            vec![
                send("msgCh", var("i")),
                async_named("PingRecv", int_sorts.clone(), vec![add(var("i"), int(1))]),
            ],
        )])
        .finish()
        .expect("PingSend type-checks");
    let ping_recv = DslAction::build("PingRecv", &g)
        .param("i", Sort::Int)
        .local("a", Sort::Int)
        .body(vec![
            recv("a", "ackCh"),
            assert_msg(
                eq(var("a"), sub(var("i"), int(1))),
                "Ping received a wrong acknowledgement",
            ),
            async_named("PingSend", int_sorts.clone(), vec![var("i")]),
        ])
        .finish()
        .expect("PingRecv type-checks");
    let pong_recv = DslAction::build("PongRecv", &g)
        .param("i", Sort::Int)
        .local("v", Sort::Int)
        .body(vec![
            recv("v", "msgCh"),
            assert_msg(
                eq(var("v"), var("i")),
                "Pong received a non-increasing number",
            ),
            async_named("PongSend", int_sorts.clone(), vec![var("i")]),
        ])
        .finish()
        .expect("PongRecv type-checks");
    let pong_send = DslAction::build("PongSend", &g)
        .param("i", Sort::Int)
        .body(vec![
            send("ackCh", var("i")),
            if_(
                lt(var("i"), var("K")),
                vec![async_named(
                    "PongRecv",
                    int_sorts,
                    vec![add(var("i"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("PongSend type-checks");
    let main_impl = DslAction::build("Main", &g)
        .body(vec![
            async_call(&ping_send, vec![int(1)]),
            async_call(&pong_recv, vec![int(1)]),
        ])
        .finish()
        .expect("P1 main type-checks");

    let p1_actions = vec![
        Arc::clone(&ping_send),
        Arc::clone(&ping_recv),
        Arc::clone(&pong_recv),
        Arc::clone(&pong_send),
        Arc::clone(&main_impl),
    ];
    let p1 = program_of(
        &g,
        [ping_send, ping_recv, pong_recv, pong_send, main_impl],
        "Main",
    )
    .expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [Arc::clone(&ping), Arc::clone(&pong), Arc::clone(&main)],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        ping,
        pong,
        main,
        main_seq,
        inv,
        ping_abs,
        pong_abs,
        p1_actions,
    }
}

/// The initial store: `K` set, channels empty.
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
        "Ping-Pong",
        format!("K = {}", instance.k),
        artifacts.p2,
        init,
    )
}

/// Final-state spec: both channels drained. (The per-round assertions are
/// verified as gates: any violation would be a failing execution.)
pub fn spec(artifacts: &Artifacts) -> impl Fn(&GlobalStore) -> bool {
    let msg_idx = artifacts.decls.index_of("msgCh").unwrap();
    let ack_idx = artifacts.decls.index_of("ackCh").unwrap();
    move |store: &GlobalStore| {
        store.get(msg_idx).as_bag().is_empty() && store.get(ack_idx).as_bag().is_empty()
    }
}

/// Position of a PA in the alternation order `P(1) Q(1) P(2) Q(2) …`.
fn position(pa: &PendingAsync) -> i64 {
    let i = pa.args[0].as_int();
    match pa.action.as_str() {
        "Ping" => 2 * i - 1,
        "Pong" => 2 * i,
        _ => i64::MAX,
    }
}

/// The weight of a PA for the cooperation measure: the number of alternation
/// positions from it to the end. Executing a task spawns only its successor,
/// whose weight is strictly smaller, so the summed measure decreases.
fn weight(pa: &PendingAsync, k: i64) -> u64 {
    let last = 2 * k + 2; // one past the position of Ping(K+1)
    u64::try_from((last - position(pa)).max(0)).unwrap_or(0)
}

/// The single IS application (Table 1: `#IS = 1`).
#[must_use]
pub fn application(artifacts: &Artifacts, instance: Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let k = instance.k;
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Ping")
        .eliminate("Pong")
        .invariant(Arc::clone(&artifacts.inv) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Ping",
            Arc::clone(&artifacts.ping_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Pong",
            Arc::clone(&artifacts.pong_abs) as Arc<dyn ActionSemantics>,
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
    loc.impl_actions([&artifacts.ping, &artifacts.pong, &artifacts.main]);
    loc.impl_actions(artifacts.p1_actions.iter());
    loc.is_actions([
        &artifacts.main_seq,
        &artifacts.inv,
        &artifacts.ping_abs,
        &artifacts.pong_abs,
    ]);
    Proof {
        name: "Ping-Pong",
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
    fn p2_has_no_failures_and_drains_channels() {
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, Instance::new(3));
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts)).unwrap();
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
        assert!(report.induction_steps > 0);
    }

    #[test]
    fn verify_produces_table1_row() {
        let row = verify(Instance::new(3)).expect("pipeline passes");
        assert_eq!(row.is_applications, 1, "Table 1 reports #IS = 1");
    }
}
