//! Chang-Roberts leader election on a ring (§5.3 of the paper).
//!
//! Each node sends its unique ID to its ring successor; a node forwards IDs
//! greater than its own and drops smaller ones; a node that receives its own
//! ID declares itself leader. We prove that exactly the maximum-ID node
//! becomes leader.
//!
//! Messages in flight are modelled as handler pending asyncs — the paper's
//! "short-living asynchronous tasks" hypothesis in its purest form. Two
//! handler kinds split the protocol's phases: `Pass(i, m)` examines and
//! forwards a travelling ID, and `Elect(i)` fires when node `i`'s own ID
//! completed the circle. Like the paper, the default proof uses **two IS
//! applications** (`#IS = 2` in Table 1): the first eliminates all `Pass`
//! handlers (the forwarding chains, run to completion origin by origin), the
//! second eliminates the surviving `Elect` of the maximum node. A one-shot
//! application over the same artifacts is also provided.

use std::sync::Arc;

use inseq_core::chain::IsChain;
use inseq_core::{IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Multiset, PendingAsync, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, BinOp, DslAction, Expr, GlobalDecls, Sort};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// A finite instance: the (unique) ID of each node in ring order.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Number of nodes.
    pub n: i64,
    /// `ids[i-1]` is the ID of node `i`.
    pub ids: Vec<i64>,
}

impl Instance {
    /// Creates an instance from unique node IDs.
    ///
    /// # Panics
    ///
    /// Panics when IDs are not distinct or fewer than two nodes are given.
    #[must_use]
    pub fn new(ids: &[i64]) -> Self {
        assert!(ids.len() >= 2, "need at least two nodes");
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "node IDs must be unique");
        Instance {
            n: ids.len() as i64,
            ids: ids.to_vec(),
        }
    }

    /// The node (1-based) holding the maximum ID — the unique leader.
    ///
    /// # Panics
    ///
    /// Never panics for a constructed instance.
    #[must_use]
    pub fn winner(&self) -> i64 {
        let (idx, _) = self
            .ids
            .iter()
            .enumerate()
            .max_by_key(|(_, id)| **id)
            .expect("non-empty");
        idx as i64 + 1
    }

    /// The origin node (1-based) of an ID.
    fn origin_of(&self, id: i64) -> i64 {
        self.ids
            .iter()
            .position(|x| *x == id)
            .map_or(i64::MAX, |i| i as i64 + 1)
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// Fine-grained implementation: delivery and forwarding as separate
    /// tasks.
    pub p1: Program,
    /// Atomic-action program: `Pass` and `Elect` handlers.
    pub p2: Program,
    /// `Pass(i, m)`: node `i` examines a foreign ID and forwards or drops.
    pub pass: Arc<DslAction>,
    /// `Elect(i)`: node `i`'s own ID returned — it becomes leader.
    pub elect: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// Intermediate target after eliminating `Pass`: only the winner's
    /// `Elect` remains pending.
    pub main_mid: Arc<DslAction>,
    /// The sequentialization: the maximum-ID node is elected directly.
    pub main_seq: Arc<DslAction>,
    /// Application 1 invariant: forwarding chains completed origin by
    /// origin.
    pub inv_pass: Arc<DslAction>,
    /// Application 2 invariant: the winner's election fired or not.
    pub inv_elect: Arc<DslAction>,
    /// One-shot invariant combining both phases.
    pub inv_oneshot: Arc<DslAction>,
    /// P1 actions (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![self.pass.clone(), self.elect.clone(), self.main.clone()]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("n", Sort::Int);
    g.declare("id", Sort::map(Sort::Int, Sort::Int));
    g.declare("leader", Sort::map(Sort::Int, Sort::Bool));
    Arc::new(g)
}

/// `succ(i)` on the ring `1..=n`: `(i mod n) + 1`.
fn succ(i: Expr) -> Expr {
    add(Expr::Bin(BinOp::Mod, i.boxed(), var("n").boxed()), int(1))
}

/// The ring maximum.
fn max_id() -> Expr {
    max_of(image(
        "x",
        range(int(1), var("n")),
        get(var("id"), var("x")),
    ))
}

/// Builds all programs and artifacts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> Artifacts {
    let g = decls();
    let pass_sorts = vec![Sort::Int, Sort::Int];

    // action Elect(i): node i received its own ID back.
    let elect = DslAction::build("Elect", &g)
        .param("i", Sort::Int)
        .body(vec![assign_at("leader", var("i"), boolean(true))])
        .finish()
        .expect("Elect type-checks");

    // action Pass(i, m): node i examines the travelling ID m ≠ id[i]. If m
    // is greater it forwards — to the owner's Elect when the circle closes,
    // to the successor's Pass otherwise.
    let pass = DslAction::build("Pass", &g)
        .param("i", Sort::Int)
        .param("m", Sort::Int)
        .body(vec![if_(
            gt(var("m"), get(var("id"), var("i"))),
            vec![if_else(
                eq(var("m"), get(var("id"), succ(var("i")))),
                vec![async_call(&elect, vec![succ(var("i"))])],
                vec![async_named(
                    "Pass",
                    pass_sorts.clone(),
                    vec![succ(var("i")), var("m")],
                )],
            )],
        )])
        .finish()
        .expect("Pass type-checks");

    // action Main: every node sends its ID to its successor.
    let main = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![for_range(
            "i",
            int(1),
            var("n"),
            vec![async_call(
                &pass,
                vec![succ(var("i")), get(var("id"), var("i"))],
            )],
        )])
        .finish()
        .expect("Main type-checks");

    // Main'' (after eliminating Pass): only the winner's election remains.
    let main_mid = DslAction::build("MainMid", &g)
        .local("o", Sort::Int)
        .body(vec![for_range(
            "o",
            int(1),
            var("n"),
            vec![if_(
                eq(get(var("id"), var("o")), max_id()),
                vec![async_call(&elect, vec![var("o")])],
            )],
        )])
        .finish()
        .expect("Main'' type-checks");

    // Main': elect exactly the maximum-ID node.
    let main_seq = DslAction::build("MainSeq", &g)
        .local("o", Sort::Int)
        .body(vec![for_range(
            "o",
            int(1),
            var("n"),
            vec![if_(
                eq(get(var("id"), var("o")), max_id()),
                vec![assign_at("leader", var("o"), boolean(true))],
            )],
        )])
        .finish()
        .expect("Main' type-checks");

    // The partial-chain fragment shared by both invariants: chain j's
    // message travelled to ring distance d with every strictly-between node
    // smaller, and the corresponding Pass is pending.
    let partial_chain = |body: &mut Vec<inseq_lang::Stmt>| {
        body.push(if_(
            le(var("j"), var("n")),
            vec![
                choose("d", range(int(1), sub(var("n"), int(1)))),
                assign("ok", boolean(true)),
                assign("pos", var("j")),
                for_range(
                    "e",
                    int(1),
                    sub(var("d"), int(1)),
                    vec![
                        assign("pos", succ(var("pos"))),
                        assign(
                            "ok",
                            and(
                                var("ok"),
                                lt(get(var("id"), var("pos")), get(var("id"), var("j"))),
                            ),
                        ),
                    ],
                ),
                assume(var("ok")),
                async_named(
                    "Pass",
                    vec![Sort::Int, Sort::Int],
                    vec![succ(var("pos")), get(var("id"), var("j"))],
                ),
            ],
        ));
    };

    // Pending elections of completed chains: only the maximum survives its
    // own circle, and only once its chain (origin w) is complete.
    let pending_elections = |upto: Expr, body: &mut Vec<inseq_lang::Stmt>| {
        body.push(for_range(
            "o",
            int(1),
            upto,
            vec![if_(
                eq(get(var("id"), var("o")), max_id()),
                vec![async_call(&elect, vec![var("o")])],
            )],
        ));
    };

    // Application 1 invariant: chains of origins 1..j-1 completed (their
    // only trace: the winner's pending Elect), chain j partial, the rest
    // unstarted.
    let inv_pass = {
        let mut body = vec![choose("j", range(int(1), add(var("n"), int(1))))];
        pending_elections(sub(var("j"), int(1)), &mut body);
        partial_chain(&mut body);
        body.push(for_range(
            "o",
            add(var("j"), int(1)),
            var("n"),
            vec![async_call(
                &pass,
                vec![succ(var("o")), get(var("id"), var("o"))],
            )],
        ));
        DslAction::build("InvPass", &g)
            .local("j", Sort::Int)
            .local("d", Sort::Int)
            .local("o", Sort::Int)
            .local("e", Sort::Int)
            .local("pos", Sort::Int)
            .local("ok", Sort::Bool)
            .body(body)
            .finish()
            .expect("InvPass type-checks")
    };

    // Application 2 invariant: the winner's election fired or is pending.
    let inv_elect = DslAction::build("InvElect", &g)
        .local("s", Sort::Int)
        .local("o", Sort::Int)
        .body(vec![
            choose("s", range(int(0), int(1))),
            for_range(
                "o",
                int(1),
                var("n"),
                vec![if_(
                    eq(get(var("id"), var("o")), max_id()),
                    vec![if_else(
                        eq(var("s"), int(1)),
                        vec![assign_at("leader", var("o"), boolean(true))],
                        vec![async_call(&elect, vec![var("o")])],
                    )],
                )],
            ),
        ])
        .finish()
        .expect("InvElect type-checks");

    // One-shot invariant: both phases in a single induction.
    let inv_oneshot = {
        let mut body = vec![
            choose("j", range(int(1), add(var("n"), int(1)))),
            choose("s", range(int(0), int(1))),
            assume(or(eq(var("s"), int(0)), gt(var("j"), var("n")))),
        ];
        body.push(for_range(
            "o",
            int(1),
            sub(var("j"), int(1)),
            vec![if_(
                eq(get(var("id"), var("o")), max_id()),
                vec![if_else(
                    eq(var("s"), int(1)),
                    vec![assign_at("leader", var("o"), boolean(true))],
                    vec![async_call(&elect, vec![var("o")])],
                )],
            )],
        ));
        partial_chain(&mut body);
        body.push(for_range(
            "o",
            add(var("j"), int(1)),
            var("n"),
            vec![async_call(
                &pass,
                vec![succ(var("o")), get(var("id"), var("o"))],
            )],
        ));
        DslAction::build("InvOneShot", &g)
            .local("j", Sort::Int)
            .local("s", Sort::Int)
            .local("d", Sort::Int)
            .local("o", Sort::Int)
            .local("e", Sort::Int)
            .local("pos", Sort::Int)
            .local("ok", Sort::Bool)
            .body(body)
            .finish()
            .expect("InvOneShot type-checks")
    };

    // ----- P1: delivery and forwarding-decision as separate tasks -----
    let examine = DslAction::build("Examine", &g)
        .param("i", Sort::Int)
        .param("m", Sort::Int)
        .body(vec![if_(
            gt(var("m"), get(var("id"), var("i"))),
            vec![async_named(
                "Deliver",
                pass_sorts.clone(),
                vec![succ(var("i")), var("m")],
            )],
        )])
        .finish()
        .expect("Examine type-checks");
    let deliver = DslAction::build("Deliver", &g)
        .param("i", Sort::Int)
        .param("m", Sort::Int)
        .body(vec![if_else(
            eq(var("m"), get(var("id"), var("i"))),
            vec![assign_at("leader", var("i"), boolean(true))],
            vec![async_named("Examine", pass_sorts, vec![var("i"), var("m")])],
        )])
        .finish()
        .expect("Deliver type-checks");
    let main_impl = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![for_range(
            "i",
            int(1),
            var("n"),
            vec![async_call(
                &deliver,
                vec![succ(var("i")), get(var("id"), var("i"))],
            )],
        )])
        .finish()
        .expect("P1 main type-checks");

    let p1_actions = vec![
        Arc::clone(&examine),
        Arc::clone(&deliver),
        Arc::clone(&main_impl),
    ];
    let p1 = program_of(&g, [examine, deliver, main_impl], "Main").expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [Arc::clone(&pass), Arc::clone(&elect), Arc::clone(&main)],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        pass,
        elect,
        main,
        main_mid,
        main_seq,
        inv_pass,
        inv_elect,
        inv_oneshot,
        p1_actions,
    }
}

/// The initial store: `n` and `id[·]` set, nobody a leader.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: &Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("n").unwrap(), Value::Int(instance.n));
    let mut ids = inseq_kernel::Map::new(Value::Int(0));
    for (idx, id) in instance.ids.iter().enumerate() {
        ids.set_in_place(Value::Int(idx as i64 + 1), Value::Int(*id));
    }
    store.set(g.index_of("id").unwrap(), Value::map(ids));
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
        "Chang-Roberts",
        format!("n = {}", instance.n),
        artifacts.p2,
        init,
    )
}

/// The spec: exactly the maximum-ID node is elected.
pub fn spec(artifacts: &Artifacts, instance: &Instance) -> impl Fn(&GlobalStore) -> bool {
    let leader_idx = artifacts.decls.index_of("leader").unwrap();
    let winner = instance.winner();
    let n = instance.n;
    move |store: &GlobalStore| {
        let leader = store.get(leader_idx).as_map();
        (1..=n).all(|i| {
            let is_leader = leader.get(&Value::Int(i)) == &Value::Bool(true);
            is_leader == (i == winner)
        })
    }
}

/// Remaining work of a pending async for the cooperation measure: forwarding
/// hops left plus the final election step.
fn weight(pa: &PendingAsync, instance: &Instance) -> u64 {
    match pa.action.as_str() {
        "Elect" => 1,
        "Pass" => {
            let pos = pa.args[0].as_int();
            let origin = instance.origin_of(pa.args[1].as_int());
            let dist = (origin - pos).rem_euclid(instance.n);
            u64::try_from(dist + 2).unwrap_or(0)
        }
        _ => 0,
    }
}

fn smallest_pass(created: &Multiset<PendingAsync>, instance: &Instance) -> Option<PendingAsync> {
    created
        .distinct()
        .filter(|pa| pa.action.as_str() == "Pass")
        .min_by_key(|pa| instance.origin_of(pa.args[1].as_int()))
        .cloned()
}

/// The paper-faithful **two-application** proof (`#IS = 2` in Table 1):
/// first the forwarding chains, then the surviving election.
#[must_use]
pub fn iterated_chain(artifacts: &Artifacts, instance: &Instance) -> IsChain {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let inst1 = instance.clone();
    let inst_measure = instance.clone();
    let first = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Pass")
        .invariant(Arc::clone(&artifacts.inv_pass) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_mid) as Arc<dyn ActionSemantics>)
        .choice(move |t| smallest_pass(t.created, &inst1))
        .measure(Measure::lexicographic(
            "Σ remaining-hops",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, &inst_measure)).sum()]
            },
        ))
        .instance(init.clone());
    let second = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Elect")
        .invariant(Arc::clone(&artifacts.inv_elect) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Elect")
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init);
    IsChain::new().then(first).then(second)
}

/// The one-shot IS application over the same artifacts (`E = {Pass,
/// Elect}`).
#[must_use]
pub fn application(artifacts: &Artifacts, instance: &Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let inst_choice = instance.clone();
    let inst_measure = instance.clone();
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Pass")
        .eliminate("Elect")
        .invariant(Arc::clone(&artifacts.inv_oneshot) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .choice(move |t| {
            smallest_pass(t.created, &inst_choice).or_else(|| {
                t.created
                    .distinct()
                    .find(|pa| pa.action.as_str() == "Elect")
                    .cloned()
            })
        })
        .measure(Measure::lexicographic(
            "Σ remaining-hops",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, &inst_measure)).sum()]
            },
        ))
        .instance(init)
}

/// The Table-1 proof of an instance as data for [`Proof::run`]: `P1 ≼ P2`
/// by explicit refinement, the IS application(s), `P2 ≼ P'`, and the spec
/// on `P'` and `P2`.
#[must_use]
pub fn proof<'a>(artifacts: &'a Artifacts, instance: &Instance) -> Proof<'a> {
    let mut loc = LocCounter::new();
    loc.impl_actions([&artifacts.pass, &artifacts.elect, &artifacts.main]);
    loc.impl_actions(artifacts.p1_actions.iter());
    loc.is_actions([
        &artifacts.main_mid,
        &artifacts.main_seq,
        &artifacts.inv_pass,
        &artifacts.inv_elect,
    ]);
    Proof {
        name: "Chang-Roberts",
        instance: format!("n = {}", instance.n),
        loc,
        budget: 2_000_000,
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

/// Runs the full pipeline and produces the Table 1 row.
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
    use inseq_refine::check_program_refinement;

    #[test]
    fn p2_elects_exactly_the_max() {
        let instance = Instance::new(&[30, 10, 20]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
    }

    #[test]
    fn works_when_max_is_not_first() {
        let instance = Instance::new(&[10, 40, 20]);
        assert_eq!(instance.winner(), 2);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
    }

    #[test]
    fn p1_refines_p2() {
        let instance = Instance::new(&[20, 10]);
        let artifacts = build();
        let init1 = init_config(&artifacts.p1, &artifacts, &instance);
        check_program_refinement(&artifacts.p1, &artifacts.p2, [init1], 1_000_000).unwrap();
    }

    #[test]
    fn oneshot_application_passes() {
        let instance = Instance::new(&[30, 10, 20]);
        let artifacts = build();
        let report = application(&artifacts, &instance)
            .check()
            .expect("one-shot IS premises hold");
        assert!(report.induction_steps > 0);
    }

    #[test]
    fn iterated_chain_passes() {
        let instance = Instance::new(&[10, 30, 20]);
        let artifacts = build();
        let outcome = iterated_chain(&artifacts, &instance)
            .run()
            .expect("both applications hold");
        assert_eq!(outcome.reports.len(), 2);
    }

    #[test]
    fn verify_produces_table1_row() {
        let instance = Instance::new(&[10, 30, 20]);
        let row = verify(&instance).expect("pipeline passes");
        assert_eq!(row.is_applications, 2, "Table 1 reports #IS = 2");
    }
}
