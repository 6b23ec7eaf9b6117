//! Two-phase commit with early abort (§5.3 of the paper).
//!
//! A coordinator asks `n` participants to vote on a transaction. If every
//! participant votes *yes* the coordinator broadcasts *commit*; the moment a
//! single *no* vote arrives it broadcasts *abort* **without waiting for the
//! remaining votes** (the paper's "early abort" optimization). Participants
//! process vote requests and decision messages concurrently, so a
//! participant can learn the decision before it has even voted.
//!
//! Verified properties: all participants finalize the same decision, and
//! *commit* happens only when every participant voted yes.
//!
//! Handler encoding: `Request(i)` delivers the vote request to participant
//! `i` (spawning its vote response), `VoteResp(i, v)` is the coordinator
//! recording the vote, `Decide` is the coordinator's decision step (enabled
//! as soon as a *no* vote exists or all votes are in — the early abort), and
//! `Decision(j, d)` finalizes participant `j`. Like the paper, the default
//! proof uses **four IS applications** (`#IS = 4`), each enlarging the
//! sequentialized prefix by one phase ([`iterated_chain`]); a one-shot
//! application over the same artifacts is also provided ([`application`]).

use std::sync::Arc;

use inseq_core::{IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Multiset, PendingAsync, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// A finite instance: each participant's predetermined vote.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Number of participants.
    pub n: i64,
    /// `votes[i-1]` is participant `i`'s vote (`true` = yes).
    pub votes: Vec<bool>,
}

impl Instance {
    /// Creates an instance from the participants' votes.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two participants.
    #[must_use]
    pub fn new(votes: &[bool]) -> Self {
        assert!(votes.len() >= 2, "need at least two participants");
        Instance {
            n: votes.len() as i64,
            votes: votes.to_vec(),
        }
    }

    /// The expected outcome: commit iff everyone votes yes.
    #[must_use]
    pub fn expected_commit(&self) -> bool {
        self.votes.iter().all(|v| *v)
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// Fine-grained implementation: the decision broadcast is a chain of
    /// per-participant steps.
    pub p1: Program,
    /// Atomic-action program.
    pub p2: Program,
    /// `Request(i)`.
    pub request: Arc<DslAction>,
    /// `VoteResp(i, v)`.
    pub vote_resp: Arc<DslAction>,
    /// `Decide` (blocking until early-abort or all-votes-in).
    pub decide: Arc<DslAction>,
    /// `Decision(j, d)`.
    pub decision: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// The sequentialization.
    pub main_seq: Arc<DslAction>,
    /// The invariant action.
    pub inv: Arc<DslAction>,
    /// Left-mover abstraction of `Decide`: its enabling condition holds.
    pub decide_abs: Arc<DslAction>,
    /// P1 actions (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![
            self.request.clone(),
            self.vote_resp.clone(),
            self.decide.clone(),
            self.decision.clone(),
            self.main.clone(),
        ]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("n", Sort::Int);
    g.declare("vote", Sort::map(Sort::Int, Sort::Bool));
    g.declare("yesVotes", Sort::set(Sort::Int));
    g.declare("noVotes", Sort::set(Sort::Int));
    g.declare("coordDecision", Sort::opt(Sort::Bool));
    g.declare("finalized", Sort::map(Sort::Int, Sort::opt(Sort::Bool)));
    Arc::new(g)
}

/// Builds all programs and artifacts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> Artifacts {
    let g = decls();

    // action Decision(j, d): participant j finalizes the decision.
    let decision = DslAction::build("Decision", &g)
        .param("j", Sort::Int)
        .param("d", Sort::Bool)
        .body(vec![assign_at("finalized", var("j"), some(var("d")))])
        .finish()
        .expect("Decision type-checks");

    // action VoteResp(i, v): the coordinator records participant i's vote.
    let vote_resp = DslAction::build("VoteResp", &g)
        .param("i", Sort::Int)
        .param("v", Sort::Bool)
        .body(vec![if_else(
            var("v"),
            vec![assign("yesVotes", with_elem(var("yesVotes"), var("i")))],
            vec![assign("noVotes", with_elem(var("noVotes"), var("i")))],
        )])
        .finish()
        .expect("VoteResp type-checks");

    // action Request(i): participant i receives the request and votes.
    let request = DslAction::build("Request", &g)
        .param("i", Sort::Int)
        .body(vec![async_call(
            &vote_resp,
            vec![var("i"), get(var("vote"), var("i"))],
        )])
        .finish()
        .expect("Request type-checks");

    // The early-abort decision step: enabled as soon as some NO vote exists
    // or all votes are in.
    let decide_effect = |body: &mut Vec<inseq_lang::Stmt>| {
        body.push(if_else(
            ge(size(var("noVotes")), int(1)),
            vec![assign("coordDecision", some(boolean(false)))],
            vec![assign("coordDecision", some(boolean(true)))],
        ));
    };
    let decide = {
        let mut body = vec![assume(or(
            ge(size(var("noVotes")), int(1)),
            eq(size(var("yesVotes")), var("n")),
        ))];
        decide_effect(&mut body);
        body.push(for_range(
            "j",
            int(1),
            var("n"),
            vec![async_call(
                &decision,
                vec![var("j"), unwrap(var("coordDecision"))],
            )],
        ));
        DslAction::build("Decide", &g)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Decide type-checks")
    };

    // action Main: broadcast vote requests and arm the decision step.
    let main = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&request, vec![var("i")])],
            ),
            async_call(&decide, vec![]),
        ])
        .finish()
        .expect("Main type-checks");

    // Main': the completed sequentialization.
    let main_seq = {
        let mut body = vec![
            assign(
                "yesVotes",
                filter("i", range(int(1), var("n")), get(var("vote"), var("i"))),
            ),
            assign(
                "noVotes",
                filter(
                    "i",
                    range(int(1), var("n")),
                    not(get(var("vote"), var("i"))),
                ),
            ),
        ];
        decide_effect(&mut body);
        body.push(for_range(
            "j",
            int(1),
            var("n"),
            vec![assign_at(
                "finalized",
                var("j"),
                some(unwrap(var("coordDecision"))),
            )],
        ));
        DslAction::build("MainSeq", &g)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Main' type-checks")
    };

    // Inv: the sequential schedule progressed through (r requests, v votes,
    // dec ∈ {0,1}, d finalizations) with the π-order constraints.
    let inv = {
        let mut body = vec![
            choose("r", range(int(0), var("n"))),
            choose("v", range(int(0), var("n"))),
            choose("dec", range(int(0), int(1))),
            choose("d", range(int(0), var("n"))),
            assume(or(eq(var("v"), int(0)), eq(var("r"), var("n")))),
            assume(or(eq(var("dec"), int(0)), eq(var("v"), var("n")))),
            assume(or(eq(var("d"), int(0)), eq(var("dec"), int(1)))),
            // Coordinator state after the first v votes.
            assign(
                "yesVotes",
                filter("i", range(int(1), var("v")), get(var("vote"), var("i"))),
            ),
            assign(
                "noVotes",
                filter(
                    "i",
                    range(int(1), var("v")),
                    not(get(var("vote"), var("i"))),
                ),
            ),
        ];
        body.push(if_(eq(var("dec"), int(1)), {
            let mut inner = Vec::new();
            decide_effect(&mut inner);
            inner.push(for_range(
                "j",
                int(1),
                var("d"),
                vec![assign_at(
                    "finalized",
                    var("j"),
                    some(unwrap(var("coordDecision"))),
                )],
            ));
            inner.push(for_range(
                "j",
                add(var("d"), int(1)),
                var("n"),
                vec![async_call(
                    &decision,
                    vec![var("j"), unwrap(var("coordDecision"))],
                )],
            ));
            inner
        }));
        body.extend([
            for_range(
                "i",
                add(var("r"), int(1)),
                var("n"),
                vec![async_call(&request, vec![var("i")])],
            ),
            for_range(
                "i",
                add(var("v"), int(1)),
                var("r"),
                vec![async_call(
                    &vote_resp,
                    vec![var("i"), get(var("vote"), var("i"))],
                )],
            ),
            if_(eq(var("dec"), int(0)), vec![async_call(&decide, vec![])]),
        ]);
        DslAction::build("Inv", &g)
            .local("r", Sort::Int)
            .local("v", Sort::Int)
            .local("dec", Sort::Int)
            .local("d", Sort::Int)
            .local("i", Sort::Int)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv type-checks")
    };

    // DecideAbs: the enabling condition is a gate rather than a blocking
    // assume, making the step a non-blocking left mover.
    let decide_abs = DslAction::build("DecideAbs", &g)
        .body(vec![
            assert_msg(
                or(
                    ge(size(var("noVotes")), int(1)),
                    eq(size(var("yesVotes")), var("n")),
                ),
                "DecideAbs: neither early abort nor all votes in",
            ),
            call(&decide, vec![]),
        ])
        .finish()
        .expect("DecideAbs type-checks");

    // ----- P1: decision broadcast as a chain of per-participant steps -----
    let bcast = DslAction::build("BcastDecision", &g)
        .param("j", Sort::Int)
        .body(vec![
            async_call(&decision, vec![var("j"), unwrap(var("coordDecision"))]),
            if_(
                lt(var("j"), var("n")),
                vec![async_named(
                    "BcastDecision",
                    vec![Sort::Int],
                    vec![add(var("j"), int(1))],
                )],
            ),
        ])
        .finish()
        .expect("BcastDecision type-checks");
    let decide_impl = {
        let mut body = vec![assume(or(
            ge(size(var("noVotes")), int(1)),
            eq(size(var("yesVotes")), var("n")),
        ))];
        decide_effect(&mut body);
        body.push(async_call(&bcast, vec![int(1)]));
        DslAction::build("DecideImpl", &g)
            .body(body)
            .finish()
            .expect("DecideImpl type-checks")
    };
    let main_impl = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&request, vec![var("i")])],
            ),
            async_call(&decide_impl, vec![]),
        ])
        .finish()
        .expect("P1 main type-checks");

    let p1_actions = vec![
        Arc::clone(&bcast),
        Arc::clone(&decide_impl),
        Arc::clone(&main_impl),
    ];
    let p1 = program_of(
        &g,
        [
            Arc::clone(&request),
            Arc::clone(&vote_resp),
            Arc::clone(&decision),
            bcast,
            decide_impl,
            main_impl,
        ],
        "Main",
    )
    .expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [
            Arc::clone(&request),
            Arc::clone(&vote_resp),
            Arc::clone(&decide),
            Arc::clone(&decision),
            Arc::clone(&main),
        ],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        request,
        vote_resp,
        decide,
        decision,
        main,
        main_seq,
        inv,
        decide_abs,
        p1_actions,
    }
}

/// The initial store: `n` and the votes set.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: &Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("n").unwrap(), Value::Int(instance.n));
    let mut votes = inseq_kernel::Map::new(Value::Bool(false));
    for (idx, v) in instance.votes.iter().enumerate() {
        votes.set_in_place(Value::Int(idx as i64 + 1), Value::Bool(*v));
    }
    store.set(g.index_of("vote").unwrap(), Value::map(votes));
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
        "Two-phase commit",
        format!("n = {}", instance.n),
        artifacts.p2,
        init,
    )
}

/// The spec: every participant finalized, all with the same decision, and
/// commit only if everyone voted yes.
pub fn spec(artifacts: &Artifacts, instance: &Instance) -> impl Fn(&GlobalStore) -> bool {
    let fin_idx = artifacts.decls.index_of("finalized").unwrap();
    let expected = Value::some(Value::Bool(instance.expected_commit()));
    let n = instance.n;
    move |store: &GlobalStore| {
        let fin = store.get(fin_idx).as_map();
        (1..=n).all(|j| fin.get(&Value::Int(j)) == &expected)
    }
}

/// Position of a PA in the sequential schedule.
fn position(pa: &PendingAsync, n: i64) -> i64 {
    match pa.action.as_str() {
        "Request" => pa.args[0].as_int(),
        "VoteResp" => n + pa.args[0].as_int(),
        "Decide" => 2 * n + 1,
        "Decision" => 2 * n + 1 + pa.args[0].as_int(),
        _ => i64::MAX,
    }
}

/// Cooperation weights: `Request` spawns one `VoteResp`; `Decide` spawns `n`
/// `Decision`s; each weight strictly exceeds the sum of what it spawns.
fn weight(pa: &PendingAsync, n: i64) -> u64 {
    match pa.action.as_str() {
        "Request" => 2,
        "VoteResp" | "Decision" => 1,
        "Decide" => u64::try_from(n).unwrap_or(0) + 1,
        _ => 0,
    }
}

/// The IS application.
#[must_use]
pub fn application(artifacts: &Artifacts, instance: &Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let n = instance.n;
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Request")
        .eliminate("VoteResp")
        .eliminate("Decide")
        .eliminate("Decision")
        .invariant(Arc::clone(&artifacts.inv) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Decide",
            Arc::clone(&artifacts.decide_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(move |t| {
            t.created
                .distinct()
                .min_by_key(|pa| position(pa, n))
                .cloned()
        })
        .measure(Measure::lexicographic(
            "Σ task-weights",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, n)).sum()]
            },
        ))
        .instance(init)
}

/// Statements computing the coordinator's vote sets for the first `hi`
/// participants (used by the iterated-proof artifacts).
fn vote_filters(hi: Expr) -> Vec<inseq_lang::Stmt> {
    vec![
        assign(
            "yesVotes",
            filter("i", range(int(1), hi.clone()), get(var("vote"), var("i"))),
        ),
        assign(
            "noVotes",
            filter("i", range(int(1), hi), not(get(var("vote"), var("i")))),
        ),
    ]
}

/// The decision assignment (abort on any NO, else commit).
fn decide_stmts() -> Vec<inseq_lang::Stmt> {
    vec![if_else(
        ge(size(var("noVotes")), int(1)),
        vec![assign("coordDecision", some(boolean(false)))],
        vec![assign("coordDecision", some(boolean(true)))],
    )]
}

use inseq_core::chain::IsChain;
use inseq_lang::Expr;

/// The paper-faithful **four-application** proof (`#IS = 4` in Table 1):
/// each application enlarges the sequentialized prefix by one protocol
/// phase — vote requests, then vote responses, then the (early-abort)
/// decision, then the finalizations.
///
/// # Panics
///
/// Panics if the intermediate artifacts fail to type-check (a bug in this
/// module).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn iterated_chain(artifacts: &Artifacts, instance: &Instance) -> IsChain {
    let g = &artifacts.decls;
    let init = init_config(&artifacts.p2, artifacts, instance);
    let n = instance.n;

    // --- Application 1: eliminate Request -------------------------------
    // Main1: vote responses armed directly.
    let main1 = DslAction::build("Main1", g)
        .local("i", Sort::Int)
        .body(vec![
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(
                    &artifacts.vote_resp,
                    vec![var("i"), get(var("vote"), var("i"))],
                )],
            ),
            async_call(&artifacts.decide, vec![]),
        ])
        .finish()
        .expect("Main1 type-checks");
    let inv1 = DslAction::build("Inv1", g)
        .local("r", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            choose("r", range(int(0), var("n"))),
            for_range(
                "i",
                add(var("r"), int(1)),
                var("n"),
                vec![async_call(&artifacts.request, vec![var("i")])],
            ),
            for_range(
                "i",
                int(1),
                var("r"),
                vec![async_call(
                    &artifacts.vote_resp,
                    vec![var("i"), get(var("vote"), var("i"))],
                )],
            ),
            async_call(&artifacts.decide, vec![]),
        ])
        .finish()
        .expect("Inv1 type-checks");
    let app1 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Request")
        .invariant(inv1 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main1) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "Request")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .measure(Measure::lexicographic(
            "Σ task-weights",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, n)).sum()]
            },
        ))
        .instance(init.clone());

    // --- Application 2: eliminate VoteResp ------------------------------
    let main2 = {
        let mut body = vote_filters(var("n"));
        body.push(async_call(&artifacts.decide, vec![]));
        DslAction::build("Main2", g)
            .body(body)
            .finish()
            .expect("Main2 type-checks")
    };
    let inv2 = {
        let mut body = vec![choose("v", range(int(0), var("n")))];
        body.extend(vote_filters(var("v")));
        body.push(for_range(
            "i",
            add(var("v"), int(1)),
            var("n"),
            vec![async_call(
                &artifacts.vote_resp,
                vec![var("i"), get(var("vote"), var("i"))],
            )],
        ));
        body.push(async_call(&artifacts.decide, vec![]));
        DslAction::build("Inv2", g)
            .local("v", Sort::Int)
            .local("i", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv2 type-checks")
    };
    let app2 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("VoteResp")
        .invariant(inv2 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main2) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "VoteResp")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init.clone());

    // --- Application 3: eliminate Decide --------------------------------
    let main3 = {
        let mut body = vote_filters(var("n"));
        body.extend(decide_stmts());
        body.push(for_range(
            "j",
            int(1),
            var("n"),
            vec![async_call(
                &artifacts.decision,
                vec![var("j"), unwrap(var("coordDecision"))],
            )],
        ));
        DslAction::build("Main3", g)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Main3 type-checks")
    };
    let inv3 = {
        let mut body = vec![choose("dec", range(int(0), int(1)))];
        body.extend(vote_filters(var("n")));
        body.push(if_else(
            eq(var("dec"), int(1)),
            {
                let mut inner = decide_stmts();
                inner.push(for_range(
                    "j",
                    int(1),
                    var("n"),
                    vec![async_call(
                        &artifacts.decision,
                        vec![var("j"), unwrap(var("coordDecision"))],
                    )],
                ));
                inner
            },
            vec![async_call(&artifacts.decide, vec![])],
        ));
        DslAction::build("Inv3", g)
            .local("dec", Sort::Int)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv3 type-checks")
    };
    let app3 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Decide")
        .invariant(inv3 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main3) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Decide",
            Arc::clone(&artifacts.decide_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Decide")
                .cloned()
        })
        .measure(Measure::lexicographic(
            "Σ task-weights",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, n)).sum()]
            },
        ))
        .instance(init.clone());

    // --- Application 4: eliminate Decision ------------------------------
    let inv4 = {
        let mut body = vec![choose("d", range(int(0), var("n")))];
        body.extend(vote_filters(var("n")));
        body.extend(decide_stmts());
        body.push(for_range(
            "j",
            int(1),
            var("d"),
            vec![assign_at(
                "finalized",
                var("j"),
                some(unwrap(var("coordDecision"))),
            )],
        ));
        body.push(for_range(
            "j",
            add(var("d"), int(1)),
            var("n"),
            vec![async_call(
                &artifacts.decision,
                vec![var("j"), unwrap(var("coordDecision"))],
            )],
        ));
        DslAction::build("Inv4", g)
            .local("d", Sort::Int)
            .local("j", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv4 type-checks")
    };
    let app4 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Decision")
        .invariant(inv4 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "Decision")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init);

    IsChain::new().then(app1).then(app2).then(app3).then(app4)
}

/// The Table-1 proof of an instance as data for [`Proof::run`]: `P1 ≼ P2`
/// by explicit refinement, the IS application(s), `P2 ≼ P'`, and the spec
/// on `P'` and `P2`.
#[must_use]
pub fn proof<'a>(artifacts: &'a Artifacts, instance: &Instance) -> Proof<'a> {
    let mut loc = LocCounter::new();
    loc.impl_actions([
        &artifacts.request,
        &artifacts.vote_resp,
        &artifacts.decide,
        &artifacts.decision,
        &artifacts.main,
    ]);
    loc.impl_actions(artifacts.p1_actions.iter());
    loc.is_actions([&artifacts.main_seq, &artifacts.inv, &artifacts.decide_abs]);
    Proof {
        name: "Two-phase commit",
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
    fn all_yes_commits() {
        let instance = Instance::new(&[true, true]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
    }

    #[test]
    fn one_no_aborts_everywhere() {
        let instance = Instance::new(&[true, false, true]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
    }

    #[test]
    fn early_abort_can_overtake_a_request() {
        // A participant can be finalized before its own vote request is
        // processed — the optimization the paper highlights.
        let instance = Instance::new(&[false, true]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        let exp = inseq_kernel::Explorer::new(&artifacts.p2)
            .explore([init])
            .unwrap();
        let fin_idx = artifacts.decls.index_of("finalized").unwrap();
        let has_early = exp.configs().any(|c| {
            let fin2 = c.globals.get(fin_idx).as_map().get(&Value::Int(2)).clone();
            let request2_pending = c
                .pending
                .distinct()
                .any(|pa| pa.action.as_str() == "Request" && pa.args[0] == Value::Int(2));
            fin2 != Value::none() && request2_pending
        });
        assert!(has_early, "the early-abort interleaving must be reachable");
    }

    #[test]
    fn p1_refines_p2() {
        let instance = Instance::new(&[true, false]);
        let artifacts = build();
        let init1 = init_config(&artifacts.p1, &artifacts, &instance);
        check_program_refinement(&artifacts.p1, &artifacts.p2, [init1], 1_000_000).unwrap();
    }

    #[test]
    fn is_application_passes_commit_and_abort() {
        let artifacts = build();
        for votes in [
            &[true, true][..],
            &[true, false][..],
            &[false, true, true][..],
        ] {
            let instance = Instance::new(votes);
            application(&artifacts, &instance)
                .check()
                .unwrap_or_else(|e| panic!("IS premises must hold for {votes:?}: {e}"));
        }
    }

    #[test]
    fn verify_produces_table1_row() {
        let instance = Instance::new(&[true, false, true]);
        let row = verify(&instance).expect("pipeline passes");
        assert_eq!(row.is_applications, 4, "Table 1 reports #IS = 4");
    }

    #[test]
    fn iterated_chain_matches_single_application() {
        let instance = Instance::new(&[true, false]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        let single = application(&artifacts, &instance)
            .check_and_apply()
            .expect("single application holds")
            .0;
        let chained = iterated_chain(&artifacts, &instance)
            .run()
            .expect("four applications hold")
            .program;
        let ta: std::collections::BTreeSet<_> = inseq_kernel::Explorer::new(&single)
            .explore([init.clone()])
            .unwrap()
            .terminal_stores()
            .cloned()
            .collect();
        let tb: std::collections::BTreeSet<_> = inseq_kernel::Explorer::new(&chained)
            .explore([init])
            .unwrap()
            .terminal_stores()
            .cloned()
            .collect();
        assert_eq!(ta, tb, "both proofs yield the same sequential reduction");
    }
}
