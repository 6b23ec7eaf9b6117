//! The **channel-level Paxos implementation** of Fig. 4(a): acceptor state,
//! `joinChannel`/`voteChannel` bags, and fine-grained proposer loops that
//! receive and aggregate responses one message at a time (in
//! continuation-passing style, carrying the aggregation state in the
//! pending-async arguments).
//!
//! The paper connects this implementation to the abstract atomic actions of
//! Fig. 4(b) by a CIVL refinement step that *hides* `acceptorState`,
//! `joinChannel` and `voteChannel` and *introduces* `joinedNodes` and
//! `voteInfo`. Our analogue is **refinement up to observation**
//! ([`inseq_refine::check_observed_refinement`]): the implementation and the
//! abstract program have different schemas, but every observable summary
//! (the per-round decision map) of the implementation is an observable
//! summary of the abstract program. See [`check_implements_abstract`].

use std::sync::Arc;

use inseq_kernel::{Config, GlobalStore, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, Expr, GlobalDecls, Sort, Stmt};
use inseq_refine::{check_observed_refinement, RefinementViolation};

use crate::common::Refinement;
use crate::paxos::{self, Instance};

/// All artifacts of the channel-level implementation.
#[derive(Debug, Clone)]
pub struct ImplArtifacts {
    /// Global declarations of the implementation.
    pub decls: Arc<GlobalDecls>,
    /// The fine-grained program (`P1` of the Paxos case study).
    pub p1: Program,
    /// The implementation actions (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("R", Sort::Int);
    g.declare("N", Sort::Int);
    g.declare("quorum", Sort::Int);
    // Per-acceptor state (the paper's `acceptorState`): the highest round
    // promised/voted, and the last vote cast.
    g.declare("acceptorMax", Sort::map(Sort::Int, Sort::Int));
    g.declare(
        "lastVote",
        Sort::map(
            Sort::Int,
            Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::Int])),
        ),
    );
    // joinChannel[r]: bag of (node, lastVote) join responses.
    g.declare(
        "joinChannel",
        Sort::map(
            Sort::Int,
            Sort::bag(Sort::Tuple(vec![
                Sort::Int,
                Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::Int])),
            ])),
        ),
    );
    // voteChannel[r]: bag of node ids that voted.
    g.declare("voteChannel", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
    // The observable outcome.
    g.declare("decision", Sort::map(Sort::Int, Sort::opt(Sort::Int)));
    Arc::new(g)
}

/// `choose b in {0,1}` — the pervasive message-loss coin.
fn coin() -> Stmt {
    choose("b", range(int(0), int(1)))
}

fn heads() -> Expr {
    eq(var("b"), int(1))
}

/// Builds the fine-grained program.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> ImplArtifacts {
    let g = decls();

    // Join(r, n): acceptor n receives the join request; if it has not
    // promised a round ≥ r it promises r and responds with its last vote.
    let join = DslAction::build("JoinImpl", &g)
        .param("r", Sort::Int)
        .param("n", Sort::Int)
        .local("b", Sort::Int)
        .body(vec![
            coin(),
            if_(
                and(heads(), lt(get(var("acceptorMax"), var("n")), var("r"))),
                vec![
                    assign_at("acceptorMax", var("n"), var("r")),
                    send_to(
                        "joinChannel",
                        var("r"),
                        tuple(vec![var("n"), get(var("lastVote"), var("n"))]),
                    ),
                ],
            ),
        ])
        .finish()
        .expect("JoinImpl type-checks");

    // Vote(r, n, v): acceptor n votes for v in round r unless it promised a
    // higher round.
    let vote = DslAction::build("VoteImpl", &g)
        .param("r", Sort::Int)
        .param("n", Sort::Int)
        .param("v", Sort::Int)
        .local("b", Sort::Int)
        .body(vec![
            coin(),
            if_(
                and(heads(), le(get(var("acceptorMax"), var("n")), var("r"))),
                vec![
                    assign_at("acceptorMax", var("n"), var("r")),
                    assign_at("lastVote", var("n"), some(tuple(vec![var("r"), var("v")]))),
                    send_to("voteChannel", var("r"), var("n")),
                ],
            ),
        ])
        .finish()
        .expect("VoteImpl type-checks");

    // ConcludeRecv(r, v, got): the proposer's second aggregation loop — one
    // vote response per step; at quorum, decide. May give up at any point.
    let conclude_recv = DslAction::build("ConcludeRecv", &g)
        .param("r", Sort::Int)
        .param("v", Sort::Int)
        .param("got", Sort::Int)
        .local("b", Sort::Int)
        .local("who", Sort::Int)
        .body(vec![if_else(
            ge(var("got"), var("quorum")),
            vec![assign_at("decision", var("r"), some(var("v")))],
            vec![
                coin(),
                if_(
                    heads(),
                    vec![
                        recv_from("who", "voteChannel", var("r")),
                        async_named(
                            "ConcludeRecv",
                            vec![Sort::Int, Sort::Int, Sort::Int],
                            vec![var("r"), var("v"), add(var("got"), int(1))],
                        ),
                    ],
                ),
            ],
        )])
        .finish()
        .expect("ConcludeRecv type-checks");

    // ProposeRecv(r, got, best): the proposer's first aggregation loop — one
    // join response per step, folding the highest-round last vote; at
    // quorum, propose (the folded value, or fresh = r) and spawn the vote
    // phase. May give up at any point (undecided round).
    let propose_recv = DslAction::build("ProposeRecv", &g)
        .param("r", Sort::Int)
        .param("got", Sort::Int)
        .param("best", Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::Int])))
        .local("b", Sort::Int)
        .local(
            "resp",
            Sort::Tuple(vec![
                Sort::Int,
                Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::Int])),
            ]),
        )
        .local("v", Sort::Int)
        .local("n", Sort::Int)
        .body(vec![if_else(
            ge(var("got"), var("quorum")),
            vec![
                // Quorum of promises: propose.
                assign(
                    "v",
                    ite(is_some(var("best")), proj(unwrap(var("best")), 1), var("r")),
                ),
                for_range(
                    "n",
                    int(1),
                    var("N"),
                    vec![async_named(
                        "VoteImpl",
                        vec![Sort::Int, Sort::Int, Sort::Int],
                        vec![var("r"), var("n"), var("v")],
                    )],
                ),
                async_named(
                    "ConcludeRecv",
                    vec![Sort::Int, Sort::Int, Sort::Int],
                    vec![var("r"), var("v"), int(0)],
                ),
            ],
            vec![
                coin(),
                if_(
                    heads(),
                    vec![
                        recv_from("resp", "joinChannel", var("r")),
                        // Fold the max-round last vote.
                        if_(
                            and(
                                is_some(proj(var("resp"), 1)),
                                or(
                                    not(is_some(var("best"))),
                                    gt(
                                        proj(unwrap(proj(var("resp"), 1)), 0),
                                        proj(unwrap(var("best")), 0),
                                    ),
                                ),
                            ),
                            vec![assign("best", proj(var("resp"), 1))],
                        ),
                        async_named(
                            "ProposeRecv",
                            vec![
                                Sort::Int,
                                Sort::Int,
                                Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::Int])),
                            ],
                            vec![var("r"), add(var("got"), int(1)), var("best")],
                        ),
                    ],
                ),
            ],
        )])
        .finish()
        .expect("ProposeRecv type-checks");

    // StartRound(r): one join request per acceptor plus the proposer loop.
    let start_round = DslAction::build("StartRoundImpl", &g)
        .param("r", Sort::Int)
        .local("n", Sort::Int)
        .body(vec![
            for_range(
                "n",
                int(1),
                var("N"),
                vec![async_call(&join, vec![var("r"), var("n")])],
            ),
            async_call(&propose_recv, vec![var("r"), int(0), none()]),
        ])
        .finish()
        .expect("StartRoundImpl type-checks");

    let main = DslAction::build("Main", &g)
        .local("r", Sort::Int)
        .body(vec![for_range(
            "r",
            int(1),
            var("R"),
            vec![async_call(&start_round, vec![var("r")])],
        )])
        .finish()
        .expect("Main type-checks");

    let p1_actions = vec![
        Arc::clone(&join),
        Arc::clone(&vote),
        Arc::clone(&conclude_recv),
        Arc::clone(&propose_recv),
        Arc::clone(&start_round),
        Arc::clone(&main),
    ];
    let p1 = program_of(
        &g,
        [join, vote, conclude_recv, propose_recv, start_round, main],
        "Main",
    )
    .expect("P1 is well-formed");
    ImplArtifacts {
        decls: g,
        p1,
        p1_actions,
    }
}

/// The initialized configuration for an instance.
///
/// # Panics
///
/// Panics when the store does not match the schema (a bug in this module).
#[must_use]
pub fn init_config(artifacts: &ImplArtifacts, instance: Instance) -> Config {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("R").unwrap(), Value::Int(instance.rounds));
    store.set(g.index_of("N").unwrap(), Value::Int(instance.nodes));
    store.set(g.index_of("quorum").unwrap(), Value::Int(instance.quorum()));
    artifacts
        .p1
        .initial_config_with(store, vec![])
        .expect("store matches schema")
}

/// The observable summary of a terminal store: the per-round decision map.
#[must_use]
pub fn observe(store: &GlobalStore, decls: &GlobalDecls, rounds: i64) -> Vec<Option<i64>> {
    let idx = decls.index_of("decision").expect("decision declared");
    let decision = store.get(idx).as_map();
    (1..=rounds)
        .map(|r| match decision.get(&Value::Int(r)) {
            Value::Opt(Some(v)) => Some(v.as_int()),
            _ => None,
        })
        .collect()
}

/// `P1 ≼ P2` for Paxos: the channel-level implementation refines the
/// abstract atomic program of Fig. 4(b) **up to the decision observation**
/// — the analogue of the paper's variable-hiding refinement step.
#[must_use]
pub fn refinement<'a>(
    impl_artifacts: &'a ImplArtifacts,
    abs_artifacts: &paxos::Artifacts,
    instance: Instance,
) -> Refinement<'a> {
    let rounds = instance.rounds;
    let decls1 = Arc::clone(&impl_artifacts.decls);
    let decls2 = Arc::clone(&abs_artifacts.decls);
    Refinement::observed(
        &impl_artifacts.p1,
        init_config(impl_artifacts, instance),
        paxos::init_config(&abs_artifacts.p2, abs_artifacts, instance),
        move |s: &GlobalStore| observe(s, &decls1, rounds),
        move |s: &GlobalStore| observe(s, &decls2, rounds),
    )
}

/// Checks [`refinement`] on freshly built artifacts.
///
/// # Errors
///
/// Returns the refinement counterexample.
pub fn check_implements_abstract(
    instance: Instance,
    budget: usize,
) -> Result<(), RefinementViolation> {
    let impl_artifacts = build();
    let abs_artifacts = paxos::build();
    let init1 = init_config(&impl_artifacts, instance);
    let init2 = paxos::init_config(&abs_artifacts.p2, &abs_artifacts, instance);
    let rounds = instance.rounds;
    check_observed_refinement(
        &impl_artifacts.p1,
        &abs_artifacts.p2,
        [(init1, init2)],
        budget,
        |s: &GlobalStore| observe(s, &impl_artifacts.decls, rounds),
        |s: &GlobalStore| observe(s, &abs_artifacts.decls, rounds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::Explorer;

    #[test]
    fn implementation_decides_in_some_execution() {
        let artifacts = build();
        let instance = Instance::new(1, 2);
        let init = init_config(&artifacts, instance);
        let exp = Explorer::new(&artifacts.p1).explore([init]).unwrap();
        assert!(!exp.has_failure());
        assert!(exp
            .terminal_stores()
            .any(|s| observe(s, &artifacts.decls, 1) == vec![Some(1)]));
    }

    #[test]
    fn implementation_satisfies_agreement_directly() {
        let artifacts = build();
        let instance = Instance::new(2, 2);
        let init = init_config(&artifacts, instance);
        let exp = Explorer::new(&artifacts.p1)
            .with_budget(6_000_000)
            .explore([init])
            .unwrap();
        for s in exp.terminal_stores() {
            let decisions: Vec<i64> = observe(s, &artifacts.decls, 2)
                .into_iter()
                .flatten()
                .collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "disagreement at {s}"
            );
        }
    }

    #[test]
    fn implementation_refines_the_abstract_program_r1() {
        check_implements_abstract(Instance::new(1, 2), 6_000_000)
            .expect("P1 ≼ P2 up to observation");
    }

    #[test]
    fn implementation_refines_the_abstract_program_r2() {
        check_implements_abstract(Instance::new(2, 2), 8_000_000)
            .expect("P1 ≼ P2 up to observation");
    }
}
