//! Classic protocol bugs planted into the atomic programs `P2` of the case
//! studies: each function builds the buggy replacement for one action.
//! Shared by `bug_injection.rs` and `pipeline_driver.rs`.

use std::sync::Arc;

use inductive_sequentialization::kernel::Value;
use inductive_sequentialization::lang::build::*;
use inductive_sequentialization::lang::{DslAction, Sort};
use inductive_sequentialization::protocols::{broadcast, paxos, two_phase_commit};

/// Broadcast consensus: a `Collect` that only receives `n - 1` values, so
/// it can decide a non-maximum.
pub fn undercounting_collect(artifacts: &broadcast::Artifacts) -> Arc<DslAction> {
    let g = artifacts.decls.clone();
    DslAction::build("Collect", &g)
        .param("i", Sort::Int)
        .local("j", Sort::Int)
        .local("v", Sort::Int)
        .local("got", Sort::bag(Sort::Int))
        .body(vec![
            // (ghost bookkeeping intentionally preserved)
            assign(
                "pendingAsyncs",
                without_elem(var("pendingAsyncs"), tuple(vec![int(2), var("i")])),
            ),
            for_range(
                "j",
                int(1),
                sub(var("n"), int(1)), // BUG: one receive too few
                vec![
                    recv_from("v", "CH", var("i")),
                    assign("got", with_elem(var("got"), var("v"))),
                ],
            ),
            assign_at("decision", var("i"), some(max_of(var("got")))),
        ])
        .finish()
        .unwrap()
}

/// Two-phase commit: a coordinator that decides COMMIT as soon as one YES
/// vote arrives.
pub fn overeager_decide(artifacts: &two_phase_commit::Artifacts) -> Arc<DslAction> {
    let g = artifacts.decls.clone();
    DslAction::build("Decide", &g)
        .local("j", Sort::Int)
        .body(vec![
            assume(ge(size(var("yesVotes")), int(1))), // BUG: one yes suffices
            assign("coordDecision", some(boolean(true))),
            for_range(
                "j",
                int(1),
                var("n"),
                vec![async_call(
                    &artifacts.decision,
                    vec![var("j"), boolean(true)],
                )],
            ),
        ])
        .finish()
        .unwrap()
}

/// Paxos: proposers always propose a fresh value, never adopting the value
/// of an earlier quorum-visible vote. Identical to the real `Propose`
/// except that the value selection is skipped (always fresh = r).
pub fn fresh_value_propose(artifacts: &paxos::Artifacts) -> Arc<DslAction> {
    let g = artifacts.decls.clone();
    let mut body = vec![assign(
        "pendingAsyncs",
        without_elem(var("pendingAsyncs"), tuple(vec![int(2), var("r"), int(0)])),
    )];
    body.push(choose("b", range(int(0), int(1))));
    body.push(if_(
        eq(var("b"), int(1)),
        vec![
            assign("ns", lit(Value::empty_set())),
            for_range(
                "pn",
                int(1),
                var("N"),
                vec![if_(
                    contains(get(var("joinedNodes"), var("r")), var("pn")),
                    vec![
                        choose("b", range(int(0), int(1))),
                        if_(
                            eq(var("b"), int(1)),
                            vec![assign("ns", with_elem(var("ns"), var("pn")))],
                        ),
                    ],
                )],
            ),
            if_(
                ge(size(var("ns")), var("quorum")),
                vec![
                    assign("v", var("r")), // BUG: never adopt an earlier value
                    assign_at(
                        "voteInfo",
                        var("r"),
                        some(tuple(vec![var("v"), lit(Value::empty_set())])),
                    ),
                    for_range(
                        "pn",
                        int(1),
                        var("N"),
                        vec![
                            assign(
                                "pendingAsyncs",
                                with_elem(
                                    var("pendingAsyncs"),
                                    tuple(vec![int(3), var("r"), var("pn")]),
                                ),
                            ),
                            async_named(
                                "Vote",
                                vec![Sort::Int, Sort::Int, Sort::Int],
                                vec![var("r"), var("pn"), var("v")],
                            ),
                        ],
                    ),
                    assign(
                        "pendingAsyncs",
                        with_elem(var("pendingAsyncs"), tuple(vec![int(4), var("r"), int(0)])),
                    ),
                    async_named(
                        "Conclude",
                        vec![Sort::Int, Sort::Int],
                        vec![var("r"), var("v")],
                    ),
                ],
            ),
        ],
    ));
    DslAction::build("Propose", &g)
        .param("r", Sort::Int)
        .local("ns", Sort::set(Sort::Int))
        .local("v", Sort::Int)
        .local("b", Sort::Int)
        .local("pn", Sort::Int)
        .body(body)
        .finish()
        .unwrap()
}
