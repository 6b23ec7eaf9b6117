//! Single-decree Paxos (§5.2 and Fig. 4 of the paper) — the most significant
//! case study.
//!
//! `N` unreliable acceptors and one proposer per round `1..=R` establish
//! consensus on a single value without a central coordinator. Round `r`'s
//! proposer first collects a *join* quorum, then proposes a value — either a
//! fresh one (we use the round number, so distinct rounds propose distinct
//! fresh values) or the value of the highest round in which a member of the
//! quorum voted — then collects a *vote* quorum and concludes a decision.
//! Acceptors abandon a round when they hear of a higher one. We prove the
//! paper's `Paxos'` property: **no two rounds decide different values**.
//!
//! The model follows Fig. 4(b): abstract state `joinedNodes`, `voteInfo`,
//! `decision`, plus the ghost `pendingAsyncs` bag the paper introduces so
//! that abstraction gates can refer to `Ω`. Message loss and overlapping
//! rounds are modelled by nondeterministic drops inside the handlers,
//! exactly as the paper describes ("the effect of rounds being blocked …
//! is equivalent to … nondeterministically dropping incoming messages").
//!
//! The sequentialization runs one round at a time, in increasing order, each
//! round in the fixed phase order `S J… P V… C` (§5.2). Every abstraction
//! gate follows Fig. 4(c)'s `ProposeAbs` pattern: *no pending async of an
//! earlier schedule position remains*.

use std::sync::Arc;

use inseq_core::chain::IsChain;
use inseq_core::{IsApplication, Measure};
use inseq_kernel::{
    node_permutations, ActionSemantics, Config, GlobalStore, Map, Multiset, PendingAsync, Program,
    SymmetrySpec, Value,
};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, Expr, GlobalDecls, Sort, Stmt};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof};
use crate::paxos_impl::ImplArtifacts;

/// Schedule positions doubling as ghost tags.
const TAG_START: i64 = 0;
/// `Join` tag/position.
const TAG_JOIN: i64 = 1;
/// `Propose` tag/position.
const TAG_PROPOSE: i64 = 2;
/// `Vote` tag/position.
const TAG_VOTE: i64 = 3;
/// `Conclude` tag/position.
const TAG_CONCLUDE: i64 = 4;

/// A finite instance: number of rounds and acceptors.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Number of rounds `R`.
    pub rounds: i64,
    /// Number of acceptor nodes `N`.
    pub nodes: i64,
}

impl Instance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics for fewer than one round or two nodes.
    #[must_use]
    pub fn new(rounds: i64, nodes: i64) -> Self {
        assert!(rounds >= 1 && nodes >= 2, "need ≥1 round and ≥2 nodes");
        Instance { rounds, nodes }
    }

    /// The quorum size `⌊N/2⌋ + 1`.
    #[must_use]
    pub fn quorum(&self) -> i64 {
        self.nodes / 2 + 1
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// The atomic-action program (Fig. 4(b)).
    pub p2: Program,
    /// `StartRound(r)`.
    pub start_round: Arc<DslAction>,
    /// `Join(r, n)`.
    pub join: Arc<DslAction>,
    /// `Propose(r)`.
    pub propose: Arc<DslAction>,
    /// `Vote(r, n, v)`.
    pub vote: Arc<DslAction>,
    /// `Conclude(r, v)`.
    pub conclude: Arc<DslAction>,
    /// `Main` (the paper's `Paxos()`).
    pub main: Arc<DslAction>,
    /// One complete sequential round (helper inlined by `Inv`/`Main'`).
    pub round_seq: Arc<DslAction>,
    /// The sequentialization `Paxos'` in executable form: rounds run one
    /// after another.
    pub main_seq: Arc<DslAction>,
    /// The invariant action `PaxosInv`.
    pub inv: Arc<DslAction>,
    /// `StartRoundAbs` (Fig. 4(c) pattern).
    pub start_round_abs: Arc<DslAction>,
    /// `JoinAbs`.
    pub join_abs: Arc<DslAction>,
    /// `ProposeAbs` (Fig. 4(c)).
    pub propose_abs: Arc<DslAction>,
    /// `VoteAbs`.
    pub vote_abs: Arc<DslAction>,
    /// `ConcludeAbs`.
    pub conclude_abs: Arc<DslAction>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![
            self.start_round.clone(),
            self.join.clone(),
            self.propose.clone(),
            self.vote.clone(),
            self.conclude.clone(),
            self.main.clone(),
        ]
    }
}

const GHOST: &str = "pendingAsyncs";

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("R", Sort::Int);
    g.declare("N", Sort::Int);
    g.declare("quorum", Sort::Int);
    // joinedNodes: Round -> Set<Node>
    g.declare("joinedNodes", Sort::map(Sort::Int, Sort::set(Sort::Int)));
    // voteInfo: Round -> Option<(Value, Set<Node>)>
    g.declare(
        "voteInfo",
        Sort::map(
            Sort::Int,
            Sort::opt(Sort::Tuple(vec![Sort::Int, Sort::set(Sort::Int)])),
        ),
    );
    // decision: Round -> Option<Value>
    g.declare("decision", Sort::map(Sort::Int, Sort::opt(Sort::Int)));
    // pendingAsyncs: Bag<(tag, round, node)> — Fig. 4(b)'s ghost variable.
    g.declare(
        GHOST,
        Sort::bag(Sort::Tuple(vec![Sort::Int, Sort::Int, Sort::Int])),
    );
    Arc::new(g)
}

/// Ghost entry `(tag, r, n)`.
fn entry(tag: i64, r: Expr, n: Expr) -> Expr {
    tuple(vec![int(tag), r, n])
}

fn ghost_add(tag: i64, r: Expr, n: Expr) -> Stmt {
    assign(GHOST, with_elem(var(GHOST), entry(tag, r, n)))
}

fn ghost_consume(tag: i64, r: Expr, n: Expr) -> Stmt {
    assign(GHOST, without_elem(var(GHOST), entry(tag, r, n)))
}

/// `n` is committed to round `rp` (joined or voted there).
fn committed(n: Expr, rp: Expr) -> Expr {
    or(
        contains(get(var("joinedNodes"), rp.clone()), n.clone()),
        and(
            is_some(get(var("voteInfo"), rp.clone())),
            contains(proj(unwrap(get(var("voteInfo"), rp)), 1), n),
        ),
    )
}

/// `n`'s promise allows acting at round `r`: no commitment at any strictly
/// higher round (`maxRound(n) ≤ r`).
fn free_above(n: Expr, r: Expr) -> Expr {
    forall(
        "fr",
        range(add(r, int(1)), var("R")),
        not(committed(n, var("fr"))),
    )
}

/// Fig. 4(c) gate: no pending async strictly earlier than `(r, pos)` in the
/// round-major schedule order.
fn no_earlier_pending(r: Expr, pos: i64) -> Expr {
    forall(
        "ge",
        var(GHOST),
        not(or(
            lt(proj(var("ge"), 1), r.clone()),
            and(eq(proj(var("ge"), 1), r), lt(proj(var("ge"), 0), int(pos))),
        )),
    )
}

/// The statements realizing one *proposal* (quorum subset choice + value
/// selection), shared by `Propose`, `RoundSeq` and `Inv`. On success sets
/// `voteInfo[r] := Some((v, ∅))` and `proposed := true` (locals `ns : Set`,
/// `v`, `found`, `b`, `pn`, `rp`, `proposed : Bool` must be declared).
fn proposal_stmts(r: Expr) -> Vec<Stmt> {
    vec![
        assign("proposed", boolean(false)),
        choose("b", range(int(0), int(1))),
        if_(
            eq(var("b"), int(1)),
            vec![
                // Choose the received join quorum ns ⊆ joinedNodes[r].
                assign("ns", lit(Value::empty_set())),
                for_range(
                    "pn",
                    int(1),
                    var("N"),
                    vec![if_(
                        contains(get(var("joinedNodes"), r.clone()), var("pn")),
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
                        // Value selection: the vote of the highest round r' < r in
                        // which a member of ns voted; otherwise fresh (= r).
                        assign("found", boolean(false)),
                        assign("v", int(0)),
                        for_range(
                            "rp",
                            int(1),
                            sub(r.clone(), int(1)),
                            vec![if_(
                                and(
                                    is_some(get(var("voteInfo"), var("rp"))),
                                    exists(
                                        "qn",
                                        var("ns"),
                                        contains(
                                            proj(unwrap(get(var("voteInfo"), var("rp"))), 1),
                                            var("qn"),
                                        ),
                                    ),
                                ),
                                vec![
                                    assign("found", boolean(true)),
                                    assign("v", proj(unwrap(get(var("voteInfo"), var("rp"))), 0)),
                                ],
                            )],
                        ),
                        if_(not(var("found")), vec![assign("v", r.clone())]),
                        assign_at(
                            "voteInfo",
                            r,
                            some(tuple(vec![var("v"), lit(Value::empty_set())])),
                        ),
                        assign("proposed", boolean(true)),
                    ],
                ),
            ],
        ),
    ]
}

/// The effect of one vote `(r, n)` with nondeterministic drop, shared by
/// `Vote` (atomic action) and the sequential prefixes. The proposed value is
/// read from `voteInfo[r]`; requires local `b`.
fn vote_effect(r: Expr, n: Expr) -> Vec<Stmt> {
    vec![
        choose("b", range(int(0), int(1))),
        if_(
            and(eq(var("b"), int(1)), free_above(n.clone(), r.clone())),
            vec![assign_at(
                "voteInfo",
                r.clone(),
                some(tuple(vec![
                    proj(unwrap(get(var("voteInfo"), r.clone())), 0),
                    with_elem(proj(unwrap(get(var("voteInfo"), r)), 1), n),
                ])),
            )],
        ),
    ]
}

/// The effect of one join `(r, n)` with nondeterministic drop; requires
/// local `b`.
fn join_effect(r: Expr, n: Expr) -> Vec<Stmt> {
    vec![
        choose("b", range(int(0), int(1))),
        if_(
            and(
                eq(var("b"), int(1)),
                forall(
                    "fr",
                    range(r.clone(), var("R")),
                    not(committed(n.clone(), var("fr"))),
                ),
            ),
            vec![assign_at(
                "joinedNodes",
                r.clone(),
                with_elem(get(var("joinedNodes"), r), n),
            )],
        ),
    ]
}

/// The conclude effect: decide if a vote quorum exists; requires local `b`.
fn conclude_effect(r: Expr, v: Expr) -> Vec<Stmt> {
    vec![
        choose("b", range(int(0), int(1))),
        if_(
            and(
                eq(var("b"), int(1)),
                and(
                    is_some(get(var("voteInfo"), r.clone())),
                    ge(
                        size(proj(unwrap(get(var("voteInfo"), r.clone())), 1)),
                        var("quorum"),
                    ),
                ),
            ),
            vec![assign_at("decision", r, some(v))],
        ),
    ]
}

/// Builds all programs and artifacts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> Artifacts {
    let g = decls();

    // ----- P2: the atomic actions of Fig. 4(b) -----

    let conclude = {
        let mut body = vec![ghost_consume(TAG_CONCLUDE, var("r"), int(0))];
        body.extend(conclude_effect(var("r"), var("v")));
        DslAction::build("Conclude", &g)
            .param("r", Sort::Int)
            .param("v", Sort::Int)
            .local("b", Sort::Int)
            .body(body)
            .finish()
            .expect("Conclude type-checks")
    };

    let vote = {
        let mut body = vec![ghost_consume(TAG_VOTE, var("r"), var("n"))];
        body.extend(vote_effect(var("r"), var("n")));
        DslAction::build("Vote", &g)
            .param("r", Sort::Int)
            .param("n", Sort::Int)
            .param("v", Sort::Int)
            .local("b", Sort::Int)
            .body(body)
            .finish()
            .expect("Vote type-checks")
    };

    let join = {
        let mut body = vec![ghost_consume(TAG_JOIN, var("r"), var("n"))];
        body.extend(join_effect(var("r"), var("n")));
        DslAction::build("Join", &g)
            .param("r", Sort::Int)
            .param("n", Sort::Int)
            .local("b", Sort::Int)
            .body(body)
            .finish()
            .expect("Join type-checks")
    };

    let propose = {
        let mut body = vec![ghost_consume(TAG_PROPOSE, var("r"), int(0))];
        body.extend(proposal_stmts(var("r")));
        body.push(if_(
            var("proposed"),
            vec![
                for_range(
                    "pn",
                    int(1),
                    var("N"),
                    vec![
                        ghost_add(TAG_VOTE, var("r"), var("pn")),
                        async_named(
                            "Vote",
                            vec![Sort::Int, Sort::Int, Sort::Int],
                            vec![var("r"), var("pn"), var("v")],
                        ),
                    ],
                ),
                ghost_add(TAG_CONCLUDE, var("r"), int(0)),
                async_call(&conclude, vec![var("r"), var("v")]),
            ],
        ));
        DslAction::build("Propose", &g)
            .param("r", Sort::Int)
            .local("ns", Sort::set(Sort::Int))
            .local("v", Sort::Int)
            .local("found", Sort::Bool)
            .local("b", Sort::Int)
            .local("pn", Sort::Int)
            .local("rp", Sort::Int)
            .local("proposed", Sort::Bool)
            .body(body)
            .finish()
            .expect("Propose type-checks")
    };

    let start_round = DslAction::build("StartRound", &g)
        .param("r", Sort::Int)
        .local("n", Sort::Int)
        .body(vec![
            ghost_consume(TAG_START, var("r"), int(0)),
            for_range(
                "n",
                int(1),
                var("N"),
                vec![
                    ghost_add(TAG_JOIN, var("r"), var("n")),
                    async_call(&join, vec![var("r"), var("n")]),
                ],
            ),
            ghost_add(TAG_PROPOSE, var("r"), int(0)),
            async_call(&propose, vec![var("r")]),
        ])
        .finish()
        .expect("StartRound type-checks");

    let main = DslAction::build("Main", &g)
        .local("r", Sort::Int)
        .body(vec![for_range(
            "r",
            int(1),
            var("R"),
            vec![
                ghost_add(TAG_START, var("r"), int(0)),
                async_call(&start_round, vec![var("r")]),
            ],
        )])
        .finish()
        .expect("Main type-checks");

    // ----- One complete sequential round (direct effects, no spawns) -----
    let round_seq = {
        let mut body = Vec::new();
        // Joins in acceptor order (each may be dropped).
        body.push(for_range(
            "n",
            int(1),
            var("N"),
            join_effect(var("r"), var("n")),
        ));
        // Proposal; on success, votes in acceptor order and the conclusion.
        body.extend(proposal_stmts(var("r")));
        body.push(if_(var("proposed"), {
            let mut inner = vec![for_range(
                "n",
                int(1),
                var("N"),
                vote_effect(var("r"), var("n")),
            )];
            inner.extend(conclude_effect(
                var("r"),
                proj(unwrap(get(var("voteInfo"), var("r"))), 0),
            ));
            inner
        }));
        DslAction::build("RoundSeq", &g)
            .param("r", Sort::Int)
            .local("n", Sort::Int)
            .local("ns", Sort::set(Sort::Int))
            .local("v", Sort::Int)
            .local("found", Sort::Bool)
            .local("b", Sort::Int)
            .local("pn", Sort::Int)
            .local("rp", Sort::Int)
            .local("proposed", Sort::Bool)
            .body(body)
            .finish()
            .expect("RoundSeq type-checks")
    };

    // Main' (the executable `Paxos'`): rounds run back to back.
    let main_seq = DslAction::build("MainSeq", &g)
        .local("r", Sort::Int)
        .body(vec![for_range(
            "r",
            int(1),
            var("R"),
            vec![call(&round_seq, vec![var("r")])],
        )])
        .finish()
        .expect("Main' type-checks");

    // ----- PaxosInv: rounds 1..k-1 complete, round k at stage s -----
    // Stages of round k: 0 = StartRound pending; 1..=N+1 ⇒ s-1 joins
    // processed, the rest plus Propose pending; N+2..=2N+2 ⇒ proposal
    // succeeded with u = s-N-2 votes processed.
    let inv = {
        let mut body = vec![choose("k", range(int(1), add(var("R"), int(1))))];
        // Future rounds: StartRound PAs.
        body.push(for_range(
            "fr2",
            add(var("k"), int(1)),
            var("R"),
            vec![
                ghost_add(TAG_START, var("fr2"), int(0)),
                async_call(&start_round, vec![var("fr2")]),
            ],
        ));
        // Completed rounds.
        body.push(for_range(
            "cr",
            int(1),
            sub(var("k"), int(1)),
            vec![call(&round_seq, vec![var("cr")])],
        ));
        // Partial round k.
        body.push(if_(
            le(var("k"), var("R")),
            vec![
                choose("s", range(int(0), add(mul(int(2), var("N")), int(2)))),
                if_else(
                    eq(var("s"), int(0)),
                    vec![
                        ghost_add(TAG_START, var("k"), int(0)),
                        async_call(&start_round, vec![var("k")]),
                    ],
                    vec![if_else(
                        le(var("s"), add(var("N"), int(1))),
                        vec![
                            // s-1 joins processed; the rest + Propose pending.
                            for_range(
                                "n",
                                int(1),
                                sub(var("s"), int(1)),
                                join_effect(var("k"), var("n")),
                            ),
                            for_range(
                                "n",
                                var("s"),
                                var("N"),
                                vec![
                                    ghost_add(TAG_JOIN, var("k"), var("n")),
                                    async_call(&join, vec![var("k"), var("n")]),
                                ],
                            ),
                            ghost_add(TAG_PROPOSE, var("k"), int(0)),
                            async_call(&propose, vec![var("k")]),
                        ],
                        {
                            // All joins processed; the proposal succeeded; u
                            // votes processed.
                            let mut branch = vec![for_range(
                                "n",
                                int(1),
                                var("N"),
                                join_effect(var("k"), var("n")),
                            )];
                            branch.extend(proposal_stmts(var("k")));
                            branch.push(assume(var("proposed")));
                            branch.push(assign("u", sub(var("s"), add(var("N"), int(2)))));
                            branch.push(for_range(
                                "n",
                                int(1),
                                var("u"),
                                vote_effect(var("k"), var("n")),
                            ));
                            branch.push(for_range(
                                "n",
                                add(var("u"), int(1)),
                                var("N"),
                                vec![
                                    ghost_add(TAG_VOTE, var("k"), var("n")),
                                    async_named(
                                        "Vote",
                                        vec![Sort::Int, Sort::Int, Sort::Int],
                                        vec![
                                            var("k"),
                                            var("n"),
                                            proj(unwrap(get(var("voteInfo"), var("k"))), 0),
                                        ],
                                    ),
                                ],
                            ));
                            branch.push(ghost_add(TAG_CONCLUDE, var("k"), int(0)));
                            branch.push(async_call(
                                &conclude,
                                vec![var("k"), proj(unwrap(get(var("voteInfo"), var("k"))), 0)],
                            ));
                            branch
                        },
                    )],
                ),
            ],
        ));
        DslAction::build("PaxosInv", &g)
            .local("k", Sort::Int)
            .local("s", Sort::Int)
            .local("u", Sort::Int)
            .local("n", Sort::Int)
            .local("cr", Sort::Int)
            .local("fr2", Sort::Int)
            .local("ns", Sort::set(Sort::Int))
            .local("v", Sort::Int)
            .local("found", Sort::Bool)
            .local("b", Sort::Int)
            .local("pn", Sort::Int)
            .local("rp", Sort::Int)
            .local("proposed", Sort::Bool)
            .body(body)
            .finish()
            .expect("PaxosInv type-checks")
    };

    // ----- Abstractions (Fig. 4(c) pattern) -----
    let gate_abs = |name: &str,
                    params: &[(&str, Sort)],
                    pos: i64,
                    callee: &Arc<DslAction>,
                    args: Vec<Expr>| {
        let mut b = DslAction::build(name, &g);
        for (p, s) in params {
            b = b.param(*p, s.clone());
        }
        b.body(vec![
            assert_msg(
                no_earlier_pending(var("r"), pos),
                "abstraction gate: an earlier-scheduled pending async remains",
            ),
            call(callee, args),
        ])
        .finish()
        .unwrap_or_else(|e| panic!("{name} type-checks: {e}"))
    };
    let start_round_abs = gate_abs(
        "StartRoundAbs",
        &[("r", Sort::Int)],
        TAG_START,
        &start_round,
        vec![var("r")],
    );
    let join_abs = gate_abs(
        "JoinAbs",
        &[("r", Sort::Int), ("n", Sort::Int)],
        TAG_JOIN,
        &join,
        vec![var("r"), var("n")],
    );
    let propose_abs = gate_abs(
        "ProposeAbs",
        &[("r", Sort::Int)],
        TAG_PROPOSE,
        &propose,
        vec![var("r")],
    );
    let vote_abs = gate_abs(
        "VoteAbs",
        &[("r", Sort::Int), ("n", Sort::Int), ("v", Sort::Int)],
        TAG_VOTE,
        &vote,
        vec![var("r"), var("n"), var("v")],
    );
    let conclude_abs = gate_abs(
        "ConcludeAbs",
        &[("r", Sort::Int), ("v", Sort::Int)],
        TAG_CONCLUDE,
        &conclude,
        vec![var("r"), var("v")],
    );

    let p2 = program_of(
        &g,
        [
            Arc::clone(&start_round),
            Arc::clone(&join),
            Arc::clone(&propose),
            Arc::clone(&vote),
            Arc::clone(&conclude),
            Arc::clone(&main),
        ],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p2,
        start_round,
        join,
        propose,
        vote,
        conclude,
        main,
        round_seq,
        main_seq,
        inv,
        start_round_abs,
        join_abs,
        propose_abs,
        vote_abs,
        conclude_abs,
    }
}

/// The initial store: `R`, `N`, `quorum` set; everything else empty.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("R").unwrap(), Value::Int(instance.rounds));
    store.set(g.index_of("N").unwrap(), Value::Int(instance.nodes));
    store.set(g.index_of("quorum").unwrap(), Value::Int(instance.quorum()));
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
/// for exploration engines, with the acceptor-id symmetry group attached.
#[must_use]
pub fn exploration_case(instance: Instance) -> ExplorationCase {
    let artifacts = build();
    let label = format!("R = {}, N = {}", instance.rounds, instance.nodes);
    let init = init_config(&artifacts.p2, &artifacts, instance);
    let spec = symmetry_spec(&artifacts, instance);
    ExplorationCase::new("Paxos", label, artifacts.p2, init).with_symmetry(spec)
}

/// The image of a node id under `perm` (ids outside `1..=N` are fixed).
fn node_image(node: i64, perm: &[i64]) -> i64 {
    usize::try_from(node)
        .ok()
        .and_then(|i| i.checked_sub(1))
        .and_then(|i| perm.get(i))
        .copied()
        .unwrap_or(node)
}

/// Permutes every element of a `Set<Int>` of node ids.
fn permute_node_set(v: &Value, perm: &[i64]) -> Value {
    match v {
        Value::Set(s) => Value::set(
            s.iter()
                .map(|e| Value::Int(node_image(e.as_int(), perm)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Rebuilds a `Map` by transforming every explicit entry's value.
fn permute_map_values(m: &Map, f: impl Fn(&Value) -> Value) -> Map {
    let mut next = Map::new(m.default_value().clone());
    for (k, v) in m.iter() {
        next.set_in_place(k.clone(), f(v));
    }
    next
}

/// The acceptor-id symmetry group of an instance: all permutations of the
/// node ids `1..=N`.
///
/// A permutation acts on exactly the store and pending-async positions that
/// hold node ids — the per-round quorum sets of `joinedNodes`, the quorum
/// set inside each `voteInfo` entry, the third slot of ghost
/// `pendingAsyncs` entries tagged `TAG_JOIN`/`TAG_VOTE` (the other tags
/// carry a literal `0` there), and the `n` argument of pending `Join`/
/// `Vote` asyncs. Rounds and proposed values are left fixed: proposed
/// values are round numbers by construction (fresh proposals use the round
/// number, and value selection only copies earlier proposals), so no value
/// position ever holds a node id. Swapping two acceptors therefore maps
/// reachable configurations to reachable configurations and preserves the
/// `Paxos'` verdict, which is what `--reduce sym` relies on.
#[must_use]
pub fn symmetry_spec(artifacts: &Artifacts, instance: Instance) -> SymmetrySpec {
    let g = &artifacts.decls;
    let joined_idx = g.index_of("joinedNodes").unwrap();
    let vote_idx = g.index_of("voteInfo").unwrap();
    let ghost_idx = g.index_of(GHOST).unwrap();
    let permute_store = Arc::new(move |store: &GlobalStore, perm: &[i64]| {
        let mut next = store.clone();
        let joined = store.get(joined_idx).as_map();
        next.set(
            joined_idx,
            Value::map(permute_map_values(joined, |v| permute_node_set(v, perm))),
        );
        let votes = store.get(vote_idx).as_map();
        next.set(
            vote_idx,
            Value::map(permute_map_values(votes, |v| match v {
                Value::Opt(Some(t)) => match &**t {
                    Value::Tuple(parts) if parts.len() == 2 => Value::some(Value::tuple(vec![
                        parts[0].clone(),
                        permute_node_set(&parts[1], perm),
                    ])),
                    other => Value::some(other.clone()),
                },
                other => other.clone(),
            })),
        );
        if let Value::Bag(entries) = store.get(ghost_idx) {
            let mut bag = Multiset::new();
            for (e, count) in entries.iter_counts() {
                let permuted = match e {
                    Value::Tuple(parts)
                        if parts.len() == 3 && matches!(parts[0].as_int(), TAG_JOIN | TAG_VOTE) =>
                    {
                        Value::tuple(vec![
                            parts[0].clone(),
                            parts[1].clone(),
                            Value::Int(node_image(parts[2].as_int(), perm)),
                        ])
                    }
                    other => other.clone(),
                };
                bag.insert_n(permuted, count);
            }
            next.set(ghost_idx, Value::bag(bag));
        }
        next
    });
    let permute_pa = Arc::new(|pa: &PendingAsync, perm: &[i64]| match pa.action.as_str() {
        "Join" | "Vote" => {
            let mut args = pa.args.clone();
            args[1] = Value::Int(node_image(args[1].as_int(), perm));
            PendingAsync::new(pa.action.clone(), args)
        }
        _ => pa.clone(),
    });
    SymmetrySpec::new(node_permutations(instance.nodes), permute_store, permute_pa)
}

/// The `Paxos'` property: no two rounds decide different values.
pub fn spec(artifacts: &Artifacts, instance: Instance) -> impl Fn(&GlobalStore) -> bool {
    let dec_idx = artifacts.decls.index_of("decision").unwrap();
    let r = instance.rounds;
    move |store: &GlobalStore| {
        let decision = store.get(dec_idx).as_map();
        let decided: Vec<&Value> = (1..=r)
            .filter_map(|round| match decision.get(&Value::Int(round)) {
                Value::Opt(Some(v)) => Some(&**v),
                _ => None,
            })
            .collect();
        decided.windows(2).all(|w| w[0] == w[1])
    }
}

/// Schedule position of a PA: round-major, then phase, then acceptor.
fn position(pa: &PendingAsync) -> (i64, i64, i64) {
    let r = pa.args.first().map_or(i64::MAX, Value::as_int);
    match pa.action.as_str() {
        "StartRound" => (r, TAG_START, 0),
        "Join" => (r, TAG_JOIN, pa.args[1].as_int()),
        "Propose" => (r, TAG_PROPOSE, 0),
        "Vote" => (r, TAG_VOTE, pa.args[1].as_int()),
        "Conclude" => (r, TAG_CONCLUDE, 0),
        _ => (i64::MAX, i64::MAX, 0),
    }
}

/// Cooperation weights: each task outweighs the sum of the tasks it spawns.
fn weight(pa: &PendingAsync, n: i64) -> u64 {
    let w = match pa.action.as_str() {
        "Join" | "Vote" | "Conclude" => 1,
        "Propose" => n + 2,        // spawns N votes + conclude (= N + 1)
        "StartRound" => 2 * n + 4, // spawns N joins + propose (= N + N + 2)
        _ => 0,
    };
    u64::try_from(w).unwrap_or(0)
}

/// The single IS application of the paper's Paxos proof (`#IS = 1`).
#[must_use]
pub fn application(artifacts: &Artifacts, instance: Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let n = instance.nodes;
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("StartRound")
        .eliminate("Join")
        .eliminate("Propose")
        .eliminate("Vote")
        .eliminate("Conclude")
        .invariant(Arc::clone(&artifacts.inv) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "StartRound",
            Arc::clone(&artifacts.start_round_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Join",
            Arc::clone(&artifacts.join_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Propose",
            Arc::clone(&artifacts.propose_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Vote",
            Arc::clone(&artifacts.vote_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Conclude",
            Arc::clone(&artifacts.conclude_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| t.created.distinct().min_by_key(|pa| position(pa)).cloned())
        .measure(Measure::lexicographic(
            "Σ task-weights",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega.iter().map(|pa| weight(pa, n)).sum()]
            },
        ))
        .instance(init)
}

/// The Table-1 proof of an instance as data for [`Proof::run`]:
/// [`crate::paxos_impl::refinement`], the IS application, `P2 ≼ P'`, and
/// the spec on `P'` and `P2`.
#[must_use]
pub fn proof<'a>(
    artifacts: &'a Artifacts,
    impl_artifacts: &'a ImplArtifacts,
    instance: Instance,
) -> Proof<'a> {
    let mut loc = LocCounter::new();
    loc.impl_actions([
        &artifacts.start_round,
        &artifacts.join,
        &artifacts.propose,
        &artifacts.vote,
        &artifacts.conclude,
        &artifacts.main,
    ]);
    loc.impl_actions(impl_artifacts.p1_actions.iter());
    loc.is_actions([
        &artifacts.round_seq,
        &artifacts.main_seq,
        &artifacts.inv,
        &artifacts.start_round_abs,
        &artifacts.join_abs,
        &artifacts.propose_abs,
        &artifacts.vote_abs,
        &artifacts.conclude_abs,
    ]);
    Proof {
        name: "Paxos",
        instance: format!("R = {}, N = {}", instance.rounds, instance.nodes),
        loc,
        budget: 8_000_000,
        refinement: crate::paxos_impl::refinement(impl_artifacts, artifacts, instance),
        p2: &artifacts.p2,
        init: init_config(&artifacts.p2, artifacts, instance),
        chain: IsChain::new().then(application(artifacts, instance)),
        spec: Box::new(spec(artifacts, instance)),
    }
}

/// Runs the full pipeline and produces the Table 1 row.
///
/// The Paxos `P1 ≼ P2` step is refinement **up to observation** (the
/// decision map): the paper hides `acceptorState`/`joinChannel`/
/// `voteChannel` behind the abstract variables with CIVL's layer machinery;
/// our analogue lives in [`crate::paxos_impl`] (see EXPERIMENTS.md).
///
/// # Errors
///
/// Returns the first failing pipeline stage.
pub fn verify(instance: Instance) -> Result<CaseReport, CaseError> {
    proof(&build(), &crate::paxos_impl::build(), instance).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_spec;

    #[test]
    fn sequentialized_paxos_satisfies_agreement() {
        let instance = Instance::new(2, 2);
        let artifacts = build();
        let p_prime = artifacts.p2.with_action(
            "Main",
            Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>,
        );
        let init = init_config(&p_prime, &artifacts, instance);
        check_spec(&p_prime, init, 2_000_000, spec(&artifacts, instance)).unwrap();
    }

    #[test]
    fn p2_satisfies_agreement_directly_small() {
        let instance = Instance::new(2, 2);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, instance);
        check_spec(&artifacts.p2, init, 4_000_000, spec(&artifacts, instance)).unwrap();
    }

    #[test]
    fn decisions_are_actually_reachable() {
        // Sanity against vacuous agreement: some execution decides.
        let instance = Instance::new(1, 2);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, instance);
        let exp = inseq_kernel::Explorer::new(&artifacts.p2)
            .explore([init])
            .unwrap();
        let dec_idx = artifacts.decls.index_of("decision").unwrap();
        assert!(exp.terminal_stores().any(|s| {
            s.get(dec_idx).as_map().get(&Value::Int(1)) == &Value::some(Value::Int(1))
        }));
    }

    #[test]
    fn is_application_passes_r2_n2() {
        let instance = Instance::new(2, 2);
        let artifacts = build();
        let report = application(&artifacts, instance)
            .check()
            .expect("IS premises hold");
        assert_eq!(report.eliminated_actions, 5);
        assert!(report.induction_steps > 0);
    }

    #[test]
    fn verify_produces_table1_row() {
        let instance = Instance::new(2, 2);
        let row = verify(instance).expect("pipeline passes");
        assert_eq!(row.is_applications, 1, "Table 1 reports #IS = 1");
    }
}
