//! The paper's invariant (2): the flat inductive invariant for broadcast
//! consensus, written out in full over a ghost-free version of the
//! atomic-action program.
//!
//! Compare its three-disjunct shape — every disjunct describing a *family*
//! of intermediate states of arbitrary interleavings — with the IS
//! artifacts in `inseq_protocols::broadcast`, which only ever describe
//! prefixes of one fixed schedule. This module is the §5.2 "Invariant
//! complexity" baseline for the running example.
//!
//! The subset quantification `∃D ⊆ [1,n]` of the paper's formula is encoded
//! by observing that `D` is determined by the pending-async multiset
//! (`i ∈ D` iff `Broadcast(i)` is no longer pending), so per-node atoms over
//! [`inseq_vc::Term::PendingCount`] replace the set quantifier. Instances
//! must use **distinct input values** so that channel contents determine the
//! sender multiplicities (see `DESIGN.md`).

use std::sync::Arc;

use inseq_kernel::{Config, GlobalStore, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};
use inseq_vc::{Formula, Term};

use crate::FlatInvariant;

/// A ghost-free build of the broadcast consensus atomic program (Fig. 1-②),
/// as the baseline verifies the *original* program without proof
/// instrumentation.
#[derive(Debug, Clone)]
pub struct FlatArtifacts {
    /// Global declarations (`n`, `value`, `decision`, `CH`).
    pub decls: Arc<GlobalDecls>,
    /// The atomic-action program.
    pub p2: Program,
}

/// Builds the ghost-free broadcast program.
#[must_use]
pub fn build() -> FlatArtifacts {
    let mut decls = GlobalDecls::new();
    decls.declare("n", Sort::Int);
    decls.declare("value", Sort::map(Sort::Int, Sort::Int));
    decls.declare("decision", Sort::map(Sort::Int, Sort::opt(Sort::Int)));
    decls.declare("CH", Sort::map(Sort::Int, Sort::bag(Sort::Int)));
    let g = Arc::new(decls);

    let broadcast = DslAction::build("Broadcast", &g)
        .param("i", Sort::Int)
        .local("j", Sort::Int)
        .body(vec![for_range(
            "j",
            int(1),
            var("n"),
            vec![send_to("CH", var("j"), get(var("value"), var("i")))],
        )])
        .finish()
        .expect("Broadcast type-checks");
    let collect = DslAction::build("Collect", &g)
        .param("i", Sort::Int)
        .local("j", Sort::Int)
        .local("v", Sort::Int)
        .local("got", Sort::bag(Sort::Int))
        .body(vec![
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
    let main = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![for_range(
            "i",
            int(1),
            var("n"),
            vec![
                async_call(&broadcast, vec![var("i")]),
                async_call(&collect, vec![var("i")]),
            ],
        )])
        .finish()
        .expect("Main type-checks");

    let p2 = program_of(&g, [broadcast, collect, main], "Main").expect("P2 is well-formed");
    FlatArtifacts { decls: g, p2 }
}

/// The initialized configuration for input values (must be distinct).
///
/// # Panics
///
/// Panics when values repeat (the encoding requires distinct inputs) or the
/// store does not match the schema.
#[must_use]
pub fn init_config(artifacts: &FlatArtifacts, values: &[i64]) -> Config {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), values.len(), "input values must be distinct");
    let g = &artifacts.decls;
    let mut store: GlobalStore = g.initial_store();
    store.set(g.index_of("n").unwrap(), Value::Int(values.len() as i64));
    let mut vmap = inseq_kernel::Map::new(Value::Int(0));
    for (idx, v) in values.iter().enumerate() {
        vmap.set_in_place(Value::Int(idx as i64 + 1), Value::Int(*v));
    }
    store.set(g.index_of("value").unwrap(), Value::map(vmap));
    artifacts
        .p2
        .initial_config_with(store, vec![])
        .expect("store matches schema")
}

fn n() -> Term {
    Term::global("n")
}

fn value_at(i: &str) -> Term {
    Term::map_at(Term::global("value"), Term::bound(i))
}

fn decision_at(i: &str) -> Term {
    Term::map_at(Term::global("decision"), Term::bound(i))
}

fn channel(i: &str) -> Term {
    Term::map_at(Term::global("CH"), Term::bound(i))
}

fn broadcast_pending(i: &str) -> Term {
    Term::pending_count("Broadcast", vec![Term::bound(i)])
}

fn collect_pending(i: &str) -> Term {
    Term::pending_count("Collect", vec![Term::bound(i)])
}

/// `decision[i] = Some(max value)` spelled without a max operator.
fn decided_max(i: &str) -> Formula {
    Formula::And(vec![
        Formula::IsSome(decision_at(i)),
        Formula::forall(
            "mk",
            Term::int(1),
            n(),
            Formula::le(
                Term::map_at(Term::global("value"), Term::bound("mk")),
                Term::Unwrap(Box::new(decision_at(i))),
            ),
        ),
        Formula::exists(
            "mk",
            Term::int(1),
            n(),
            Formula::eq(
                Term::map_at(Term::global("value"), Term::bound("mk")),
                Term::Unwrap(Box::new(decision_at(i))),
            ),
        ),
    ])
}

/// The paper's invariant (2), in configuration logic.
#[must_use]
pub fn invariant() -> FlatInvariant {
    // Disjunct 1: Ω = {Main}, channels empty, nothing decided.
    let d1 = Formula::And(vec![
        Formula::eq(Term::pending_total("Main"), Term::int(1)),
        Formula::eq(Term::pending_total("Broadcast"), Term::int(0)),
        Formula::eq(Term::pending_total("Collect"), Term::int(0)),
        Formula::forall(
            "i",
            Term::int(1),
            n(),
            Formula::And(vec![
                Formula::eq(Term::size_of(channel("i")), Term::int(0)),
                Formula::not(Formula::IsSome(decision_at("i"))),
            ]),
        ),
    ]);

    // Disjunct 2: some subset D of nodes broadcast; every channel holds
    // exactly {value[j] | j ∈ D}; all Collects pending; nothing decided.
    let d2 = Formula::And(vec![
        Formula::eq(Term::pending_total("Main"), Term::int(0)),
        Formula::forall(
            "i",
            Term::int(1),
            n(),
            Formula::And(vec![
                Formula::le(broadcast_pending("i"), Term::int(1)),
                Formula::eq(collect_pending("i"), Term::int(1)),
                Formula::not(Formula::IsSome(decision_at("i"))),
                Formula::eq(
                    Term::size_of(channel("i")),
                    Term::sub(n(), Term::pending_total("Broadcast")),
                ),
                Formula::forall(
                    "j",
                    Term::int(1),
                    n(),
                    Formula::eq(
                        Term::count_in(channel("i"), value_at("j")),
                        Term::sub(Term::int(1), broadcast_pending("j")),
                    ),
                ),
            ]),
        ),
    ]);

    // Disjunct 3: all broadcasts done; a subset of nodes collected and
    // decided the maximum; the rest still see full channels.
    let d3 = Formula::And(vec![
        Formula::eq(Term::pending_total("Main"), Term::int(0)),
        Formula::eq(Term::pending_total("Broadcast"), Term::int(0)),
        Formula::forall(
            "i",
            Term::int(1),
            n(),
            Formula::And(vec![
                Formula::le(collect_pending("i"), Term::int(1)),
                Formula::implies(
                    Formula::eq(collect_pending("i"), Term::int(1)),
                    Formula::And(vec![
                        Formula::not(Formula::IsSome(decision_at("i"))),
                        Formula::eq(Term::size_of(channel("i")), n()),
                        Formula::forall(
                            "j",
                            Term::int(1),
                            n(),
                            Formula::eq(Term::count_in(channel("i"), value_at("j")), Term::int(1)),
                        ),
                    ]),
                ),
                Formula::implies(
                    Formula::eq(collect_pending("i"), Term::int(0)),
                    Formula::And(vec![
                        decided_max("i"),
                        Formula::eq(Term::size_of(channel("i")), Term::int(0)),
                    ]),
                ),
            ]),
        ),
    ]);

    // Safety (property (1)): when all tasks have run, everyone decided the
    // same value.
    let terminal = Formula::And(vec![
        Formula::eq(Term::pending_total("Main"), Term::int(0)),
        Formula::eq(Term::pending_total("Broadcast"), Term::int(0)),
        Formula::eq(Term::pending_total("Collect"), Term::int(0)),
    ]);
    let agreement = Formula::forall(
        "i",
        Term::int(1),
        n(),
        Formula::forall(
            "j",
            Term::int(1),
            n(),
            Formula::And(vec![
                Formula::IsSome(decision_at("i")),
                Formula::eq(decision_at("i"), decision_at("j")),
            ]),
        ),
    );

    FlatInvariant {
        name: "broadcast consensus invariant (2)".into(),
        invariant: Formula::Or(vec![d1, d2, d3]),
        safety: Formula::implies(terminal, agreement),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_flat_invariant, FlatOptions};

    #[test]
    fn invariant_2_is_inductive_and_safe_n2() {
        let artifacts = build();
        let init = init_config(&artifacts, &[3, 1]);
        let report =
            check_flat_invariant(&artifacts.p2, init, &invariant(), FlatOptions::default())
                .expect("the paper's invariant (2) holds");
        assert!(report.configs_checked > 1);
        assert!(report.conjuncts >= 3 || report.complexity > 10);
    }

    #[test]
    fn invariant_2_is_inductive_and_safe_n3() {
        let artifacts = build();
        let init = init_config(&artifacts, &[2, 5, 4]);
        check_flat_invariant(&artifacts.p2, init, &invariant(), FlatOptions::default())
            .expect("the paper's invariant (2) holds");
    }

    #[test]
    fn weakened_invariant_is_rejected() {
        // Dropping the channel-content conjuncts (the "hard part" of the
        // invariant) breaks safety or consecution.
        let artifacts = build();
        let init = init_config(&artifacts, &[3, 1]);
        let weak = FlatInvariant {
            name: "trivial".into(),
            invariant: Formula::True,
            safety: invariant().safety,
        };
        let err = check_flat_invariant(&artifacts.p2, init, &weak, FlatOptions::default())
            .expect_err("True does not imply safety");
        assert!(matches!(err, crate::BaselineError::Safety { .. }));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn distinct_values_are_required() {
        let artifacts = build();
        let _ = init_config(&artifacts, &[3, 3]);
    }
}
