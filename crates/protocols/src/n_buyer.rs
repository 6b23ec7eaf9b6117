//! N-Buyer (adapted from role-parametric session types, §5.3 of the paper).
//!
//! `n` buyer processes coordinate the purchase of an item from a seller:
//! buyer 1 requests a quote, the seller responds with the price, the buyers
//! pledge individual contributions in turn, and if the pledged sum covers
//! the price an order is placed. The verified functional property: **if an
//! order is placed, the promised contributions add up to exactly the
//! price**. Table 1 reports `#IS = 4`; our proof uses a single application
//! over the handler encoding plus the explicit `P1 ≼ P2` step, and
//! EXPERIMENTS.md discusses the difference.
//!
//! The protocol stages are naturally sequential (a pipeline topology), but
//! the implementation is asynchronous: every message is a pending async and
//! the contribution round is driven by handlers racing with the seller's
//! bookkeeping.

use std::sync::Arc;

use inseq_core::{IsApplication, Measure};
use inseq_kernel::{ActionSemantics, Config, GlobalStore, Multiset, PendingAsync, Program, Value};
use inseq_lang::build::*;
use inseq_lang::{program_of, DslAction, GlobalDecls, Sort};

use crate::common::{CaseError, CaseReport, ExplorationCase, LocCounter, Proof, Refinement};

/// A finite instance: the item price and each buyer's maximum contribution.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Number of buyers.
    pub n: i64,
    /// Item price quoted by the seller.
    pub price: i64,
    /// `budgets[i-1]` is what buyer `i` pledges at most.
    pub budgets: Vec<i64>,
}

impl Instance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two buyers.
    #[must_use]
    pub fn new(price: i64, budgets: &[i64]) -> Self {
        assert!(budgets.len() >= 2, "need at least two buyers");
        Instance {
            n: budgets.len() as i64,
            price,
            budgets: budgets.to_vec(),
        }
    }
}

/// All programs and proof artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Shared global declarations.
    pub decls: Arc<GlobalDecls>,
    /// Fine-grained implementation.
    pub p1: Program,
    /// Atomic-action program.
    pub p2: Program,
    /// `RequestQuote`: buyer 1 asks the seller.
    pub request_quote: Arc<DslAction>,
    /// `Quote`: the seller publishes the price.
    pub quote: Arc<DslAction>,
    /// `Contribute(i)`: buyer `i` pledges `min(budget, remaining)`.
    pub contribute: Arc<DslAction>,
    /// `Order`: the seller places the order if the pledges cover the price.
    pub order: Arc<DslAction>,
    /// Atomic `Main`.
    pub main: Arc<DslAction>,
    /// The sequentialization.
    pub main_seq: Arc<DslAction>,
    /// The invariant action.
    pub inv: Arc<DslAction>,
    /// Left-mover abstraction of `Contribute`: quote already received and
    /// earlier buyers already pledged.
    pub contribute_abs: Arc<DslAction>,
    /// Left-mover abstraction of `Order`: all buyers pledged.
    pub order_abs: Arc<DslAction>,
    /// P1 actions (for the LOC metric).
    pub p1_actions: Vec<Arc<DslAction>>,
}

impl Artifacts {
    /// The `P2` actions as DSL values, handlers before `Main` — the order
    /// the fuzz corpus exporter requires (callees precede callers).
    #[must_use]
    pub fn p2_dsl_actions(&self) -> Vec<Arc<DslAction>> {
        vec![
            self.request_quote.clone(),
            self.quote.clone(),
            self.contribute.clone(),
            self.order.clone(),
            self.main.clone(),
        ]
    }
}

fn decls() -> Arc<GlobalDecls> {
    let mut g = GlobalDecls::new();
    g.declare("n", Sort::Int);
    g.declare("price", Sort::Int);
    g.declare("budget", Sort::map(Sort::Int, Sort::Int));
    // Protocol state.
    g.declare("quoted", Sort::Bool);
    g.declare("pledged", Sort::map(Sort::Int, Sort::opt(Sort::Int)));
    g.declare("ordered", Sort::Bool);
    g.declare("orderTotal", Sort::Int);
    Arc::new(g)
}

/// Statements accumulating the pledges of buyers `1..=hi` into `acc` (all of
/// them must have pledged). A loop rather than a set comprehension because
/// distinct buyers may pledge equal amounts.
fn pledged_sum_into(acc: &str, hi: inseq_lang::Expr) -> Vec<inseq_lang::Stmt> {
    vec![
        assign(acc, int(0)),
        for_range(
            "b",
            int(1),
            hi,
            vec![assign(
                acc,
                add(var(acc), unwrap(get(var("pledged"), var("b")))),
            )],
        ),
    ]
}

/// Builds all programs and artifacts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build() -> Artifacts {
    let g = decls();

    // Stage 1: buyer 1 requests a quote (spawns the seller's responder).
    let quote = DslAction::build("Quote", &g)
        .body(vec![assign("quoted", boolean(true))])
        .finish()
        .expect("Quote type-checks");
    let request_quote = DslAction::build("RequestQuote", &g)
        .body(vec![async_call(&quote, vec![])])
        .finish()
        .expect("RequestQuote type-checks");

    // Stage 2: buyer i pledges min(budget[i], remaining). Blocks until the
    // quote arrived and the previous buyer pledged (pipeline order), which
    // models the session-typed "coordinate their individual contribution".
    let contribute_body = {
        let mut body = vec![
            assume(var("quoted")),
            assume(or(
                eq(var("i"), int(1)),
                is_some(get(var("pledged"), sub(var("i"), int(1)))),
            )),
        ];
        body.extend(pledged_sum_into("already", sub(var("i"), int(1))));
        body.push(assign(
            "mine",
            ite(
                lt(
                    sub(var("price"), var("already")),
                    get(var("budget"), var("i")),
                ),
                ite(
                    gt(sub(var("price"), var("already")), int(0)),
                    sub(var("price"), var("already")),
                    int(0),
                ),
                get(var("budget"), var("i")),
            ),
        ));
        body.push(assign_at("pledged", var("i"), some(var("mine"))));
        body
    };
    let contribute = DslAction::build("Contribute", &g)
        .param("i", Sort::Int)
        .local("already", Sort::Int)
        .local("mine", Sort::Int)
        .local("b", Sort::Int)
        .body(contribute_body)
        .finish()
        .expect("Contribute type-checks");

    // Stage 3: the seller places the order if the pledges cover the price.
    let order_body = {
        let mut body = vec![assume(forall(
            "qb",
            range(int(1), var("n")),
            is_some(get(var("pledged"), var("qb"))),
        ))];
        body.extend(pledged_sum_into("total", var("n")));
        body.push(if_(
            ge(var("total"), var("price")),
            vec![
                assign("ordered", boolean(true)),
                assign("orderTotal", var("total")),
            ],
        ));
        body
    };
    let order = DslAction::build("Order", &g)
        .local("total", Sort::Int)
        .local("b", Sort::Int)
        .body(order_body)
        .finish()
        .expect("Order type-checks");

    let main = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![
            async_call(&request_quote, vec![]),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&contribute, vec![var("i")])],
            ),
            async_call(&order, vec![]),
        ])
        .finish()
        .expect("Main type-checks");

    // Main': the whole session inline, in pipeline order. `RequestQuote`'s
    // only effect is spawning `Quote`, so the completed sequentialization
    // starts from the quote itself.
    let main_seq = DslAction::build("MainSeq", &g)
        .local("i", Sort::Int)
        .body(vec![
            call(&quote, vec![]),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![call(&contribute, vec![var("i")])],
            ),
            call(&order, vec![]),
        ])
        .finish()
        .expect("Main' type-checks");

    // Inv: the pipeline progressed t stages: 0 = nothing, 1 = quote
    // requested, 2 = quoted, 2+c = c buyers pledged, 3+n = ordered. Stages
    // whose only effect is a spawn appear as the pending frontier below, not
    // as calls (a call would re-create the spawned pending async).
    let inv = DslAction::build("Inv", &g)
        .local("t", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            choose("t", range(int(0), add(var("n"), int(3)))),
            if_(ge(var("t"), int(2)), vec![call(&quote, vec![])]),
            for_range(
                "i",
                int(1),
                ite(
                    gt(sub(var("t"), int(2)), var("n")),
                    var("n"),
                    sub(var("t"), int(2)),
                ),
                vec![call(&contribute, vec![var("i")])],
            ),
            if_(
                ge(var("t"), add(var("n"), int(3))),
                vec![call(&order, vec![])],
            ),
            // Remaining pending asyncs.
            if_(
                lt(var("t"), int(1)),
                vec![async_call(&request_quote, vec![])],
            ),
            if_(
                and(ge(var("t"), int(1)), lt(var("t"), int(2))),
                vec![async_call(&quote, vec![])],
            ),
            for_range(
                "i",
                ite(ge(var("t"), int(2)), sub(var("t"), int(1)), int(1)),
                var("n"),
                vec![async_call(&contribute, vec![var("i")])],
            ),
            if_(
                lt(var("t"), add(var("n"), int(3))),
                vec![async_call(&order, vec![])],
            ),
        ])
        .finish()
        .expect("Inv type-checks");

    // Abstractions: the pipeline stage is enabled (gates instead of blocking
    // assumes), making the actions non-blocking left movers.
    let contribute_abs = DslAction::build("ContributeAbs", &g)
        .param("i", Sort::Int)
        .body(vec![
            assert_msg(var("quoted"), "ContributeAbs: no quote yet"),
            assert_msg(
                or(
                    eq(var("i"), int(1)),
                    is_some(get(var("pledged"), sub(var("i"), int(1)))),
                ),
                "ContributeAbs: previous buyer has not pledged",
            ),
            call(&contribute, vec![var("i")]),
        ])
        .finish()
        .expect("ContributeAbs type-checks");
    let order_abs = DslAction::build("OrderAbs", &g)
        .body(vec![
            assert_msg(
                forall(
                    "b",
                    range(int(1), var("n")),
                    is_some(get(var("pledged"), var("b"))),
                ),
                "OrderAbs: not all buyers pledged",
            ),
            call(&order, vec![]),
        ])
        .finish()
        .expect("OrderAbs type-checks");

    // ----- P1: the seller's order placement split into gather + commit ----
    let gather_body = {
        let mut body = vec![assume(forall(
            "qb",
            range(int(1), var("n")),
            is_some(get(var("pledged"), var("qb"))),
        ))];
        body.extend(pledged_sum_into("total", var("n")));
        body.push(async_named("Commit", vec![Sort::Int], vec![var("total")]));
        body
    };
    let gather = DslAction::build("Gather", &g)
        .local("total", Sort::Int)
        .local("b", Sort::Int)
        .body(gather_body)
        .finish()
        .expect("Gather type-checks");
    let commit = DslAction::build("Commit", &g)
        .param("total", Sort::Int)
        .body(vec![if_(
            ge(var("total"), var("price")),
            vec![
                assign("ordered", boolean(true)),
                assign("orderTotal", var("total")),
            ],
        )])
        .finish()
        .expect("Commit type-checks");
    let main_impl = DslAction::build("Main", &g)
        .local("i", Sort::Int)
        .body(vec![
            async_call(&request_quote, vec![]),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![async_call(&contribute, vec![var("i")])],
            ),
            async_call(&gather, vec![]),
        ])
        .finish()
        .expect("P1 main type-checks");

    let p1_actions = vec![
        Arc::clone(&gather),
        Arc::clone(&commit),
        Arc::clone(&main_impl),
    ];
    let p1 = program_of(
        &g,
        [
            Arc::clone(&request_quote),
            Arc::clone(&quote),
            Arc::clone(&contribute),
            gather,
            commit,
            main_impl,
        ],
        "Main",
    )
    .expect("P1 is well-formed");
    let p2 = program_of(
        &g,
        [
            Arc::clone(&request_quote),
            Arc::clone(&quote),
            Arc::clone(&contribute),
            Arc::clone(&order),
            Arc::clone(&main),
        ],
        "Main",
    )
    .expect("P2 is well-formed");

    Artifacts {
        decls: g,
        p1,
        p2,
        request_quote,
        quote,
        contribute,
        order,
        main,
        main_seq,
        inv,
        contribute_abs,
        order_abs,
        p1_actions,
    }
}

/// The initial store: `n`, `price` and budgets set.
#[must_use]
pub fn initial_store(artifacts: &Artifacts, instance: &Instance) -> GlobalStore {
    let g = &artifacts.decls;
    let mut store = g.initial_store();
    store.set(g.index_of("n").unwrap(), Value::Int(instance.n));
    store.set(g.index_of("price").unwrap(), Value::Int(instance.price));
    let mut budgets = inseq_kernel::Map::new(Value::Int(0));
    for (idx, b) in instance.budgets.iter().enumerate() {
        budgets.set_in_place(Value::Int(idx as i64 + 1), Value::Int(*b));
    }
    store.set(g.index_of("budget").unwrap(), Value::map(budgets));
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
    ExplorationCase::new("N-Buyer", format!("n = {}", instance.n), artifacts.p2, init)
}

/// The paper's functional spec: an order implies the contributions sum to
/// exactly the price.
pub fn spec(artifacts: &Artifacts, instance: &Instance) -> impl Fn(&GlobalStore) -> bool {
    let ordered_idx = artifacts.decls.index_of("ordered").unwrap();
    let total_idx = artifacts.decls.index_of("orderTotal").unwrap();
    let price = instance.price;
    move |store: &GlobalStore| {
        if store.get(ordered_idx) == &Value::Bool(true) {
            store.get(total_idx).as_int() == price
        } else {
            true
        }
    }
}

/// Pipeline position of a pending async (for the choice function and
/// measure).
fn position(pa: &PendingAsync, n: i64) -> i64 {
    match pa.action.as_str() {
        "RequestQuote" => 0,
        "Quote" => 1,
        "Contribute" => 1 + pa.args[0].as_int(),
        "Order" => n + 2,
        _ => i64::MAX,
    }
}

/// The IS application.
#[must_use]
pub fn application(artifacts: &Artifacts, instance: &Instance) -> IsApplication {
    let init = init_config(&artifacts.p2, artifacts, instance);
    let n = instance.n;
    IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("RequestQuote")
        .eliminate("Quote")
        .eliminate("Contribute")
        .eliminate("Order")
        .invariant(Arc::clone(&artifacts.inv) as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Contribute",
            Arc::clone(&artifacts.contribute_abs) as Arc<dyn ActionSemantics>,
        )
        .abstraction(
            "Order",
            Arc::clone(&artifacts.order_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(move |t| {
            t.created
                .distinct()
                .min_by_key(|pa| position(pa, n))
                .cloned()
        })
        .measure(Measure::lexicographic(
            "Σ remaining-stages",
            move |_, omega: &Multiset<PendingAsync>| {
                vec![omega
                    .iter()
                    .map(|pa| u64::try_from((n + 3 - position(pa, n)).max(0)).unwrap_or(0))
                    .sum()]
            },
        ))
        .instance(init)
}

use inseq_core::chain::IsChain;

/// The paper-faithful **four-application** proof (`#IS = 4` in Table 1):
/// one application per session stage — quote request, quote, contributions,
/// order.
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

    let pending_buyers_and_order = |from: inseq_lang::Expr| {
        vec![
            for_range(
                "i",
                from,
                var("n"),
                vec![async_call(&artifacts.contribute, vec![var("i")])],
            ),
            async_call(&artifacts.order, vec![]),
        ]
    };

    // --- Application 1: eliminate RequestQuote --------------------------
    let main1 = {
        let mut body = vec![async_call(&artifacts.quote, vec![])];
        body.extend(pending_buyers_and_order(int(1)));
        DslAction::build("Main1", g)
            .local("i", Sort::Int)
            .body(body)
            .finish()
            .expect("Main1 type-checks")
    };
    let inv1 = {
        let mut body = vec![
            choose("s", range(int(0), int(1))),
            if_else(
                eq(var("s"), int(0)),
                vec![async_call(&artifacts.request_quote, vec![])],
                vec![async_call(&artifacts.quote, vec![])],
            ),
        ];
        body.extend(pending_buyers_and_order(int(1)));
        DslAction::build("Inv1", g)
            .local("s", Sort::Int)
            .local("i", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv1 type-checks")
    };
    let app1 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("RequestQuote")
        .invariant(inv1 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main1) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "RequestQuote")
                .cloned()
        })
        .measure(Measure::lexicographic(
            "2·#RequestQuote + #Quote",
            |_, omega| {
                vec![omega
                    .iter()
                    .map(|pa| match pa.action.as_str() {
                        "RequestQuote" => 2,
                        "Quote" => 1,
                        _ => 0,
                    })
                    .sum()]
            },
        ))
        .instance(init.clone());

    // --- Application 2: eliminate Quote ---------------------------------
    let main2 = {
        let mut body = vec![assign("quoted", boolean(true))];
        body.extend(pending_buyers_and_order(int(1)));
        DslAction::build("Main2", g)
            .local("i", Sort::Int)
            .body(body)
            .finish()
            .expect("Main2 type-checks")
    };
    let inv2 = {
        let mut body = vec![
            choose("s", range(int(0), int(1))),
            if_else(
                eq(var("s"), int(0)),
                vec![async_call(&artifacts.quote, vec![])],
                vec![assign("quoted", boolean(true))],
            ),
        ];
        body.extend(pending_buyers_and_order(int(1)));
        DslAction::build("Inv2", g)
            .local("s", Sort::Int)
            .local("i", Sort::Int)
            .body(body)
            .finish()
            .expect("Inv2 type-checks")
    };
    let app2 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Quote")
        .invariant(inv2 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main2) as Arc<dyn ActionSemantics>)
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Quote")
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init.clone());

    // --- Application 3: eliminate Contribute ----------------------------
    let main3 = DslAction::build("Main3", g)
        .local("i", Sort::Int)
        .body(vec![
            assign("quoted", boolean(true)),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![call(&artifacts.contribute, vec![var("i")])],
            ),
            async_call(&artifacts.order, vec![]),
        ])
        .finish()
        .expect("Main3 type-checks");
    let inv3 = DslAction::build("Inv3", g)
        .local("c", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            choose("c", range(int(0), var("n"))),
            assign("quoted", boolean(true)),
            for_range(
                "i",
                int(1),
                var("c"),
                vec![call(&artifacts.contribute, vec![var("i")])],
            ),
            for_range(
                "i",
                add(var("c"), int(1)),
                var("n"),
                vec![async_call(&artifacts.contribute, vec![var("i")])],
            ),
            async_call(&artifacts.order, vec![]),
        ])
        .finish()
        .expect("Inv3 type-checks");
    let app3 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Contribute")
        .invariant(inv3 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&main3) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Contribute",
            Arc::clone(&artifacts.contribute_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| {
            t.created
                .distinct()
                .filter(|pa| pa.action.as_str() == "Contribute")
                .min_by_key(|pa| pa.args[0].as_int())
                .cloned()
        })
        .measure(Measure::pending_async_count())
        .instance(init.clone());

    // --- Application 4: eliminate Order ---------------------------------
    let inv4 = DslAction::build("Inv4", g)
        .local("s", Sort::Int)
        .local("i", Sort::Int)
        .body(vec![
            choose("s", range(int(0), int(1))),
            assign("quoted", boolean(true)),
            for_range(
                "i",
                int(1),
                var("n"),
                vec![call(&artifacts.contribute, vec![var("i")])],
            ),
            if_else(
                eq(var("s"), int(0)),
                vec![async_call(&artifacts.order, vec![])],
                vec![call(&artifacts.order, vec![])],
            ),
        ])
        .finish()
        .expect("Inv4 type-checks");
    let app4 = IsApplication::new(artifacts.p2.clone(), "Main")
        .eliminate("Order")
        .invariant(inv4 as Arc<dyn ActionSemantics>)
        .replacement(Arc::clone(&artifacts.main_seq) as Arc<dyn ActionSemantics>)
        .abstraction(
            "Order",
            Arc::clone(&artifacts.order_abs) as Arc<dyn ActionSemantics>,
        )
        .choice(|t| {
            t.created
                .distinct()
                .find(|pa| pa.action.as_str() == "Order")
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
        &artifacts.request_quote,
        &artifacts.quote,
        &artifacts.contribute,
        &artifacts.order,
        &artifacts.main,
    ]);
    loc.impl_actions(artifacts.p1_actions.iter());
    loc.is_actions([
        &artifacts.main_seq,
        &artifacts.inv,
        &artifacts.contribute_abs,
        &artifacts.order_abs,
    ]);
    Proof {
        name: "N-Buyer",
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
    fn order_placed_when_affordable() {
        let instance = Instance::new(10, &[6, 6]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        let exp = inseq_kernel::Explorer::new(&artifacts.p2)
            .explore([init])
            .unwrap();
        assert!(!exp.has_failure());
        let ordered_idx = artifacts.decls.index_of("ordered").unwrap();
        assert!(exp
            .terminal_stores()
            .all(|s| s.get(ordered_idx) == &Value::Bool(true)));
    }

    #[test]
    fn no_order_when_unaffordable() {
        let instance = Instance::new(10, &[3, 2]);
        let artifacts = build();
        let init = init_config(&artifacts.p2, &artifacts, &instance);
        let exp = inseq_kernel::Explorer::new(&artifacts.p2)
            .explore([init])
            .unwrap();
        let ordered_idx = artifacts.decls.index_of("ordered").unwrap();
        assert!(exp
            .terminal_stores()
            .all(|s| s.get(ordered_idx) == &Value::Bool(false)));
    }

    #[test]
    fn spec_holds_on_p2() {
        for budgets in [&[6, 6][..], &[3, 2][..], &[10, 10][..], &[4, 3, 5][..]] {
            let instance = Instance::new(10, budgets);
            let artifacts = build();
            let init = init_config(&artifacts.p2, &artifacts, &instance);
            check_spec(&artifacts.p2, init, 1_000_000, spec(&artifacts, &instance)).unwrap();
        }
    }

    #[test]
    fn p1_refines_p2() {
        let instance = Instance::new(10, &[6, 6]);
        let artifacts = build();
        let init1 = init_config(&artifacts.p1, &artifacts, &instance);
        check_program_refinement(&artifacts.p1, &artifacts.p2, [init1], 1_000_000).unwrap();
    }

    #[test]
    fn is_application_passes() {
        let instance = Instance::new(10, &[6, 6, 9]);
        let artifacts = build();
        let report = application(&artifacts, &instance)
            .check()
            .expect("IS premises hold");
        assert_eq!(report.eliminated_actions, 4);
    }

    #[test]
    fn verify_produces_table1_row() {
        let instance = Instance::new(10, &[6, 6]);
        let row = verify(&instance).expect("pipeline passes");
        assert_eq!(row.is_applications, 4, "Table 1 reports #IS = 4");
    }
}
