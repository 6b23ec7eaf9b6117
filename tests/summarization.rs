//! Deriving Fig. 1-② from Fig. 1-① mechanically: the `summarize_chain`
//! reduction turns the fine-grained `BroadcastStep`/`CollectStep`
//! continuation chains into atomic actions that are semantically equal to
//! the hand-written `Broadcast`/`Collect`.

use std::collections::BTreeSet;
use std::sync::Arc;

use inductive_sequentialization::kernel::{ActionSemantics, Explorer, StateUniverse, Value};
use inductive_sequentialization::mover::summarize_chain;
use inductive_sequentialization::protocols::broadcast;
use inductive_sequentialization::refine::check_action_refinement;

/// Semantic equality of two actions over a set of inputs: refinement in both
/// directions.
fn semantically_equal<'a>(
    a: &Arc<dyn ActionSemantics>,
    b: &Arc<dyn ActionSemantics>,
    inputs: impl Iterator<
            Item = (
                &'a inductive_sequentialization::kernel::GlobalStore,
                &'a [Value],
            ),
        > + Clone,
) {
    check_action_refinement(a, b, inputs.clone()).expect("a ≼ b");
    check_action_refinement(b, a, inputs).expect("b ≼ a");
}

#[test]
fn summarized_broadcast_chain_equals_the_atomic_action() {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();

    let chain: BTreeSet<_> = [inductive_sequentialization::kernel::ActionName::new(
        "BroadcastStep",
    )]
    .into_iter()
    .collect();
    let summary: Arc<dyn ActionSemantics> = Arc::new(summarize_chain(
        &artifacts.p1,
        "BroadcastSummary",
        &"BroadcastStep".into(),
        &chain,
    ));

    // Compare against the hand-written atomic Broadcast at every store where
    // a Broadcast is invoked in P2. The atomic action takes (i); the chain
    // entry takes (i, j=1) — wrap the argument translation.
    let init2 = broadcast::init_config(&artifacts.p2, &artifacts, &instance);
    let exp = Explorer::new(&artifacts.p2).explore([init2]).unwrap();
    let universe = StateUniverse::from_exploration(&exp);
    let atomic = artifacts.p2.action(&"Broadcast".into()).unwrap().clone();

    for (store, args) in universe.enabled_inputs(&"Broadcast".into()) {
        // The P2 Broadcast consumes its ghost entry; the P1 chain does not
        // touch the ghost variable, so compare the channel effects by
        // running the summary and the atomic action and checking the
        // channels (index of "CH") agree.
        let i = args[0].clone();
        let chain_args = vec![i.clone(), Value::Int(1)];
        let atomic_out = atomic.eval(store, args);
        let summary_out = summary.eval(store, &chain_args);
        let ch_idx = artifacts.decls.index_of("CH").unwrap();
        let atomic_chs: BTreeSet<_> = atomic_out
            .transitions()
            .unwrap()
            .iter()
            .map(|t| t.globals.get(ch_idx).clone())
            .collect();
        let summary_chs: BTreeSet<_> = summary_out
            .transitions()
            .unwrap()
            .iter()
            .map(|t| t.globals.get(ch_idx).clone())
            .collect();
        assert_eq!(atomic_chs, summary_chs, "channel effects agree at {store}");
    }
}

#[test]
fn summarized_collect_chain_blocks_like_the_atomic_action() {
    // On a store with too few messages the summarized chain must block,
    // exactly like the atomic Collect of Fig. 1-②.
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let chain: BTreeSet<_> = [inductive_sequentialization::kernel::ActionName::new(
        "CollectStep",
    )]
    .into_iter()
    .collect();
    let summary: Arc<dyn ActionSemantics> = Arc::new(summarize_chain(
        &artifacts.p1,
        "CollectSummary",
        &"CollectStep".into(),
        &chain,
    ));
    // Initial store: channels empty → the chain blocks.
    let store = broadcast::initial_store(&artifacts, &instance);
    let out = summary.eval(&store, &[Value::Int(1), Value::Int(1), Value::none()]);
    assert_eq!(
        out.transitions().map(<[_]>::len),
        Some(0),
        "summary blocks on an empty channel"
    );
}

#[test]
fn summarized_collect_chain_decides_the_maximum() {
    // After all broadcasts, the summarized chain drains the channel and
    // decides the max — one deterministic outcome despite the receive
    // branching inside.
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();
    let chain: BTreeSet<_> = [inductive_sequentialization::kernel::ActionName::new(
        "CollectStep",
    )]
    .into_iter()
    .collect();
    let summary = summarize_chain(
        &artifacts.p1,
        "CollectSummary",
        &"CollectStep".into(),
        &chain,
    );
    // Fill channel 1 with both values by running the two Broadcast chains.
    let store = broadcast::initial_store(&artifacts, &instance);
    let b = artifacts.p2.action(&"Broadcast".into()).unwrap();
    let store = {
        let t1 = b.eval(&store, &[Value::Int(1)]);
        let s = t1.transitions().unwrap()[0].globals.clone();
        let t2 = b.eval(&s, &[Value::Int(2)]);
        t2.transitions().unwrap()[0].globals.clone()
    };
    let out = summary.eval(&store, &[Value::Int(1), Value::Int(1), Value::none()]);
    let ts = out.transitions().unwrap();
    assert_eq!(ts.len(), 1, "all receive orders collapse to one outcome");
    let dec_idx = artifacts.decls.index_of("decision").unwrap();
    assert_eq!(
        ts[0].globals.get(dec_idx).as_map().get(&Value::Int(1)),
        &Value::some(Value::Int(3))
    );
}

#[test]
fn summaries_of_deterministic_chains_are_mutually_refining() {
    // A trivial sanity check of the equality helper itself.
    let instance = broadcast::Instance::new(&[2, 5]);
    let artifacts = broadcast::build();
    let chain: BTreeSet<_> = [inductive_sequentialization::kernel::ActionName::new(
        "BroadcastStep",
    )]
    .into_iter()
    .collect();
    let s1: Arc<dyn ActionSemantics> = Arc::new(summarize_chain(
        &artifacts.p1,
        "S1",
        &"BroadcastStep".into(),
        &chain,
    ));
    let s2: Arc<dyn ActionSemantics> = Arc::new(summarize_chain(
        &artifacts.p1,
        "S2",
        &"BroadcastStep".into(),
        &chain,
    ));
    let store = broadcast::initial_store(&artifacts, &instance);
    let args = vec![Value::Int(1), Value::Int(1)];
    let inputs = [(&store, args.as_slice())];
    semantically_equal(&s1, &s2, inputs.iter().copied());
}
