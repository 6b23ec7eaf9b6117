//! The whole toolbox on one protocol: derive the atomic actions by
//! reduction (`summarize_chain`), run the proof's chain of refinement
//! steps with the Table-1 driver, rewrite a concrete interleaving with the
//! Fig. 2 permutation algorithm, and render the executions.
//!
//! ```text
//! cargo run --release --example proof_pipeline
//! ```

use std::collections::BTreeSet;

use inductive_sequentialization::core::rewrite::{permute_execution, validate_execution};
use inductive_sequentialization::kernel::render::{render_execution, RenderOptions};
use inductive_sequentialization::kernel::{ActionName, Explorer, Value};
use inductive_sequentialization::mover::summarize_chain;
use inductive_sequentialization::protocols::broadcast;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instance = broadcast::Instance::new(&[3, 1]);
    let artifacts = broadcast::build();

    // ── 1. Reduction: derive an atomic broadcast from the fine-grained
    //       chain, mechanically.
    let chain: BTreeSet<ActionName> = ["BroadcastStep".into()].into_iter().collect();
    let summary = summarize_chain(
        &artifacts.p1,
        "BroadcastSummary",
        &"BroadcastStep".into(),
        &chain,
    );
    let store = broadcast::initial_store(&artifacts, &instance);
    let out = inductive_sequentialization::kernel::ActionSemantics::eval(
        &summary,
        &store,
        &[Value::Int(1), Value::Int(1)],
    );
    println!(
        "summarized BroadcastStep chain: {} atomic transition(s) from the initial store\n",
        out.transitions().map_or(0, <[_]>::len)
    );

    // ── 2. The proof: P1 ≼ P2 (reduction to atomic actions, Fig. 1 ① → ②),
    //       the two IS applications, P2 ≼ P', and the spec.
    let report = broadcast::proof(&artifacts, &instance).run()?;
    println!("proof steps ({} IS applications):", report.is_applications);
    for step in &report.steps {
        println!("  {step}");
    }

    // ── 3. Fig. 2, concretely: take one concurrent interleaving and
    //       permute it into the sequentialization.
    let app = broadcast::oneshot_application(&artifacts, &instance);
    app.check()?;
    let init2 = broadcast::init_config(&artifacts.p2, &artifacts, &instance);
    let exp = Explorer::new(&artifacts.p2).explore([init2]).unwrap();
    let exec = exp
        .terminating_executions(&artifacts.p2, 8)
        .into_iter()
        .max_by_key(inseq_len)
        .expect("some terminating execution");
    println!("\na concurrent interleaving of P:");
    print!(
        "{}",
        render_execution(&exec, artifacts.p2.schema(), RenderOptions::default())
    );

    let rewritten = permute_execution(&app, &exec)?;
    validate_execution(&app.apply(), &rewritten).expect("legal in P'");
    println!("\npermuted into the sequentialization (Fig. 2):");
    print!(
        "{}",
        render_execution(&rewritten, artifacts.p2.schema(), RenderOptions::default())
    );
    println!(
        "\nsame final configuration, {} step(s) instead of {}.",
        rewritten.len(),
        exec.len()
    );
    Ok(())
}

fn inseq_len(e: &inductive_sequentialization::kernel::Execution) -> usize {
    e.len()
}
