//! Protocol-level differential tests for the compiled evaluation path.
//!
//! For every configuration reachable in a protocol's atomic program, every
//! pending async that occurs there must evaluate identically on the
//! register-bytecode VM and on the tree-walk reference interpreter — same
//! transition sets, same failure reasons. Together with the protocol
//! pipelines themselves (which run over the compiled default path and whose
//! check paths are compared in `check_paths_agree.rs`), this pins the
//! VM to the interpreter's semantics on real workloads, not just on the
//! random programs of the lang-level proptest suite.

use std::collections::BTreeMap;
use std::sync::Arc;

use inductive_sequentialization::kernel::{Config, Explorer, Program};
use inductive_sequentialization::lang::DslAction;
use inductive_sequentialization::protocols::{broadcast, ping_pong, two_phase_commit};

/// Explores `program` from `init` and checks VM/interpreter agreement at
/// every `(reachable store, pending async)` pair.
fn assert_program_differential(
    label: &str,
    program: &Program,
    init: Config,
    actions: &[&Arc<DslAction>],
) {
    let by_name: BTreeMap<&str, &Arc<DslAction>> = actions.iter().map(|a| (a.name(), *a)).collect();
    let exploration = Explorer::new(program)
        .explore([init])
        .unwrap_or_else(|e| panic!("{label}: exploration failed: {e}"));
    let mut compared = 0usize;
    for config in exploration.configs() {
        for pa in config.pending.distinct() {
            let action = by_name
                .get(pa.action.as_str())
                .unwrap_or_else(|| panic!("{label}: no DSL action named `{}`", pa.action));
            let compiled = action
                .eval_compiled(&config.globals, &pa.args)
                .unwrap_or_else(|| panic!("{label}: `{}` failed to compile", pa.action));
            let interp = action.eval_interp(&config.globals, &pa.args);
            assert_eq!(
                compiled, interp,
                "{label}: VM and interpreter disagree on `{}` at {}",
                pa.action, config.globals
            );
            compared += 1;
        }
    }
    assert!(
        compared > 0,
        "{label}: nothing compared — exploration empty?"
    );
}

#[test]
fn ping_pong_vm_matches_interpreter_on_all_reachable_configs() {
    let artifacts = ping_pong::build();
    let instance = ping_pong::Instance::new(4);
    let init = ping_pong::init_config(&artifacts.p2, &artifacts, instance);
    assert_program_differential(
        "ping-pong",
        &artifacts.p2,
        init,
        &[&artifacts.ping, &artifacts.pong, &artifacts.main],
    );
}

#[test]
fn broadcast_vm_matches_interpreter_on_all_reachable_configs() {
    let artifacts = broadcast::build();
    let instance = broadcast::Instance::new(&[3, 1, 2]);
    let init = broadcast::init_config(&artifacts.p2, &artifacts, &instance);
    assert_program_differential(
        "broadcast",
        &artifacts.p2,
        init,
        &[&artifacts.main, &artifacts.broadcast, &artifacts.collect],
    );
}

#[test]
fn two_phase_commit_vm_matches_interpreter_on_all_reachable_configs() {
    let artifacts = two_phase_commit::build();
    let instance = two_phase_commit::Instance::new(&[true, false, true]);
    let init = two_phase_commit::init_config(&artifacts.p2, &artifacts, &instance);
    assert_program_differential(
        "two-phase commit",
        &artifacts.p2,
        init,
        &[
            &artifacts.main,
            &artifacts.request,
            &artifacts.vote_resp,
            &artifacts.decide,
            &artifacts.decision,
        ],
    );
}
