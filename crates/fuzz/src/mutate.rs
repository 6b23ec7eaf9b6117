//! Mutation operators over [`ProgramSpec`]s for the guided campaign.
//!
//! Where [`crate::gen`] builds programs from nothing, the mutators make a
//! *small* sound edit to a program that already earned its place in the
//! corpus, so the campaign can probe the neighborhood of
//! coverage-discovering inputs instead of restarting from scratch.
//!
//! **Soundness contract.** Every spec [`mutate`] returns satisfies the same
//! invariants the generator guarantees:
//!
//! * it builds through the ordinary `inseq_lang` typechecker
//!   (`spec.build().is_ok()`);
//! * it is finite by construction: the spawn DAG still points strictly
//!   backwards (action `i` only `async`s actions `j < i`) and `call`
//!   targets are still leaves;
//! * it respects the size bounds in [`MutateConfig`].
//!
//! A candidate edit that would break any of these is rejected *by the
//! mutator* (the attempt loop tries a different operator); an unsound
//! program never reaches the oracle battery. `tests/mutator_soundness.rs`
//! property-tests this over hundreds of mutants.

use inseq_kernel::Value;
use inseq_lang::{build as e, Expr};
use rand::{rngs::StdRng, Rng};

use crate::gen::{block_is_leaf, global_sort, random_value};
use crate::shrink::{count_spec_ints, for_each_spec_int};
use inseq_lang::spec::{ProgramSpec, SpecStmt};

/// The mutation operators, in the order [`mutate`] indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    /// Copy one top-level statement from one action into another.
    Splice,
    /// Negate a gate: an `assert`, `assume`, or `if` condition.
    GateFlip,
    /// Nudge one integer constant by a small delta.
    ConstNudge,
    /// Retarget an `async` to a different (still earlier) action.
    RewireSpawn,
    /// Duplicate an action under a fresh name (plus a fresh global sort)
    /// and make the copy reachable.
    DuplicateAction,
    /// Splice one statement from a freshly *generated* donor program into
    /// this one. The within-program operators above rearrange material the
    /// program already contains, which caps the VM dispatch edges they can
    /// ever discover; cross-pollination imports constructs the corpus
    /// member has never contained (in a context a fresh program would
    /// never place them in). Without it, a guided campaign loses to blind
    /// generation on edge discovery — fresh programs sample the opcode
    /// space broadly, and neighborhoods of old programs do not.
    CrossSplice,
}

impl MutOp {
    /// Every operator.
    pub const ALL: [MutOp; 6] = [
        MutOp::Splice,
        MutOp::GateFlip,
        MutOp::ConstNudge,
        MutOp::RewireSpawn,
        MutOp::DuplicateAction,
        MutOp::CrossSplice,
    ];

    /// The operator's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MutOp::Splice => "splice",
            MutOp::GateFlip => "gate-flip",
            MutOp::ConstNudge => "const-nudge",
            MutOp::RewireSpawn => "rewire-spawn",
            MutOp::DuplicateAction => "dup-action",
            MutOp::CrossSplice => "cross-splice",
        }
    }
}

/// Size bounds a mutant must respect.
#[derive(Debug, Clone)]
pub struct MutateConfig {
    /// Maximum number of actions, entry action included.
    pub max_actions: usize,
    /// Maximum total statement count across all actions.
    pub max_stmts: usize,
    /// Maximum magnitude of any integer constant.
    pub max_const: i64,
}

impl Default for MutateConfig {
    fn default() -> Self {
        MutateConfig {
            max_actions: 6,
            max_stmts: 40,
            max_const: 9,
        }
    }
}

/// Applies one sound mutation to `spec`.
///
/// Tries up to eight operator applications and returns the first candidate
/// that passes [`validate`]; when none does (tiny degenerate specs), the
/// input is returned unchanged. Deterministic per RNG state.
#[must_use]
pub fn mutate(rng: &mut StdRng, spec: &ProgramSpec, config: &MutateConfig) -> ProgramSpec {
    for _ in 0..8 {
        let op = MutOp::ALL[rng.gen_range(0..MutOp::ALL.len())];
        if let Some(candidate) = apply(rng, spec, op) {
            if validate(&candidate, config) {
                return candidate;
            }
        }
    }
    spec.clone()
}

/// Applies one specific operator; `None` when the spec has no site for it.
/// The result is a *candidate*: callers must [`validate`] before use.
#[must_use]
pub fn apply(rng: &mut StdRng, spec: &ProgramSpec, op: MutOp) -> Option<ProgramSpec> {
    match op {
        MutOp::Splice => splice(rng, spec),
        MutOp::GateFlip => gate_flip(rng, spec),
        MutOp::ConstNudge => const_nudge(rng, spec),
        MutOp::RewireSpawn => rewire_spawn(rng, spec),
        MutOp::DuplicateAction => duplicate_action(rng, spec),
        MutOp::CrossSplice => cross_splice(rng, spec),
    }
}

/// The full soundness gate: typechecks, finite by construction, within the
/// configured size bounds.
#[must_use]
pub fn validate(spec: &ProgramSpec, config: &MutateConfig) -> bool {
    spec.actions.len() <= config.max_actions
        && spec.stmt_count() <= config.max_stmts
        && consts_within(spec, config.max_const)
        && structurally_finite(spec)
        && spec.build().is_ok()
}

/// The generator's two finiteness rules, checked structurally: the spawn
/// DAG points strictly backwards and `call` targets are leaves.
#[must_use]
pub fn structurally_finite(spec: &ProgramSpec) -> bool {
    let position = |name: &str| spec.actions.iter().position(|a| a.name == name);
    spec.actions.iter().enumerate().all(|(i, action)| {
        let mut ok = true;
        for_each_stmt(&action.body, &mut |stmt| match stmt {
            SpecStmt::Async { callee, .. } => {
                ok &= position(callee).is_some_and(|j| j < i);
            }
            SpecStmt::Call { callee, .. } => {
                ok &=
                    position(callee).is_some_and(|j| j < i && block_is_leaf(&spec.actions[j].body));
            }
            _ => {}
        });
        ok
    })
}

fn consts_within(spec: &ProgramSpec, max: i64) -> bool {
    let mut ok = true;
    for_each_spec_int(&mut spec.clone(), &mut |n| ok &= n.abs() <= max);
    ok
}

fn for_each_stmt(block: &[SpecStmt], f: &mut impl FnMut(&SpecStmt)) {
    for stmt in block {
        f(stmt);
        match stmt {
            SpecStmt::If(_, t, e) => {
                for_each_stmt(t, f);
                for_each_stmt(e, f);
            }
            SpecStmt::ForRange(_, _, _, body) => for_each_stmt(body, f),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

fn splice(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    let src = rng.gen_range(0..spec.actions.len());
    let dst = rng.gen_range(0..spec.actions.len());
    let src_body = &spec.actions[src].body;
    if src_body.is_empty() {
        return None;
    }
    let stmt = src_body[rng.gen_range(0..src_body.len())].clone();
    let mut c = spec.clone();
    let at = rng.gen_range(0..c.actions[dst].body.len() + 1);
    c.actions[dst].body.insert(at, stmt);
    Some(c)
}

fn gate_flip(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    let mut c = spec.clone();
    let mut gates: Vec<&mut Expr> = Vec::new();
    for action in &mut c.actions {
        collect_gates(&mut action.body, &mut gates);
    }
    if gates.is_empty() {
        return None;
    }
    let idx = rng.gen_range(0..gates.len());
    let gate = std::mem::replace(gates[idx], Expr::Const(Value::Bool(true)));
    *gates[idx] = e::not(gate);
    Some(c)
}

fn collect_gates<'a>(block: &'a mut [SpecStmt], out: &mut Vec<&'a mut Expr>) {
    for stmt in block {
        match stmt {
            SpecStmt::Assume(cond) | SpecStmt::Assert(cond, _) => out.push(cond),
            SpecStmt::If(cond, t, e) => {
                out.push(cond);
                collect_gates(t, out);
                collect_gates(e, out);
            }
            SpecStmt::ForRange(_, _, _, body) => collect_gates(body, out),
            _ => {}
        }
    }
}

fn const_nudge(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    let total = count_spec_ints(spec);
    if total == 0 {
        return None;
    }
    let target = rng.gen_range(0..total);
    let delta = [-2i64, -1, 1, 2][rng.gen_range(0..4)];
    let mut c = spec.clone();
    let mut at = 0usize;
    for_each_spec_int(&mut c, &mut |n| {
        if at == target {
            *n += delta;
        }
        at += 1;
    });
    Some(c)
}

fn rewire_spawn(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    // Collect (action index, flat async-site ordinal) pairs.
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (i, action) in spec.actions.iter().enumerate() {
        let mut ordinal = 0usize;
        for_each_stmt(&action.body, &mut |stmt| {
            if matches!(stmt, SpecStmt::Async { .. }) {
                sites.push((i, ordinal));
                ordinal += 1;
            }
        });
    }
    // Rewiring needs an earlier action to retarget to.
    sites.retain(|&(a, _)| a > 0);
    if sites.is_empty() {
        return None;
    }
    let (action_idx, site_ordinal) = sites[rng.gen_range(0..sites.len())];
    let new_target = rng.gen_range(0..action_idx);
    let (new_name, new_args): (String, Vec<Expr>) = {
        let target = &spec.actions[new_target];
        (
            target.name.clone(),
            target
                .params
                .iter()
                .map(|(_, sort)| Expr::Const(sort.default_value()))
                .collect(),
        )
    };
    let mut c = spec.clone();
    let mut ordinal = 0usize;
    rewrite_async(
        &mut c.actions[action_idx].body,
        &mut ordinal,
        site_ordinal,
        &new_name,
        &new_args,
    );
    Some(c)
}

fn rewrite_async(
    block: &mut [SpecStmt],
    ordinal: &mut usize,
    target: usize,
    name: &str,
    new_args: &[Expr],
) {
    for stmt in block {
        match stmt {
            SpecStmt::Async { callee, args } => {
                if *ordinal == target {
                    *callee = name.to_owned();
                    *args = new_args.to_vec();
                }
                *ordinal += 1;
            }
            SpecStmt::If(_, t, e) => {
                rewrite_async(t, ordinal, target, name, new_args);
                rewrite_async(e, ordinal, target, name, new_args);
            }
            SpecStmt::ForRange(_, _, _, body) => {
                rewrite_async(body, ordinal, target, name, new_args);
            }
            _ => {}
        }
    }
}

fn duplicate_action(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    // Pick a non-entry action to duplicate.
    let candidates: Vec<usize> = (0..spec.actions.len())
        .filter(|&i| spec.actions[i].name != spec.main)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let src = candidates[rng.gen_range(0..candidates.len())];
    let fresh_name = (0..)
        .map(|k| format!("A{k}"))
        .find(|n| spec.actions.iter().all(|a| a.name != *n))
        .expect("some A{k} is unused");

    let mut c = spec.clone();
    let mut copy = c.actions[src].clone();
    copy.name = fresh_name.clone();
    // Insert right after the original: its asyncs/calls target j <= src-1 <
    // src+1, so the spawn DAG still points strictly backwards.
    c.actions.insert(src + 1, copy);
    // Fresh state surface to go with the fresh action: one new global of a
    // randomly drawn sort.
    let fresh_global = (0..)
        .map(|k| format!("g{k}"))
        .find(|n| c.globals.iter().all(|(g, _, _)| g != n))
        .expect("some g{k} is unused");
    let sort = global_sort(rng);
    let value = random_value(rng, &sort);
    c.globals.push((fresh_global, sort, value));
    // Make the copy reachable: seed it into the initial pending bag with
    // default arguments.
    let args: Vec<Value> = c.actions[src + 1]
        .params
        .iter()
        .map(|(_, sort)| sort.default_value())
        .collect();
    c.pending.push((fresh_name, args));
    Some(c)
}

fn cross_splice(rng: &mut StdRng, spec: &ProgramSpec) -> Option<ProgramSpec> {
    // The donor comes from the ordinary generator, so its statements use
    // the same `g{i}`/`l{i}` naming conventions as every generated program
    // — a spliced statement's variable references often resolve in the
    // host, and the validate() gate rejects the rest (sort clashes, absent
    // names, donor-only async targets).
    let donor = crate::gen::generate(rng, &crate::gen::GenConfig::default());
    let src = rng.gen_range(0..donor.actions.len());
    let src_body = &donor.actions[src].body;
    if src_body.is_empty() {
        return None;
    }
    let stmt = src_body[rng.gen_range(0..src_body.len())].clone();
    let dst = rng.gen_range(0..spec.actions.len());
    let mut c = spec.clone();
    let at = rng.gen_range(0..c.actions[dst].body.len() + 1);
    c.actions[dst].body.insert(at, stmt);
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use rand::SeedableRng;

    #[test]
    fn mutants_stay_sound_across_seeds() {
        let gen_config = GenConfig::default();
        let mut_config = MutateConfig::default();
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generate(&mut rng, &gen_config);
            let mut current = base;
            for step in 0..3 {
                current = mutate(&mut rng, &current, &mut_config);
                assert!(
                    validate(&current, &mut_config),
                    "seed {seed} step {step}: mutant failed the soundness gate"
                );
            }
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let gen_config = GenConfig::default();
        let mut_config = MutateConfig::default();
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            let base = generate(&mut rng, &gen_config);
            inseq_lang::serial::write_spec(&mutate(&mut rng, &base, &mut_config))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_operator_produces_a_validating_mutant_somewhere() {
        let gen_config = GenConfig::default();
        let mut_config = MutateConfig::default();
        for op in MutOp::ALL {
            let mut hit = false;
            'seeds: for seed in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let base = generate(&mut rng, &gen_config);
                if let Some(cand) = apply(&mut rng, &base, op) {
                    if validate(&cand, &mut_config) {
                        hit = true;
                        break 'seeds;
                    }
                }
            }
            assert!(hit, "operator {} never produced a sound mutant", op.name());
        }
    }

    #[test]
    fn structural_finiteness_rejects_forward_spawns() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = generate(&mut rng, &GenConfig::default());
        assert!(structurally_finite(&spec));
        // A self-spawn in the entry action is an infinite spawn chain.
        let mut bad = spec;
        let main = bad.actions.len() - 1;
        bad.actions[main].body.push(SpecStmt::Async {
            callee: bad.main.clone(),
            args: Vec::new(),
        });
        assert!(!structurally_finite(&bad));
    }
}
