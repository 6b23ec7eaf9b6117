//! Reduction interfaces for exploration: partial-order reduction over
//! commuting pending asyncs and symmetry quotients over node identities.
//!
//! The paper's central observation is that commutativity (mover) reasoning
//! lets one canonical interleaving stand in for exponentially many. This
//! module turns that observation into two explorer-facing reductions:
//!
//! * **Partial-order reduction** — at a configuration whose distinct pending
//!   asyncs pairwise commute with a chosen candidate, only that candidate is
//!   expanded (an *ample* singleton); the pruned interleavings are recovered
//!   by commuting every execution into the explored one. The commutation
//!   check itself ([`pair_commutes_at`]) is *localized*: it compares the
//!   joint outcome sets of firing the two pending asyncs in either order
//!   from the store in hand, including gate preservation in both directions
//!   (a gate failure or an asymmetric block after reordering counts as a
//!   conflict). [`pair_commutes_within`] extends the check one creation step
//!   at a time: a candidate must also commute with the pending asyncs the
//!   other one *creates*, evaluated at the stores where they come to exist,
//!   down to a bounded creation depth — beyond the bound the pair is
//!   conservatively treated as conflicting.
//! * **Symmetry reduction** — protocols parametric in interchangeable node
//!   identities (every case in `inseq-protocols` is) induce a permutation
//!   group on configurations; [`SymmetrySpec::canon_config`] picks the
//!   least element of each orbit so an explorer interns one representative
//!   per orbit instead of every image.
//!
//! Which reduction applies, and how the ample candidate is chosen and
//! memoized, is the policy's business: explorers consult a
//! [`ReductionPolicy`] (implemented by `inseq_engine::Reducer`) and stay
//! agnostic of the memoization strategy behind it.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::action::{ActionOutcome, PendingAsync, Transition};
use crate::cintern::ConcurrentInterner;
use crate::config::Config;
use crate::intern::{BagId, StoreId};
use crate::multiset::Multiset;
use crate::program::Program;
use crate::store::GlobalStore;

/// The canonical orbit representative of raw successor parts, interned and
/// memoized. The cache key is the raw `(store, bag)` pair — interner ids are
/// append-only, so an entry never goes stale. Shared by the sequential
/// explorer and the parallel engine's workers (each with its own cache), so
/// both quotient identically; resolution borrows from the interner without
/// locks, and re-interning locks only the shards the canonical parts hash
/// into.
pub fn canonical_parts<S: std::hash::BuildHasher>(
    interner: &ConcurrentInterner,
    cache: &mut HashMap<(StoreId, BagId), (StoreId, BagId), S>,
    spec: &SymmetrySpec,
    raw: (StoreId, BagId),
) -> (StoreId, BagId) {
    if let Some(&canon) = cache.get(&raw) {
        return canon;
    }
    let config = Config::new(interner.store(raw.0).clone(), interner.resolve_bag(raw.1));
    let canon_config = spec.canon_config(&config);
    let canon = if canon_config == config {
        raw
    } else {
        (
            interner.intern_store(&canon_config.globals),
            interner.intern_bag(&canon_config.pending),
        )
    };
    cache.insert(raw, canon);
    canon
}

/// Which reductions an exploration applies (`--reduce off|por|sym|both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceMode {
    /// No reduction: every enabled pending async of every configuration is
    /// expanded (the exhaustive baseline).
    #[default]
    Off,
    /// Partial-order reduction only.
    Por,
    /// Symmetry quotient only.
    Sym,
    /// Both reductions composed: ample expansion, then orbit
    /// canonicalization of each successor.
    Both,
}

impl ReduceMode {
    /// Every mode, in CLI presentation order.
    pub const ALL: [ReduceMode; 4] = [
        ReduceMode::Off,
        ReduceMode::Por,
        ReduceMode::Sym,
        ReduceMode::Both,
    ];

    /// The CLI name of the mode (`--reduce <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReduceMode::Off => "off",
            ReduceMode::Por => "por",
            ReduceMode::Sym => "sym",
            ReduceMode::Both => "both",
        }
    }

    /// Parses a CLI name, case-insensitively.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ReduceMode> {
        Self::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Whether partial-order reduction is on.
    #[must_use]
    pub fn por(self) -> bool {
        matches!(self, ReduceMode::Por | ReduceMode::Both)
    }

    /// Whether symmetry reduction is on.
    #[must_use]
    pub fn sym(self) -> bool {
        matches!(self, ReduceMode::Sym | ReduceMode::Both)
    }
}

impl fmt::Display for ReduceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Renames node identities inside a global store under a permutation.
pub type PermuteStore = Arc<dyn Fn(&GlobalStore, &[i64]) -> GlobalStore + Send + Sync>;
/// Renames node identities inside a pending async under a permutation.
pub type PermutePa = Arc<dyn Fn(&PendingAsync, &[i64]) -> PendingAsync + Send + Sync>;

/// A process-identity symmetry of a program: a permutation group on node
/// ids `1..=N` together with its action on stores and pending asyncs.
///
/// A spec is **sound** for a program when every permutation is an
/// automorphism of the transition relation (renaming nodes in a
/// configuration renames them identically in its successors, failures and
/// deadlocks) and the initial configuration is fixed by every permutation.
/// Protocol constructors vouch for this; the proptest suite checks
/// canonicalization laws (idempotence, permutation invariance) on reachable
/// configurations.
#[derive(Clone)]
pub struct SymmetrySpec {
    /// Non-identity permutations; `perms[k][i - 1]` is the image of node
    /// `i`. Values outside `1..=N` are left unchanged by convention.
    perms: Vec<Vec<i64>>,
    permute_store: PermuteStore,
    permute_pa: PermutePa,
}

impl fmt::Debug for SymmetrySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymmetrySpec")
            .field("perms", &self.perms)
            .finish_non_exhaustive()
    }
}

/// All permutations of `1..=n` except the identity, each as the image
/// vector `perm[i - 1] = π(i)`. The full symmetric group for small `n`;
/// callers should keep `n` tiny (the group has `n!` elements).
#[must_use]
pub fn node_permutations(n: i64) -> Vec<Vec<i64>> {
    fn heap(out: &mut Vec<Vec<i64>>, xs: &mut Vec<i64>, k: usize) {
        if k <= 1 {
            out.push(xs.clone());
            return;
        }
        for i in 0..k {
            heap(out, xs, k - 1);
            if k.is_multiple_of(2) {
                xs.swap(i, k - 1);
            } else {
                xs.swap(0, k - 1);
            }
        }
    }
    let mut all = Vec::new();
    let mut xs: Vec<i64> = (1..=n).collect();
    let identity = xs.clone();
    let k = xs.len();
    heap(&mut all, &mut xs, k);
    all.retain(|p| *p != identity);
    all.sort_unstable();
    all.dedup();
    all
}

impl SymmetrySpec {
    /// Creates a spec from explicit permutations (identity entries are
    /// dropped; canonicalization always considers the identity image).
    #[must_use]
    pub fn new(perms: Vec<Vec<i64>>, permute_store: PermuteStore, permute_pa: PermutePa) -> Self {
        let perms = perms
            .into_iter()
            .filter(|p| p.iter().enumerate().any(|(i, &v)| v != i as i64 + 1))
            .collect();
        SymmetrySpec {
            perms,
            permute_store,
            permute_pa,
        }
    }

    /// The non-identity permutations of the group.
    #[must_use]
    pub fn perms(&self) -> &[Vec<i64>] {
        &self.perms
    }

    /// The image of a store under one permutation.
    #[must_use]
    pub fn permute_store(&self, store: &GlobalStore, perm: &[i64]) -> GlobalStore {
        (self.permute_store)(store, perm)
    }

    /// The image of a pending async under one permutation.
    #[must_use]
    pub fn permute_pa(&self, pa: &PendingAsync, perm: &[i64]) -> PendingAsync {
        (self.permute_pa)(pa, perm)
    }

    /// The image of a configuration under one permutation.
    #[must_use]
    pub fn permute_config(&self, config: &Config, perm: &[i64]) -> Config {
        let globals = self.permute_store(&config.globals, perm);
        let mut pending = Multiset::new();
        for (pa, n) in config.pending.iter_counts() {
            pending.insert_n(self.permute_pa(pa, perm), n);
        }
        Config::new(globals, pending)
    }

    /// The canonical representative of a configuration's orbit: the least
    /// image (in `Config`'s derived order) over the group including the
    /// identity.
    #[must_use]
    pub fn canon_config(&self, config: &Config) -> Config {
        let mut best = config.clone();
        for perm in &self.perms {
            let image = self.permute_config(config, perm);
            if image < best {
                best = image;
            }
        }
        best
    }

    /// All images of a store under the group, including the identity.
    #[must_use]
    pub fn orbit_stores(&self, store: &GlobalStore) -> BTreeSet<GlobalStore> {
        let mut orbit = BTreeSet::new();
        orbit.insert(store.clone());
        for perm in &self.perms {
            orbit.insert(self.permute_store(store, perm));
        }
        orbit
    }

    /// Closes a set of terminal stores under the group. A quotient
    /// exploration reports orbit representatives; expanding them recovers
    /// the full terminal-store set of the unreduced exploration (which is
    /// group-closed whenever the initial configuration is symmetric).
    #[must_use]
    pub fn expand_terminals<'a>(
        &self,
        terminals: impl IntoIterator<Item = &'a GlobalStore>,
    ) -> BTreeSet<GlobalStore> {
        let mut out = BTreeSet::new();
        for t in terminals {
            out.extend(self.orbit_stores(t));
        }
        out
    }
}

/// Creation-closure depth bound of [`pair_commutes_within`]: how many
/// levels of created pending asyncs a candidate is checked against before
/// the pair is conservatively declared conflicting.
pub const PAIR_CLOSURE_DEPTH: u32 = 3;

/// The joint outcome set of firing `firsts` (the transitions of one pending
/// async) and then `second` from each resulting store: every
/// `(final store, created-by-both)` pair. `None` when `second`'s gate fails
/// after some first transition (the reordering is not failure-preserving)
/// or when evaluation errors.
fn joint_outcomes(
    program: &Program,
    firsts: &[Transition],
    second: &PendingAsync,
) -> Option<BTreeSet<(GlobalStore, Multiset<PendingAsync>)>> {
    let mut out = BTreeSet::new();
    for t in firsts {
        match program.eval_pa(&t.globals, second).ok()? {
            ActionOutcome::Failure { .. } => return None,
            ActionOutcome::Transitions(ts) => {
                for t2 in ts {
                    let mut created = t.created.clone();
                    for (pa, n) in t2.created.iter_counts() {
                        created.insert_n(pa.clone(), n);
                    }
                    out.insert((t2.globals, created));
                }
            }
        }
    }
    Some(out)
}

/// Whether two pending asyncs **commute at** `store`: neither gate fails
/// outright or after the other fires, and the joint outcome sets of the two
/// firing orders are equal. The set comparison catches asymmetric blocking
/// (one order yields successors the other cannot), so commuting pairs span
/// full diamonds. Conservative: any evaluation error counts as a conflict.
///
/// This is the localized, store-specific form of the mover conditions that
/// `inseq-mover` discharges over a whole state universe.
#[must_use]
pub fn pair_commutes_at(
    program: &Program,
    p: &PendingAsync,
    q: &PendingAsync,
    store: &GlobalStore,
) -> bool {
    let Ok(out_p) = program.eval_pa(store, p) else {
        return false;
    };
    let Ok(out_q) = program.eval_pa(store, q) else {
        return false;
    };
    let (ActionOutcome::Transitions(tp), ActionOutcome::Transitions(tq)) = (&out_p, &out_q) else {
        return false;
    };
    let Some(pq) = joint_outcomes(program, tp, q) else {
        return false;
    };
    let Some(qp) = joint_outcomes(program, tq, p) else {
        return false;
    };
    pq == qp
}

/// Whether `p` commutes with `q` at `store` **and** with everything `q`
/// creates, transitively, down to `depth` creation levels. Each created
/// pending async is checked at the store where it comes to exist (the
/// creating transition's post-store), so conflicts between `p` and tasks
/// that are not yet pending — the blind spot of a purely local pair check —
/// are caught as long as they surface within the depth bound. At depth 0 a
/// creating `q` is conservatively declared conflicting.
#[must_use]
pub fn pair_commutes_within(
    program: &Program,
    p: &PendingAsync,
    q: &PendingAsync,
    store: &GlobalStore,
    depth: u32,
) -> bool {
    if !pair_commutes_at(program, p, q, store) {
        return false;
    }
    let Ok(ActionOutcome::Transitions(tq)) = program.eval_pa(store, q) else {
        return false;
    };
    for t in &tq {
        if t.created.is_empty() {
            continue;
        }
        if depth == 0 {
            return false;
        }
        for created in t.created.distinct() {
            if !pair_commutes_within(program, p, created, &t.globals, depth - 1) {
                return false;
            }
        }
    }
    true
}

/// An exploration reduction policy, consulted by both the sequential
/// explorer ([`crate::Explorer::with_reduction`]) and the parallel engines.
///
/// Implementations own their memoization; the explorer only sees the
/// decision.
pub trait ReductionPolicy: Sync {
    /// Chooses an **ample singleton** among the distinct pending asyncs of a
    /// configuration (`pending` pairs each with its multiplicity), or `None`
    /// for full expansion. A `Some(i)` return guarantees:
    ///
    /// * no pending async fails at `store` (a failing configuration is
    ///   always fully expanded so every violation is recorded),
    /// * `pending[i]` has at least one enabled transition at `store` (ample
    ///   expansion always makes progress, so deadlock detection is
    ///   unaffected), and
    /// * `pending[i]` commutes with every other pending async — including
    ///   further instances of itself when its multiplicity exceeds one —
    ///   and with their creation closures, in the sense of
    ///   [`pair_commutes_within`].
    fn ample(
        &self,
        program: &Program,
        store: &GlobalStore,
        pending: &[(PendingAsync, usize)],
    ) -> Option<usize>;

    /// The symmetry quotient to canonicalize successors under, if any.
    fn symmetry(&self) -> Option<&SymmetrySpec>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{NativeAction, Transition};
    use crate::program::{GlobalSchema, Program};
    use crate::value::Value;

    fn writer(slot: usize, v: i64) -> NativeAction {
        NativeAction::new("W", 0, move |g: &GlobalStore, _: &[Value]| {
            let mut g = g.clone();
            g.set(slot, Value::Int(v));
            ActionOutcome::Transitions(vec![Transition::new(g, Multiset::new())])
        })
    }

    fn two_slot_program() -> Program {
        let mut b = Program::builder(GlobalSchema::new(["a", "b"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                let mut created = Multiset::new();
                created.insert(PendingAsync::new("A", vec![]));
                created.insert(PendingAsync::new("B", vec![]));
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), created)])
            }),
        );
        b.action("A", writer(0, 1));
        b.action("B", writer(1, 1));
        // C writes slot 0 too: conflicts with A (last write wins differs).
        b.action("C", writer(0, 2));
        b.build().unwrap()
    }

    #[test]
    fn disjoint_writers_commute() {
        let p = two_slot_program();
        let g = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let a = PendingAsync::new("A", vec![]);
        let b = PendingAsync::new("B", vec![]);
        assert!(pair_commutes_at(&p, &a, &b, &g));
        assert!(pair_commutes_at(&p, &b, &a, &g));
    }

    #[test]
    fn same_slot_writers_conflict() {
        let p = two_slot_program();
        let g = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let a = PendingAsync::new("A", vec![]);
        let c = PendingAsync::new("C", vec![]);
        assert!(!pair_commutes_at(&p, &a, &c, &g));
    }

    #[test]
    fn gate_failure_after_reorder_is_a_conflict() {
        // A sets x := 1; D asserts x == 0. Firing A first makes D fail, so
        // the pair must not commute even though D succeeds before A.
        let mut b = Program::builder(GlobalSchema::new(["x"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), Multiset::new())])
            }),
        );
        b.action("A", writer(0, 1));
        b.action(
            "D",
            NativeAction::new("D", 0, |g: &GlobalStore, _: &[Value]| {
                if g.get(0) == &Value::Int(0) {
                    ActionOutcome::Transitions(vec![Transition::new(g.clone(), Multiset::new())])
                } else {
                    ActionOutcome::Failure {
                        reason: "x must be 0".into(),
                    }
                }
            }),
        );
        let p = b.build().unwrap();
        let g = GlobalStore::new(vec![Value::Int(0)]);
        let a = PendingAsync::new("A", vec![]);
        let d = PendingAsync::new("D", vec![]);
        assert!(!pair_commutes_at(&p, &a, &d, &g));
    }

    #[test]
    fn asymmetric_blocking_is_a_conflict() {
        // E is enabled only while x == 0; A sets x := 1. A-then-E blocks
        // where E-then-A proceeds, so the outcome sets differ.
        let mut b = Program::builder(GlobalSchema::new(["x", "y"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), Multiset::new())])
            }),
        );
        b.action("A", writer(0, 1));
        b.action(
            "E",
            NativeAction::new("E", 0, |g: &GlobalStore, _: &[Value]| {
                if g.get(0) == &Value::Int(0) {
                    let mut g = g.clone();
                    g.set(1, Value::Int(1));
                    ActionOutcome::Transitions(vec![Transition::new(g, Multiset::new())])
                } else {
                    ActionOutcome::blocked()
                }
            }),
        );
        let p = b.build().unwrap();
        let g = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let a = PendingAsync::new("A", vec![]);
        let e = PendingAsync::new("E", vec![]);
        assert!(!pair_commutes_at(&p, &a, &e, &g));
    }

    #[test]
    fn creation_closure_catches_spawned_conflicts() {
        // B spawns C; C's behaviour depends on the slot A writes. A and B
        // commute locally, but A must not be ample past B's creation.
        let mut b = Program::builder(GlobalSchema::new(["x", "y"]));
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(g.clone(), Multiset::new())])
            }),
        );
        b.action("A", writer(0, 1));
        b.action(
            "B",
            NativeAction::new("B", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(
                    g.clone(),
                    Multiset::singleton(PendingAsync::new("C", vec![])),
                )])
            }),
        );
        b.action(
            "C",
            NativeAction::new("C", 0, |g: &GlobalStore, _: &[Value]| {
                if g.get(0) == &Value::Int(0) {
                    let mut g = g.clone();
                    g.set(1, Value::Int(1));
                    ActionOutcome::Transitions(vec![Transition::new(g, Multiset::new())])
                } else {
                    ActionOutcome::Transitions(vec![Transition::new(g.clone(), Multiset::new())])
                }
            }),
        );
        let p = b.build().unwrap();
        let g = GlobalStore::new(vec![Value::Int(0), Value::Int(0)]);
        let a = PendingAsync::new("A", vec![]);
        let bb = PendingAsync::new("B", vec![]);
        assert!(pair_commutes_at(&p, &a, &bb, &g), "locally they commute");
        assert!(
            !pair_commutes_within(&p, &a, &bb, &g, PAIR_CLOSURE_DEPTH),
            "the creation closure exposes the conflict with C"
        );
    }

    #[test]
    fn reduce_mode_names_round_trip() {
        for m in ReduceMode::ALL {
            assert_eq!(ReduceMode::from_name(m.name()), Some(m));
        }
        assert_eq!(ReduceMode::from_name("BOTH"), Some(ReduceMode::Both));
        assert_eq!(ReduceMode::from_name("nope"), None);
        assert!(ReduceMode::Both.por() && ReduceMode::Both.sym());
        assert!(!ReduceMode::Off.por() && !ReduceMode::Off.sym());
    }

    #[test]
    fn node_permutations_enumerate_the_symmetric_group() {
        assert_eq!(node_permutations(1), Vec::<Vec<i64>>::new());
        assert_eq!(node_permutations(2), vec![vec![2, 1]]);
        assert_eq!(node_permutations(3).len(), 5);
    }

    fn swap_spec() -> SymmetrySpec {
        // One Int slot holding a node id in 1..=2.
        let permute_store: PermuteStore = Arc::new(|g, perm| {
            let Value::Int(n) = *g.get(0) else {
                return g.clone();
            };
            let mapped = if (1..=perm.len() as i64).contains(&n) {
                perm[(n - 1) as usize]
            } else {
                n
            };
            GlobalStore::new(vec![Value::Int(mapped)])
        });
        let permute_pa: PermutePa = Arc::new(|pa, _| pa.clone());
        SymmetrySpec::new(node_permutations(2), permute_store, permute_pa)
    }

    #[test]
    fn canon_is_idempotent_and_orbit_invariant() {
        let spec = swap_spec();
        for n in 1..=2 {
            let c = Config::new(
                GlobalStore::new(vec![Value::Int(n)]),
                Multiset::singleton(PendingAsync::new("Main", vec![])),
            );
            let canon = spec.canon_config(&c);
            assert_eq!(spec.canon_config(&canon), canon);
            for perm in spec.perms() {
                assert_eq!(spec.canon_config(&spec.permute_config(&c, perm)), canon);
            }
        }
        // Both orbit members canonicalize to node 1.
        let c2 = Config::new(GlobalStore::new(vec![Value::Int(2)]), Multiset::new());
        assert_eq!(
            spec.canon_config(&c2).globals,
            GlobalStore::new(vec![Value::Int(1)])
        );
    }

    #[test]
    fn expand_terminals_recovers_the_orbit() {
        let spec = swap_spec();
        let rep = GlobalStore::new(vec![Value::Int(1)]);
        let expanded = spec.expand_terminals([&rep]);
        assert_eq!(expanded.len(), 2);
        assert!(expanded.contains(&GlobalStore::new(vec![Value::Int(2)])));
    }
}
