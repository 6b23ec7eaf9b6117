//! The shared footprint-keyed evaluation memo of
//! [`crate::ParallelExplorer`].
//!
//! All workers share one memo so no shard repeats another's interpreter
//! work. Actions that expose a [`Footprint`] (every DSL action does) are
//! keyed on the *projection* of the global store onto the indices they read
//! or write, with outcomes stored as write-deltas; two configurations that
//! differ only in globals an action never touches then share one
//! evaluation. Protocols whose footprints span the hot globals (e.g.
//! Paxos, where every action handles the message bag) see few hits, and
//! the memo disables itself after a short probation.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use inseq_obs::HitMissSnapshot;

use inseq_kernel::hash::{FxHashMap, FxHasher};
use inseq_kernel::succ::{DeltaTransition, Firing};
use inseq_kernel::{
    ActionName, ActionOutcome, Footprint, GlobalStore, PendingAsync, Program, Value,
};

/// Evaluation-memo probation: after this many lookups a worker keeps the
/// memo only if at least 1 in [`MEMO_MIN_HIT_SHIFT`] was a hit.
pub(crate) const MEMO_PROBATION: usize = 256;
/// Minimum hit rate to keep the memo, expressed as a right shift: hits must
/// exceed `lookups >> MEMO_MIN_HIT_SHIFT` (i.e. 1/8) after probation.
pub(crate) const MEMO_MIN_HIT_SHIFT: u32 = 3;

/// How to memoize one action, derived from its [`Footprint`].
#[derive(Debug)]
pub(crate) struct MemoPlan {
    /// Sorted `reads ∪ writes`: the store projection that determines the
    /// outcome *and* every recorded write value.
    pub(crate) key: Vec<usize>,
    /// Sorted write indices whose post-values are recorded per transition.
    pub(crate) writes: Vec<usize>,
}

impl MemoPlan {
    fn of(fp: &Footprint) -> Self {
        MemoPlan {
            key: fp.key_indices(),
            writes: fp.writes.clone(),
        }
    }
}

/// The per-action memoization plans of a program (absent for opaque
/// actions).
pub(crate) fn build_plans(program: &Program) -> HashMap<ActionName, MemoPlan> {
    program
        .actions()
        .filter_map(|(name, action)| {
            action
                .footprint()
                .map(|fp| (name.clone(), MemoPlan::of(&fp)))
        })
        .collect()
}

/// A memoized evaluation outcome.
#[derive(Debug)]
pub(crate) enum CachedOutcome {
    Failure(String),
    Transitions(Vec<DeltaTransition>),
}

impl CachedOutcome {
    fn of(out: &ActionOutcome, plan: &MemoPlan) -> Self {
        match out {
            ActionOutcome::Failure { reason } => CachedOutcome::Failure(reason.clone()),
            ActionOutcome::Transitions(ts) => CachedOutcome::Transitions(
                ts.iter()
                    .map(|t| DeltaTransition {
                        writes: plan
                            .writes
                            .iter()
                            .map(|&i| (i, t.globals.get(i).clone()))
                            .collect(),
                        created: t.created.clone(),
                    })
                    .collect(),
            ),
        }
    }
}

/// One memo entry: the owned key — a pending async plus the projection of
/// the global store onto the action's footprint — and the cached outcome. By
/// the footprint contract the outcome, restricted to the written indices, is
/// a function of exactly this key.
#[derive(Debug)]
struct MemoEntry {
    action: ActionName,
    args: Vec<Value>,
    store_key: Vec<Value>,
    outcome: Arc<CachedOutcome>,
}

impl MemoEntry {
    /// Whether this entry's key equals `(pa, globals|plan.key)` — compared
    /// entirely by reference, so probing never clones a value.
    fn matches(&self, pa: &PendingAsync, plan: &MemoPlan, globals: &GlobalStore) -> bool {
        self.action == pa.action
            && self.args == pa.args
            && self
                .store_key
                .iter()
                .zip(plan.key.iter())
                .all(|(v, &i)| v == globals.get(i))
    }
}

/// The deterministic hash of a memo key, computed from borrowed data.
fn memo_key_hash(pa: &PendingAsync, plan: &MemoPlan, globals: &GlobalStore) -> u64 {
    let mut hasher = FxHasher::default();
    pa.action.hash(&mut hasher);
    pa.args.hash(&mut hasher);
    for &i in &plan.key {
        globals.get(i).hash(&mut hasher);
    }
    hasher.finish()
}

/// The footprint memo, shared by all workers so no evaluation is ever
/// repeated across shards. Entries are bucketed by the 64-bit key hash and
/// disambiguated by exact (reference-based) comparison; the mutex is held
/// only for probes and inserts, never across an evaluation. When the hit
/// rate stays below 1 in 2^[`MEMO_MIN_HIT_SHIFT`] after
/// [`MEMO_PROBATION`] lookups, `enabled` flips off and workers stop taking
/// the lock altogether.
#[derive(Debug)]
pub(crate) struct SharedMemo {
    pub(crate) enabled: AtomicBool,
    inner: Mutex<EvalMemo>,
}

impl SharedMemo {
    /// A fresh memo for programs where at least one action has a footprint;
    /// returns `None` otherwise (no key to memoize on).
    pub(crate) fn for_plans(plans_empty: bool) -> Option<SharedMemo> {
        if plans_empty {
            None
        } else {
            Some(SharedMemo {
                enabled: AtomicBool::new(true),
                inner: Mutex::new(EvalMemo::default()),
            })
        }
    }

    /// Probes the memo for `(pa, globals|plan.key)`, updating the lookup
    /// and probation accounting. The lock is held only for the probe.
    pub(crate) fn probe(
        &self,
        pa: &PendingAsync,
        plan: &MemoPlan,
        globals: &GlobalStore,
    ) -> Option<Arc<CachedOutcome>> {
        let kh = memo_key_hash(pa, plan, globals);
        let mut inner = self.inner.lock().expect("memo lock poisoned");
        inner.lookups += 1;
        if inner.lookups >= MEMO_PROBATION && inner.hits <= inner.lookups >> MEMO_MIN_HIT_SHIFT {
            self.enabled.store(false, Ordering::Relaxed);
        }
        let found = inner.map.get(&kh).and_then(|bucket| {
            bucket
                .iter()
                .find(|e| e.matches(pa, plan, globals))
                .map(|e| Arc::clone(&e.outcome))
        });
        if found.is_some() {
            inner.hits += 1;
        }
        found
    }

    /// Publishes a freshly computed outcome. A racing worker may have
    /// inserted the same key meanwhile; evaluation is deterministic, so the
    /// first entry is kept.
    pub(crate) fn publish(
        &self,
        pa: &PendingAsync,
        plan: &MemoPlan,
        globals: &GlobalStore,
        out: &ActionOutcome,
    ) {
        let kh = memo_key_hash(pa, plan, globals);
        let entry = MemoEntry {
            action: pa.action.clone(),
            args: pa.args.clone(),
            store_key: plan.key.iter().map(|&i| globals.get(i).clone()).collect(),
            outcome: Arc::new(CachedOutcome::of(out, plan)),
        };
        let mut inner = self.inner.lock().expect("memo lock poisoned");
        let bucket = inner.map.entry(kh).or_default();
        if !bucket.iter().any(|e| e.matches(pa, plan, globals)) {
            bucket.push(entry);
        }
    }

    /// Hit/miss totals accumulated so far.
    pub(crate) fn snapshot(&self) -> HitMissSnapshot {
        let inner = self.inner.lock().expect("memo lock poisoned");
        HitMissSnapshot::new(inner.hits as u64, (inner.lookups - inner.hits) as u64)
    }
}

#[derive(Debug, Default)]
struct EvalMemo {
    map: FxHashMap<u64, Vec<MemoEntry>>,
    lookups: usize,
    hits: usize,
}

/// An evaluation outcome in hand: freshly computed, or reconstructible from
/// the memo.
pub(crate) enum Resolved {
    Owned(ActionOutcome),
    Cached(Arc<CachedOutcome>),
}

impl Resolved {
    /// The firing as the successor cache stages it: memo hits replay
    /// their write-deltas.
    pub(crate) fn view(&self) -> Firing<'_> {
        match self {
            Resolved::Owned(out) => out.into(),
            Resolved::Cached(cached) => match cached.as_ref() {
                CachedOutcome::Failure(reason) => Firing::Failure(reason),
                CachedOutcome::Transitions(ts) => Firing::Delta(ts),
            },
        }
    }
}
