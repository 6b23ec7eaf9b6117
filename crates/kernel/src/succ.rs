//! The successor cache both explorers expand through.
//!
//! Firing a pending async depends only on the `(store, pending async)`
//! pair, and many configurations share a store while differing only in
//! their pending bags. [`SuccessorCache`] therefore keeps, per
//! `(StoreId, PaId)`, the *interned* outcome of that firing: the successor
//! stores and the created pendings as canonical entries, or the gate
//! failure. An expansion runs in three steps:
//!
//! 1. [`probe`](SuccessorCache::probe) every selected pending; a hit needs
//!    no evaluation and already knows its successor count;
//! 2. [`fill`](SuccessorCache::fill) the cache from the freshly evaluated
//!    misses: each transition is staged as its strictly changed slots
//!    (bounded by the action's footprint write set) and its created
//!    pendings, and the changed values, successor stores and created
//!    entries are interned in one shard-grouped pass per kind;
//! 3. [`apply`](SuccessorCache::apply) the cached outcomes of every
//!    selected pending to the configuration under expansion: failures are
//!    reported (a cached failure at *every* configuration that fires it),
//!    and each transition's bag is merged into the parent's and interned.
//!
//! What is left per configuration (symmetry canonicalization, config
//! interning with parent edges, budget checks) belongs to the explorer.
//!
//! Ids are append-only, so an entry stays sound for the whole run. The
//! cache is epoch-evicted at [`SUCC_CACHE_CAP`] entries, only between
//! expansions, so every pending of the round in progress stays resident.
//! After [`SUCC_WARMUP_PROBES`] probes a hit rate under
//! [`SUCC_MIN_HIT_PCT`] percent flips the cache to *bypass*: probing stops,
//! the map is dropped, and outcomes pass from `fill` to `apply` through
//! the round's own slots. Entries are ranges into flat arenas, so a miss
//! allocates nothing of its own.

use crate::action::{ActionName, ActionOutcome, PendingAsync, Transition};
use crate::cintern::ConcurrentInterner;
use crate::hash::FxHashMap;
use crate::intern::{BagId, PaId, StoreId};
use crate::multiset::Multiset;
use crate::program::Program;
use crate::value::Value;

/// Capacity of a successor cache. The map is cleared wholesale before an
/// expansion that could overflow it, never mid-expansion.
pub const SUCC_CACHE_CAP: usize = 1 << 18;

/// Probes observed before judging whether the cache earns its keep on
/// this program.
pub const SUCC_WARMUP_PROBES: u64 = 8192;

/// Minimum hit percentage after warmup; below it the cache goes to bypass.
/// Programs whose `(store, pending)` pairs almost never repeat would
/// otherwise grow a map of hundreds of thousands of entries whose cold
/// inserts cost more than the evaluations they can never save. Paxos shows
/// both sides: its atomic-action program `P2` repeats no pair at
/// `R = 3, N = 2`, while its implementation `P1` repeats 97.6 % of them.
pub const SUCC_MIN_HIT_PCT: u64 = 10;

/// One transition as a write-delta: the post-values of the firing action's
/// written slots and the created pendings. Replayed against any store that
/// agrees with the evaluated one on the action's footprint, it yields what
/// evaluation would.
#[derive(Debug)]
pub struct DeltaTransition {
    /// `(slot, post-value)` for every slot of the footprint's write set.
    pub writes: Vec<(usize, Value)>,
    /// The created pending asyncs.
    pub created: Multiset<PendingAsync>,
}

/// An evaluated firing, as [`SuccessorCache::fill`] stages it.
#[derive(Debug, Clone, Copy)]
pub enum Firing<'a> {
    /// The gate is violated, with this message.
    Failure(&'a str),
    /// Full transitions, diffed against the parent store.
    Full(&'a [Transition]),
    /// Write-deltas, replayed against the parent store.
    Delta(&'a [DeltaTransition]),
}

impl<'a> From<&'a ActionOutcome> for Firing<'a> {
    fn from(outcome: &'a ActionOutcome) -> Self {
        match outcome {
            ActionOutcome::Failure { reason } => Firing::Failure(reason),
            ActionOutcome::Transitions(ts) => Firing::Full(ts),
        }
    }
}

/// The interned outcome of firing one pending async on one store, as
/// ranges into the cache's arenas.
#[derive(Debug, Clone, Copy)]
enum Cached {
    /// The firing violates its gate; the reason is `reasons[i]`.
    Failure(usize),
    /// One arena step per nondeterministic transition: `steps[start..start
    /// + len]`.
    Steps { start: usize, len: usize },
}

impl Cached {
    fn successors(self) -> usize {
        match self {
            Cached::Failure(_) => 0,
            Cached::Steps { len, .. } => len,
        }
    }
}

/// A `(store, pending async)` → interned-successors cache with its own
/// warmup bypass, plus the buffers of the round in progress. One per
/// exploring thread.
pub struct SuccessorCache {
    /// Each action's footprint write set, bounding the slots a firing can
    /// change (absent for opaque actions: every slot is compared).
    writes: FxHashMap<ActionName, Vec<usize>>,
    map: FxHashMap<(StoreId, PaId), Cached>,
    /// Arenas behind the entries, cleared with the map. Per transition:
    /// the successor store and the span of its created entries in
    /// `created`, canonical and ready for the bag merge.
    steps: Vec<(StoreId, usize, usize)>,
    created: Vec<(PaId, u32)>,
    reasons: Vec<String>,
    /// The round in progress: one slot per probe, in order — the hit, or
    /// `None` until [`fill`](Self::fill) resolves the miss.
    round: Vec<Option<Cached>>,
    probes: u64,
    hits: u64,
    bypass: bool,
    /// Interning scratch, reused across rounds.
    store_buf: Vec<StoreId>,
    entry_buf: Vec<(PaId, u32)>,
    /// The last applied round, one entry per transition, aligned.
    fired: Vec<PaId>,
    stores: Vec<StoreId>,
    bags: Vec<BagId>,
    /// Every successor bag's merged entries, back to back, and their spans.
    bag_data: Vec<(PaId, u32)>,
    spans: Vec<(usize, usize)>,
}

impl SuccessorCache {
    /// An empty cache for `program`'s actions.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        SuccessorCache {
            writes: program
                .actions()
                .filter_map(|(name, a)| a.footprint().map(|f| (name.clone(), f.writes)))
                .collect(),
            map: FxHashMap::default(),
            steps: Vec::new(),
            created: Vec::new(),
            reasons: Vec::new(),
            round: Vec::new(),
            probes: 0,
            hits: 0,
            bypass: false,
            store_buf: Vec::new(),
            entry_buf: Vec::new(),
            fired: Vec::new(),
            stores: Vec::new(),
            bags: Vec::new(),
            bag_data: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the expansion of a configuration with `distinct` pending
    /// asyncs: takes the post-warmup bypass decision, then evicts when the
    /// expansion could overflow the cap. In bypass every expansion starts
    /// empty and the map is never touched.
    pub fn begin(&mut self, distinct: usize) {
        if !self.bypass
            && self.probes >= SUCC_WARMUP_PROBES
            && self.hits * 100 < self.probes * SUCC_MIN_HIT_PCT
        {
            self.bypass = true;
            self.map = FxHashMap::default();
        }
        if self.bypass || self.map.len() + distinct > SUCC_CACHE_CAP {
            self.map.clear();
            self.steps.clear();
            self.created.clear();
            self.reasons.clear();
        }
        self.round.clear();
    }

    /// Probes the next pending async of the round: the successor count of
    /// firing `paid` on `sid` (zero for a gate failure) when the cache
    /// holds that outcome. `None` means it must be evaluated and passed to
    /// [`fill`](Self::fill). Always `None` in bypass, where nothing is
    /// counted.
    pub fn probe(&mut self, sid: StoreId, paid: PaId) -> Option<usize> {
        let hit = if self.bypass {
            None
        } else {
            self.probes += 1;
            let hit = self.map.get(&(sid, paid)).copied();
            self.hits += u64::from(hit.is_some());
            hit
        };
        self.round.push(hit);
        hit.map(Cached::successors)
    }

    /// Resolves the round's misses, in probe order, from their evaluated
    /// outcomes on the store `sid`. Transitions are staged as strict diffs
    /// against the parent store, then the changed values, the successor
    /// stores and the created pendings are interned, one shard-grouped pass
    /// per kind.
    ///
    /// # Panics
    ///
    /// Panics if there are more outcomes than unresolved probes.
    pub fn fill<'o>(
        &mut self,
        interner: &ConcurrentInterner,
        sid: StoreId,
        outcomes: impl IntoIterator<Item = (PaId, Firing<'o>)>,
    ) {
        let parent_slots = interner.store_slots(sid);
        let mut changed: Vec<(usize, &Value)> = Vec::new();
        let mut changed_spans: Vec<(usize, usize)> = Vec::new();
        let mut created: Vec<&Multiset<PendingAsync>> = Vec::new();
        let mut misses = self.round.iter_mut().filter(|slot| slot.is_none());
        for (paid, firing) in outcomes {
            let start = self.steps.len() + changed_spans.len();
            let entry = match firing {
                Firing::Failure(reason) => {
                    self.reasons.push(reason.to_owned());
                    Cached::Failure(self.reasons.len() - 1)
                }
                Firing::Full(transitions) => {
                    let hint = self.writes.get(&interner.pa(paid).action);
                    for t in transitions {
                        let at = changed.len();
                        interner.changed_slots(
                            sid,
                            &t.globals,
                            hint.map(Vec::as_slice),
                            &mut changed,
                        );
                        changed_spans.push((at, changed.len()));
                        created.push(&t.created);
                    }
                    Cached::Steps {
                        start,
                        len: transitions.len(),
                    }
                }
                Firing::Delta(transitions) => {
                    for t in transitions {
                        let at = changed.len();
                        for (i, v) in &t.writes {
                            if interner.value(parent_slots[*i]) != v {
                                changed.push((*i, v));
                            }
                        }
                        changed_spans.push((at, changed.len()));
                        created.push(&t.created);
                    }
                    Cached::Steps {
                        start,
                        len: transitions.len(),
                    }
                }
            };
            // The entry's steps land in the arena below, before any read.
            *misses.next().expect("one probe per evaluated outcome") = Some(entry);
            if !self.bypass {
                self.map.insert((sid, paid), entry);
            }
        }
        if !changed_spans.is_empty() {
            interner.intern_successor_stores(sid, &changed, &changed_spans, &mut self.store_buf);
            interner.intern_created(&created, &mut self.entry_buf);
            let mut at = self.created.len();
            self.created.extend_from_slice(&self.entry_buf);
            for (&store, bag) in self.store_buf.iter().zip(&created) {
                let n = bag.distinct_len();
                self.steps.push((store, at, n));
                at += n;
            }
        }
    }

    /// Applies the round's outcomes, in order, to the configuration under
    /// expansion, whose bag is `bagid`; `selected` names the round's probed pending asyncs (a
    /// trailing probe whose evaluation failed is dropped). Each failure
    /// goes to `on_failure`; every transition's bag — the parent's minus
    /// the fired pending plus the created ones — is interned, and
    /// [`successors`](Self::successors) lists the round. Returns whether
    /// any selected pending failed or had a transition.
    ///
    /// # Panics
    ///
    /// Panics if a selected pending was neither a hit nor filled (an
    /// explorer bug).
    pub fn apply(
        &mut self,
        interner: &ConcurrentInterner,
        bagid: BagId,
        selected: &[PaId],
        mut on_failure: impl FnMut(PaId, &str),
    ) -> bool {
        self.fired.clear();
        self.stores.clear();
        self.bag_data.clear();
        self.spans.clear();
        let mut progressed = false;
        for (k, &paid) in selected.iter().enumerate() {
            match self.round[k].expect("a probed pending async must be resolved") {
                Cached::Failure(reason) => {
                    progressed = true;
                    on_failure(paid, &self.reasons[reason]);
                }
                Cached::Steps { start, len } => {
                    progressed |= len > 0;
                    for &(store, at, n) in &self.steps[start..start + len] {
                        let from = self.bag_data.len();
                        interner.bag_after(
                            bagid,
                            paid,
                            &self.created[at..at + n],
                            &mut self.bag_data,
                        );
                        self.spans.push((from, self.bag_data.len()));
                        self.fired.push(paid);
                        self.stores.push(store);
                    }
                }
            }
        }
        self.round.clear();
        interner.intern_bags(&self.bag_data, &self.spans, &mut self.bags);
        progressed
    }

    /// The successors of the last applied round, in firing order: the
    /// fired pending async and the successor's store and bag.
    pub fn successors(&self) -> impl ExactSizeIterator<Item = (PaId, (StoreId, BagId))> + '_ {
        self.fired
            .iter()
            .zip(self.stores.iter().zip(&self.bags))
            .map(|(&p, (&s, &b))| (p, (s, b)))
    }

    /// Probes answered from the cache (hits) and probes that had to
    /// evaluate (misses); bypassed expansions are not counted.
    #[must_use]
    pub fn stats(&self) -> inseq_obs::HitMissSnapshot {
        inseq_obs::HitMissSnapshot::new(self.hits, self.probes - self.hits)
    }

    /// Whether the warmup sent the cache to bypass.
    #[must_use]
    pub fn bypassed(&self) -> bool {
        self.bypass
    }
}
