//! Hash-consed interning of exploration state.
//!
//! Explicit-state exploration spends its time asking one question — *have I
//! seen this configuration before?* — and answering it over tree-structured
//! data (`Value` trees inside a [`GlobalStore`], a `BTreeMap`-backed
//! [`Multiset`] of [`PendingAsync`]s) costs a deep hash plus a deep
//! comparison per candidate. The [`Interner`] replaces that with *hash
//! consing*: every distinct value, store, pending async, pending bag, and
//! configuration is placed in an append-only arena exactly once and named by
//! a dense `u32` id. Because insertion deduplicates structurally, the map
//! from id to object is injective, so **id equality is structural equality**
//! and comparing or hashing interned state is O(1).
//!
//! Layering (each level's key is a sequence of ids from the level below, so
//! injectivity lifts inductively):
//!
//! * [`ValueId`] — one arena entry per distinct [`Value`] tree (slot values
//!   of stores). Deduplicated by full-tree hash + equality, paid once per
//!   *distinct* value ever seen, not once per transition.
//! * [`StoreId`] — a [`GlobalStore`] keyed by its `Vec<ValueId>` slot
//!   vector. Successor stores are interned from their parent's slot vector
//!   plus the action's write set, so unchanged slots are never re-hashed —
//!   this is where structural sharing replaces the per-transition deep
//!   clone.
//! * [`PaId`] — one entry per distinct [`PendingAsync`].
//! * [`BagId`] — a pending multiset as a `Vec<(PaId, count)>` sorted by the
//!   *resolved* pending-async order, which keeps iteration order identical
//!   to `Multiset::distinct()` while successor bags are produced by a
//!   small-diff rebuild (copy parent entries, decrement the consumed async,
//!   merge the created ones) instead of cloning a `BTreeMap`.
//! * [`ConfigId`] — a configuration as the pair `(StoreId, BagId)`; the
//!   explorer's visited set is just this arena, and membership is a probe
//!   over two `u32`s.
//!
//! Arenas grow append-only and ids are never invalidated, so resolved
//! references (`&Value`, `&GlobalStore`, `&PendingAsync`) stay valid for the
//! interner's lifetime. The interner is single-threaded: the sequential
//! explorer and the certification path use it directly, while the parallel
//! engine shares one [`crate::cintern::ConcurrentInterner`] — the same
//! layering over segmented arenas and sharded dedup indexes — across all
//! of its workers (see DESIGN.md).

use std::hash::Hasher;

use crate::action::PendingAsync;
use crate::config::Config;
use crate::hash::{fx_hash, FxHasher};
use crate::multiset::Multiset;
use crate::store::GlobalStore;
use crate::value::Value;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// The id as a dense array index.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw dense id (crate-internal: the concurrent interner
            /// allocates and decodes ids across modules).
            #[allow(dead_code)] // not every id kind crosses modules
            pub(crate) fn raw(self) -> u32 {
                self.0
            }

            /// Wraps a raw dense id (crate-internal counterpart of
            /// [`raw`](Self::raw)).
            #[allow(dead_code)]
            pub(crate) fn from_raw(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// The id of an interned [`Value`].
    ValueId
);
id_type!(
    /// The id of an interned [`GlobalStore`].
    StoreId
);
id_type!(
    /// The id of an interned [`PendingAsync`].
    PaId
);
id_type!(
    /// The id of an interned argument list (used by evaluation memos).
    ArgsId
);
id_type!(
    /// The id of an interned pending-async multiset.
    BagId
);
id_type!(
    /// The id of an interned configuration `(g, Ω)`.
    ConfigId
);

/// An open-addressing table from precomputed hashes to arena ids: `(hash,
/// id + 1)` per slot, 0 marking empty. The arena owns the objects; the
/// table only resolves hash → candidate ids, with the caller supplying the
/// equality check (so a collision costs a comparison, never a wrong id).
/// Crate-visible: the concurrent interner reuses it as the per-shard dedup
/// index (one table per shard, each behind its own short lock).
#[derive(Debug, Clone)]
pub(crate) struct IdTable {
    slots: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl IdTable {
    const INITIAL_SLOTS: usize = 64;

    pub(crate) fn new() -> Self {
        IdTable {
            slots: vec![(0, 0); Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS - 1,
            len: 0,
        }
    }

    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut slot = (hash as usize) & self.mask;
        loop {
            let (h, idx1) = self.slots[slot];
            if idx1 == 0 {
                return None;
            }
            if h == hash && eq(idx1 - 1) {
                return Some(idx1 - 1);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Inserts a fresh id (the caller has verified absence via [`find`]).
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        let mut slot = (hash as usize) & self.mask;
        while self.slots[slot].1 != 0 {
            slot = (slot + 1) & self.mask;
        }
        self.slots[slot] = (hash, id + 1);
        self.len += 1;
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        self.mask = cap - 1;
        for (h, idx1) in old {
            if idx1 != 0 {
                let mut slot = (h as usize) & self.mask;
                while self.slots[slot].1 != 0 {
                    slot = (slot + 1) & self.mask;
                }
                self.slots[slot] = (h, idx1);
            }
        }
    }
}

pub(crate) fn hash_value_ids(ids: &[ValueId]) -> u64 {
    let mut h = FxHasher::default();
    for id in ids {
        h.write_u32(id.0);
    }
    h.finish()
}

pub(crate) fn hash_bag_entries(entries: &[(PaId, u32)]) -> u64 {
    let mut h = FxHasher::default();
    for (p, c) in entries {
        h.write_u32(p.0);
        h.write_u32(*c);
    }
    h.finish()
}

pub(crate) fn hash_config_parts(store: StoreId, bag: BagId) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(store.0);
    h.write_u32(bag.0);
    h.finish()
}

fn next_id(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("{what} arena exceeds u32 capacity"))
}

/// How [`Interner::finish_store`] materializes a fresh store.
enum StoreMiss<'a> {
    /// Clone the given store.
    Clone(&'a GlobalStore),
    /// Clone the parent store and apply the write-delta.
    Overlay(StoreId, &'a [(usize, Value)]),
}

/// The append-only, hash-consed arenas (see the module docs for the id
/// scheme and the sharing argument).
///
/// # Struct-of-arrays id storage
///
/// The hot-loop data — store slot-id vectors and bag entry vectors — is kept
/// in *flat* arrays rather than one heap allocation per store/bag: store
/// slot ids live in a single dense `Vec<ValueId>` and bag entries in one
/// `Vec<(PaId, u32)>`, each addressed through per-object `(offset, len)`
/// spans. Walking a store's slot ids or a bag's entries is then a bounds
/// check into a dense array the prefetcher already has, instead of a pointer
/// chase to a separate allocation per object — which is what the explorer's
/// successor loop does for every transition.
#[derive(Debug, Clone)]
pub struct Interner {
    values: Vec<Value>,
    value_table: IdTable,
    stores: Vec<GlobalStore>,
    /// All interned stores' slot ids, flattened; spans index it.
    store_keys: Vec<ValueId>,
    /// Per-store `(offset, len)` into `store_keys`.
    store_spans: Vec<(u32, u32)>,
    store_table: IdTable,
    pas: Vec<PendingAsync>,
    pa_table: IdTable,
    args_lists: Vec<Vec<Value>>,
    args_table: IdTable,
    /// All interned bags' canonical entries, flattened; spans index it.
    bag_data: Vec<(PaId, u32)>,
    /// Per-bag `(offset, len)` into `bag_data`.
    bag_spans: Vec<(u32, u32)>,
    bag_table: IdTable,
    configs: Vec<(StoreId, BagId)>,
    config_table: IdTable,
    /// Reusable slot-vector buffer for store interning.
    scratch_slots: Vec<ValueId>,
    /// Reusable entry buffer for bag interning.
    scratch_bag: Vec<(PaId, u32)>,
    /// Configuration interning attempts that found an existing id (a
    /// duplicate configuration was deduplicated instead of re-explored).
    config_hits: u64,
    /// Configuration interning attempts that allocated a fresh id.
    config_misses: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Interner {
            values: Vec::new(),
            value_table: IdTable::new(),
            stores: Vec::new(),
            store_keys: Vec::new(),
            store_spans: Vec::new(),
            store_table: IdTable::new(),
            pas: Vec::new(),
            pa_table: IdTable::new(),
            args_lists: Vec::new(),
            args_table: IdTable::new(),
            bag_data: Vec::new(),
            bag_spans: Vec::new(),
            bag_table: IdTable::new(),
            configs: Vec::new(),
            config_table: IdTable::new(),
            scratch_slots: Vec::new(),
            scratch_bag: Vec::new(),
            config_hits: 0,
            config_misses: 0,
        }
    }

    // ----- values -----------------------------------------------------

    /// Interns a value; the tree is cloned only the first time it is seen.
    pub fn intern_value(&mut self, v: &Value) -> ValueId {
        let hash = fx_hash(v);
        let values = &self.values;
        if let Some(id) = self.value_table.find(hash, |id| values[id as usize] == *v) {
            return ValueId(id);
        }
        let id = next_id(self.values.len(), "value");
        self.values.push(v.clone());
        self.value_table.insert(hash, id);
        ValueId(id)
    }

    /// Read-only probe: the id of `v` if it has been interned.
    #[must_use]
    pub fn find_value(&self, v: &Value) -> Option<ValueId> {
        let values = &self.values;
        self.value_table
            .find(fx_hash(v), |id| values[id as usize] == *v)
            .map(ValueId)
    }

    /// Resolves an interned value.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of distinct interned values.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    // ----- stores -----------------------------------------------------

    /// Interns a global store by interning every slot value.
    pub fn intern_store(&mut self, store: &GlobalStore) -> StoreId {
        self.scratch_slots.clear();
        for v in store.iter() {
            let id = self.intern_value(v);
            self.scratch_slots.push(id);
        }
        self.finish_store(StoreMiss::Clone(store))
    }

    /// Interns the successor of `parent` whose post-state is `new`,
    /// re-examining only the slots in `writes` (the action's footprint
    /// contract guarantees all other slots are unchanged); `None` means the
    /// action is opaque and every slot is compared. Unchanged slots reuse
    /// the parent's value ids without hashing anything.
    pub fn intern_store_diff(
        &mut self,
        parent: StoreId,
        new: &GlobalStore,
        writes: Option<&[usize]>,
    ) -> StoreId {
        {
            let (off, len) = self.store_spans[parent.index()];
            let (scratch, keys) = (&mut self.scratch_slots, &self.store_keys);
            scratch.clear();
            scratch.extend_from_slice(&keys[off as usize..(off + len) as usize]);
        }
        match writes {
            Some(ws) => {
                for &i in ws {
                    self.update_slot(i, new.get(i));
                }
            }
            None => {
                for (i, v) in new.iter().enumerate() {
                    self.update_slot(i, v);
                }
            }
        }
        self.finish_store(StoreMiss::Clone(new))
    }

    /// Like [`intern_store_diff`](Self::intern_store_diff) for a successor
    /// described as parent plus a write-delta (the memoized-evaluation
    /// path); the post-store is materialized only if it turns out fresh.
    pub fn intern_store_writes(&mut self, parent: StoreId, writes: &[(usize, Value)]) -> StoreId {
        {
            let (off, len) = self.store_spans[parent.index()];
            let (scratch, keys) = (&mut self.scratch_slots, &self.store_keys);
            scratch.clear();
            scratch.extend_from_slice(&keys[off as usize..(off + len) as usize]);
        }
        for (i, v) in writes {
            self.update_slot(*i, v);
        }
        self.finish_store(StoreMiss::Overlay(parent, writes))
    }

    fn update_slot(&mut self, i: usize, v: &Value) {
        let cur = self.scratch_slots[i];
        if self.values[cur.index()] == *v {
            return;
        }
        let id = self.intern_value(v);
        self.scratch_slots[i] = id;
    }

    fn finish_store(&mut self, miss: StoreMiss<'_>) -> StoreId {
        let hash = hash_value_ids(&self.scratch_slots);
        {
            let (spans, keys, scratch) = (&self.store_spans, &self.store_keys, &self.scratch_slots);
            if let Some(id) = self.store_table.find(hash, |id| {
                let (off, len) = spans[id as usize];
                keys[off as usize..(off + len) as usize] == **scratch
            }) {
                return StoreId(id);
            }
        }
        let store = match miss {
            StoreMiss::Clone(g) => g.clone(),
            StoreMiss::Overlay(parent, writes) => {
                let mut g = self.stores[parent.index()].clone();
                for (i, v) in writes {
                    g.set(*i, v.clone());
                }
                g
            }
        };
        let id = next_id(self.stores.len(), "store");
        let off = u32::try_from(self.store_keys.len()).expect("store arena exceeds u32 capacity");
        let len = u32::try_from(self.scratch_slots.len()).expect("store exceeds u32 slots");
        self.stores.push(store);
        self.store_keys.extend_from_slice(&self.scratch_slots);
        self.store_spans.push((off, len));
        self.store_table.insert(hash, id);
        StoreId(id)
    }

    /// Read-only probe: the id of `store` if it has been interned.
    #[must_use]
    pub fn find_store(&self, store: &GlobalStore) -> Option<StoreId> {
        let mut key = Vec::with_capacity(store.len());
        for v in store.iter() {
            key.push(self.find_value(v)?);
        }
        let (spans, keys) = (&self.store_spans, &self.store_keys);
        self.store_table
            .find(hash_value_ids(&key), |id| {
                let (off, len) = spans[id as usize];
                keys[off as usize..(off + len) as usize] == key[..]
            })
            .map(StoreId)
    }

    /// Resolves an interned store.
    #[must_use]
    pub fn store(&self, id: StoreId) -> &GlobalStore {
        &self.stores[id.index()]
    }

    /// The slot-value ids of an interned store, in schema order — a slice of
    /// the flat struct-of-arrays key storage.
    #[must_use]
    pub fn store_slots(&self, id: StoreId) -> &[ValueId] {
        let (off, len) = self.store_spans[id.index()];
        &self.store_keys[off as usize..(off + len) as usize]
    }

    /// Number of distinct interned stores.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stores.len()
    }

    // ----- pending asyncs ---------------------------------------------

    /// Interns a pending async.
    pub fn intern_pa(&mut self, pa: &PendingAsync) -> PaId {
        let hash = fx_hash(pa);
        let pas = &self.pas;
        if let Some(id) = self.pa_table.find(hash, |id| pas[id as usize] == *pa) {
            return PaId(id);
        }
        let id = next_id(self.pas.len(), "pending-async");
        self.pas.push(pa.clone());
        self.pa_table.insert(hash, id);
        PaId(id)
    }

    /// Read-only probe: the id of `pa` if it has been interned.
    #[must_use]
    pub fn find_pa(&self, pa: &PendingAsync) -> Option<PaId> {
        let pas = &self.pas;
        self.pa_table
            .find(fx_hash(pa), |id| pas[id as usize] == *pa)
            .map(PaId)
    }

    /// Resolves an interned pending async.
    #[must_use]
    pub fn pa(&self, id: PaId) -> &PendingAsync {
        &self.pas[id.index()]
    }

    /// Number of distinct interned pending asyncs.
    #[must_use]
    pub fn pa_count(&self) -> usize {
        self.pas.len()
    }

    // ----- argument lists ---------------------------------------------

    /// Interns an argument list (the `ℓ` of an evaluation memo key).
    pub fn intern_args(&mut self, args: &[Value]) -> ArgsId {
        let hash = fx_hash(args);
        let lists = &self.args_lists;
        if let Some(id) = self.args_table.find(hash, |id| lists[id as usize] == args) {
            return ArgsId(id);
        }
        let id = next_id(self.args_lists.len(), "argument-list");
        self.args_lists.push(args.to_vec());
        self.args_table.insert(hash, id);
        ArgsId(id)
    }

    /// Resolves an interned argument list.
    #[must_use]
    pub fn args(&self, id: ArgsId) -> &[Value] {
        &self.args_lists[id.index()]
    }

    // ----- pending bags -----------------------------------------------

    /// Interns a pending multiset as canonical `(PaId, count)` entries.
    pub fn intern_bag(&mut self, bag: &Multiset<PendingAsync>) -> BagId {
        self.scratch_bag.clear();
        for (pa, count) in bag.iter_counts() {
            let id = self.intern_pa(pa);
            self.scratch_bag
                .push((id, u32::try_from(count).expect("count exceeds u32")));
        }
        self.finish_bag()
    }

    /// Interns the successor bag `parent ∖ {consumed} ⊎ created` by a
    /// small-diff rebuild of the parent's entry vector — no `BTreeMap` is
    /// cloned and untouched entries keep their interned ids.
    ///
    /// # Panics
    ///
    /// Panics if `consumed` does not occur in `parent` (an explorer bug).
    pub fn bag_after(
        &mut self,
        parent: BagId,
        consumed: PaId,
        created: &Multiset<PendingAsync>,
    ) -> BagId {
        {
            let (off, len) = self.bag_spans[parent.index()];
            let (scratch, bags) = (&mut self.scratch_bag, &self.bag_data);
            scratch.clear();
            scratch.extend_from_slice(&bags[off as usize..(off + len) as usize]);
            let pos = scratch
                .iter()
                .position(|&(p, _)| p == consumed)
                .expect("consumed pending async must occur in the parent bag");
            if scratch[pos].1 > 1 {
                scratch[pos].1 -= 1;
            } else {
                scratch.remove(pos);
            }
        }
        for (pa, count) in created.iter_counts() {
            let pid = self.intern_pa(pa);
            let (scratch, pas) = (&mut self.scratch_bag, &self.pas);
            // Entries are kept sorted by the resolved pending-async order
            // (the same order `Multiset` iterates in).
            match scratch.binary_search_by(|&(p, _)| pas[p.index()].cmp(pa)) {
                Ok(pos) => scratch[pos].1 += u32::try_from(count).expect("count exceeds u32"),
                Err(pos) => {
                    scratch.insert(pos, (pid, u32::try_from(count).expect("count exceeds u32")));
                }
            }
        }
        self.finish_bag()
    }

    fn finish_bag(&mut self) -> BagId {
        let hash = hash_bag_entries(&self.scratch_bag);
        {
            let (spans, bags, scratch) = (&self.bag_spans, &self.bag_data, &self.scratch_bag);
            if let Some(id) = self.bag_table.find(hash, |id| {
                let (off, len) = spans[id as usize];
                bags[off as usize..(off + len) as usize] == **scratch
            }) {
                return BagId(id);
            }
        }
        let id = next_id(self.bag_spans.len(), "bag");
        let off = u32::try_from(self.bag_data.len()).expect("bag arena exceeds u32 capacity");
        let len = u32::try_from(self.scratch_bag.len()).expect("bag exceeds u32 entries");
        self.bag_data.extend_from_slice(&self.scratch_bag);
        self.bag_spans.push((off, len));
        self.bag_table.insert(hash, id);
        BagId(id)
    }

    /// Read-only probe: the id of `bag` if it has been interned.
    #[must_use]
    pub fn find_bag(&self, bag: &Multiset<PendingAsync>) -> Option<BagId> {
        let mut entries = Vec::with_capacity(bag.distinct_len());
        for (pa, count) in bag.iter_counts() {
            entries.push((self.find_pa(pa)?, u32::try_from(count).ok()?));
        }
        let (spans, bags) = (&self.bag_spans, &self.bag_data);
        self.bag_table
            .find(hash_bag_entries(&entries), |id| {
                let (off, len) = spans[id as usize];
                bags[off as usize..(off + len) as usize] == entries[..]
            })
            .map(BagId)
    }

    /// The canonical `(PaId, count)` entries of an interned bag, sorted by
    /// the resolved pending-async order — a slice of the flat
    /// struct-of-arrays entry storage.
    #[must_use]
    pub fn bag_entries(&self, id: BagId) -> &[(PaId, u32)] {
        let (off, len) = self.bag_spans[id.index()];
        &self.bag_data[off as usize..(off + len) as usize]
    }

    /// Rebuilds the [`Multiset`] an interned bag denotes.
    #[must_use]
    pub fn resolve_bag(&self, id: BagId) -> Multiset<PendingAsync> {
        let mut out = Multiset::new();
        for &(p, c) in self.bag_entries(id) {
            out.insert_n(self.pas[p.index()].clone(), c as usize);
        }
        out
    }

    /// Number of distinct interned bags.
    #[must_use]
    pub fn bag_count(&self) -> usize {
        self.bag_spans.len()
    }

    // ----- configurations ---------------------------------------------

    /// Interns a configuration from already-interned parts; returns the id
    /// and whether it was fresh.
    pub fn intern_config_parts(&mut self, store: StoreId, bag: BagId) -> (ConfigId, bool) {
        let hash = hash_config_parts(store, bag);
        let configs = &self.configs;
        if let Some(id) = self
            .config_table
            .find(hash, |id| configs[id as usize] == (store, bag))
        {
            self.config_hits += 1;
            return (ConfigId(id), false);
        }
        self.config_misses += 1;
        let id = next_id(self.configs.len(), "config");
        self.configs.push((store, bag));
        self.config_table.insert(hash, id);
        (ConfigId(id), true)
    }

    /// Interns a configuration; returns the id and whether it was fresh.
    pub fn intern_config(&mut self, config: &Config) -> (ConfigId, bool) {
        let store = self.intern_store(&config.globals);
        let bag = self.intern_bag(&config.pending);
        self.intern_config_parts(store, bag)
    }

    /// Read-only probe: the id of `config` if it has been interned.
    #[must_use]
    pub fn find_config(&self, config: &Config) -> Option<ConfigId> {
        let store = self.find_store(&config.globals)?;
        let bag = self.find_bag(&config.pending)?;
        let configs = &self.configs;
        self.config_table
            .find(hash_config_parts(store, bag), |id| {
                configs[id as usize] == (store, bag)
            })
            .map(ConfigId)
    }

    /// The `(store, bag)` parts of an interned configuration.
    #[must_use]
    pub fn config_parts(&self, id: ConfigId) -> (StoreId, BagId) {
        self.configs[id.index()]
    }

    /// Rebuilds the [`Config`] an interned configuration denotes.
    #[must_use]
    pub fn resolve_config(&self, id: ConfigId) -> Config {
        let (store, bag) = self.config_parts(id);
        Config::new(self.stores[store.index()].clone(), self.resolve_bag(bag))
    }

    /// Number of distinct interned configurations.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// The configuration ids in interning order (dense `0..config_count()`).
    pub fn config_ids(&self) -> impl Iterator<Item = ConfigId> + '_ {
        (0..self.configs.len()).map(|i| ConfigId(i as u32))
    }

    /// The id of the `index`-th interned configuration.
    ///
    /// # Panics
    ///
    /// Panics when `index >= config_count()`.
    #[must_use]
    pub fn config_id(&self, index: usize) -> ConfigId {
        assert!(index < self.configs.len(), "config index out of range");
        ConfigId(index as u32)
    }

    /// Configuration dedup effectiveness: how many `intern_config*` calls
    /// found an existing id (hits) vs. allocated a fresh one (misses).
    ///
    /// Observability data only — never consulted by the interner itself.
    #[must_use]
    pub fn intern_stats(&self) -> inseq_obs::HitMissSnapshot {
        inseq_obs::HitMissSnapshot::new(self.config_hits, self.config_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PendingAsync;

    fn store(vals: Vec<Value>) -> GlobalStore {
        GlobalStore::new(vals)
    }

    #[test]
    fn value_ids_are_canonical() {
        let mut i = Interner::new();
        let a = i.intern_value(&Value::Int(7));
        let b = i.intern_value(&Value::Int(7));
        let c = i.intern_value(&Value::Int(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.value(a), &Value::Int(7));
        assert_eq!(i.value_count(), 2);
        assert_eq!(i.find_value(&Value::Int(8)), Some(c));
        assert_eq!(i.find_value(&Value::Int(9)), None);
    }

    #[test]
    fn store_ids_are_canonical_and_diff_reuses_slots() {
        let mut i = Interner::new();
        let g1 = store(vec![Value::Int(1), Value::Int(2)]);
        let s1 = i.intern_store(&g1);
        assert_eq!(i.intern_store(&g1), s1);
        // A successor writing slot 1 shares slot 0's value id.
        let g2 = store(vec![Value::Int(1), Value::Int(3)]);
        let s2 = i.intern_store_diff(s1, &g2, Some(&[1]));
        assert_ne!(s1, s2);
        assert_eq!(i.store(s2), &g2);
        assert_eq!(i.store_slots(s1)[0], i.store_slots(s2)[0]);
        // An unchanged "successor" resolves to the parent id.
        let s3 = i.intern_store_diff(s1, &g1, Some(&[]));
        assert_eq!(s3, s1);
        // Write-delta interning materializes the same store.
        let s4 = i.intern_store_writes(s1, &[(1, Value::Int(3))]);
        assert_eq!(s4, s2);
    }

    #[test]
    fn bag_after_matches_multiset_semantics() {
        let mut i = Interner::new();
        let a = PendingAsync::new("A", vec![Value::Int(1)]);
        let b = PendingAsync::new("B", vec![]);
        let c = PendingAsync::new("C", vec![]);
        let bag: Multiset<PendingAsync> = [a.clone(), a.clone(), b.clone()].into_iter().collect();
        let bid = i.intern_bag(&bag);
        assert_eq!(i.resolve_bag(bid), bag);
        let pa_a = i.intern_pa(&a);
        let created: Multiset<PendingAsync> = [c.clone(), b.clone()].into_iter().collect();
        let next = i.bag_after(bid, pa_a, &created);
        let expected = bag.without(&a).unwrap().union(&created);
        assert_eq!(i.resolve_bag(next), expected);
        // Interning the expected multiset directly yields the same id.
        assert_eq!(i.intern_bag(&expected), next);
        // Entries stay sorted in multiset iteration order.
        let resolved: Vec<_> = i
            .bag_entries(next)
            .iter()
            .map(|&(p, _)| i.pa(p).clone())
            .collect();
        let direct: Vec<_> = expected.distinct().cloned().collect();
        assert_eq!(resolved, direct);
    }

    #[test]
    fn config_ids_dedup_and_probe() {
        let mut i = Interner::new();
        let g = store(vec![Value::Int(1)]);
        let bag = Multiset::singleton(PendingAsync::new("A", vec![]));
        let c1 = Config::new(g.clone(), bag.clone());
        let (id1, fresh1) = i.intern_config(&c1);
        assert!(fresh1);
        let (id2, fresh2) = i.intern_config(&c1);
        assert!(!fresh2);
        assert_eq!(id1, id2);
        assert_eq!(i.resolve_config(id1), c1);
        assert_eq!(i.find_config(&c1), Some(id1));
        let other = Config::new(g, Multiset::new());
        assert_eq!(i.find_config(&other), None);
    }

    #[test]
    fn tables_survive_growth() {
        let mut i = Interner::new();
        let ids: Vec<ValueId> = (0..1000).map(|n| i.intern_value(&Value::Int(n))).collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.find_value(&Value::Int(n as i64)), Some(*id));
        }
        assert_eq!(i.value_count(), 1000);
    }

    #[test]
    fn args_lists_are_canonical() {
        let mut i = Interner::new();
        let a = i.intern_args(&[Value::Int(1), Value::Bool(true)]);
        let b = i.intern_args(&[Value::Int(1), Value::Bool(true)]);
        let c = i.intern_args(&[Value::Int(1)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.args(a), &[Value::Int(1), Value::Bool(true)]);
    }
}
