//! The hash-consing interner: lock-free reads over segmented arenas,
//! sharded short-lock dedup, and an embedded atomic parent-edge log.
//!
//! [`ConcurrentInterner`] is the one interner behind every explorer and the
//! mover checker. It implements the id scheme of [`crate::intern`] — dense
//! `u32` ids per arena, id equality = structural equality — without a
//! global mutex, so the sequential [`Explorer`](crate::Explorer), the
//! mover checker and the parallel engine's workers all use the same arenas:
//!
//! * **Segmented arenas, lock-free reads.** Each arena is a `SegVec`: a
//!   spine of lazily allocated segments with doubling capacities. Entries
//!   are never moved once written (segments are fixed-size, the spine holds
//!   them behind `OnceLock`s), so a resolved reference (`&Value`,
//!   `&GlobalStore`, a slot-id slice) stays valid for the interner's
//!   lifetime and resolving an id takes no lock at all: two array indexings
//!   plus an acquire load. This deletes the parallel explorer's phase-1
//!   snapshot lock.
//! * **Sharded dedup.** Each arena's hash → id index is split into
//!   [`NUM_SHARDS`] shards by the value's hash (high bits, so the shard
//!   choice is independent of the open-addressing probe, which uses the low
//!   bits). A shard is an `IdTable` behind its own mutex, held only for
//!   the probe-and-insert; inserts of *distinct* values in different shards
//!   proceed fully in parallel, and two racing inserts of the *same* value
//!   serialize on the same shard, so no value can receive two ids.
//! * **Id stability.** A fresh id is the arena's `fetch_add` ticket; the
//!   entry is published into its segment slot *before* the id is published
//!   into the shard table or returned, so any thread that can name an id
//!   can resolve it. Ids are append-only and never invalidated.
//! * **Embedded parent-edge log.** Config-arena entries carry their parent
//!   edge as atomics (`(parent, fired)` packed into one `u64`, the recorded
//!   seed distance in a `u32`), written only under the config's owning
//!   shard lock. Walking a parent chain is lock-free: recorded distances
//!   strictly decrease along every current chain (a relaxation only ever
//!   lowers a target's distance and re-establishes `depth(child) >
//!   depth(parent)` at write time), so walks terminate at a seed. Keeping
//!   the edge inside the config entry — rather than in a side table —
//!   makes edge/id alignment automatic under concurrent interning. A
//!   breadth-first explorer on one thread discovers every configuration
//!   first along a shortest path and never relaxes, so its chains are
//!   BFS-shortest ([`ConcurrentInterner::trace_from`]).
//! * **First-intern order on one thread.** A fresh id is the arena's next
//!   dense index, so a single-threaded caller sees ids in exactly the order
//!   it first interned each object — the sequential explorer's config ids
//!   are its discovery order, which is what makes its output reproducible
//!   run to run. (Batch methods group items by shard first, so within one
//!   batch fresh ids follow shard order — still a deterministic function of
//!   the input.)
//! * **Batched interning.** The `intern_*s` batch methods take a whole
//!   expansion's staged successors and lock each affected shard at most
//!   once per pass (items are grouped by shard first), which is how the
//!   explorer's phase 3 pays O(affected shards) lock acquisitions instead
//!   of O(successors).
//!
//! Construction allocates one array of empty shard tables per arena; a
//! table's slots and an arena's segments are allocated on first use, so a
//! short-lived interner (one per mover-checker obligation) pays for what it
//! interns, not for 64 slot arrays per arena.
//!
//! Contention is observable: lock acquisitions that had to wait (and for
//! how long), and per-shard insert counts, surface through
//! [`ConcurrentInterner::contention`] into the engine's `--stats` output.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

use inseq_obs::ContentionSnapshot;

use crate::action::PendingAsync;
use crate::config::{Config, Step};
use crate::explore::Trace;
use crate::hash::fx_hash;
use crate::intern::{
    hash_bag_entries, hash_config_parts, BagId, ConfigId, IdTable, PaId, StoreId, ValueId,
};
use crate::multiset::Multiset;
use crate::store::GlobalStore;
use crate::value::Value;

/// Number of dedup shards per arena. A power of two; 64 keeps the chance of
/// two workers colliding on one shard low even at 16 workers while the
/// per-arena footprint (64 small tables) stays trivial.
pub const NUM_SHARDS: usize = 64;

/// Entries of the first (smallest) segment; segment `s` holds `BASE << s`.
/// Small, because a segment's slots are built when it is first touched: a
/// short-lived interner (a mover checker over a few dozen stores) must not
/// pay for a thousand slots per arena.
const BASE_BITS: u32 = 5;
const BASE: usize = 1 << BASE_BITS;

/// Spine length: cumulative capacity `BASE * (2^SPINE - 1)` exceeds the
/// `u32` id space, so the spine never runs out before ids do.
const SPINE: usize = 28;

/// The parent-edge sentinel marking a seed (no predecessor).
const SEED_EDGE: u64 = u64::MAX;

/// Locates index `i` as `(segment, offset)` under doubling segment sizes:
/// segment `s` starts at flat index `BASE * (2^s - 1)` and holds
/// `BASE << s` entries.
fn locate(index: usize) -> (usize, usize) {
    let t = (index >> BASE_BITS) + 1;
    let seg = (usize::BITS - 1 - t.leading_zeros()) as usize;
    (seg, index - BASE * ((1 << seg) - 1))
}

/// An append-only vector with lock-free reads and pointer-stable entries.
///
/// The spine is a fixed array of `OnceLock` segments with doubling
/// capacities; a segment is allocated on first touch and never moved or
/// grown, so `&T` references returned by [`get`](SegVec::get) live as long
/// as the `SegVec`. [`push`](SegVec::push) reserves the next dense index
/// with a `fetch_add` and publishes the entry through the slot's
/// `OnceLock`; publication happens before the caller can hand the index to
/// anyone, so every nameable index resolves.
///
/// Concurrent pushes are safe from any number of threads; the dedup
/// discipline (at most one push per distinct value, guarded by the owning
/// shard lock) is the *caller's* job.
#[derive(Debug)]
struct SegVec<T> {
    len: AtomicUsize,
    spine: [OnceLock<Box<[OnceLock<T>]>>; SPINE],
}

impl<T> SegVec<T> {
    fn new() -> Self {
        SegVec {
            len: AtomicUsize::new(0),
            spine: [const { OnceLock::new() }; SPINE],
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Appends an entry and returns its dense index as a raw id.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds the `u32` id space.
    fn push(&self, value: T) -> u32 {
        let i = self.len.fetch_add(1, Ordering::AcqRel);
        let id = u32::try_from(i).expect("arena exceeds u32 id space");
        let (seg, off) = locate(i);
        let segment = self.spine[seg].get_or_init(|| {
            (0..(BASE << seg))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        assert!(
            segment[off].set(value).is_ok(),
            "segment slot written twice"
        );
        id
    }

    /// Resolves a previously pushed index. Lock-free.
    ///
    /// # Panics
    ///
    /// Panics on an index that was never returned by [`push`](Self::push).
    fn get(&self, index: usize) -> &T {
        let (seg, off) = locate(index);
        self.spine[seg].get().expect("segment published")[off]
            .get()
            .expect("slot published")
    }
}

/// One store-arena entry: the materialized store plus its slot-id key
/// (owned per entry: flat struct-of-arrays spans cannot grow append-only
/// under concurrent writers without a lock) and its [`store_hash`], kept
/// so successor interning can derive a child's hash from the parent's in
/// O(writes).
#[derive(Debug)]
struct StoreEntry {
    store: GlobalStore,
    slots: Box<[ValueId]>,
    hash: u64,
}

/// Position-dependent mix of one store slot (a splitmix64 finalizer over
/// the `(slot, value-id)` pair). Each slot's contribution is independent of
/// every other slot's, which is what makes the XOR fold in [`store_hash`]
/// incrementally updatable.
#[inline]
fn slot_mix(slot: usize, vid: ValueId) -> u64 {
    let mut z = ((slot as u64) << 32) ^ u64::from(vid.raw());
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The store table's hash: an XOR fold of per-slot mixes. XOR makes the
/// hash *path-independent* — a successor's hash is its parent's with the
/// changed slots' old contributions XORed out and the new ones in, so the
/// same store always hashes identically no matter which `(parent, writes)`
/// diff produced it. That property is what lets
/// [`ConcurrentInterner::intern_successor_stores`] hash in O(writes)
/// without ever materializing the full slot key; dedup correctness still
/// rests on the full equality compare at probe time, never on the hash.
fn store_hash(slots: &[ValueId]) -> u64 {
    slots
        .iter()
        .enumerate()
        .fold(slots.len() as u64, |h, (i, &vid)| h ^ slot_mix(i, vid))
}

/// Does `cand` equal `parent` with `patches` applied? `patches` must hold
/// strictly ascending slot indices, each post-value distinct from the
/// parent's (what [`ConcurrentInterner::changed_slots`] produces); the walk
/// advances one patch cursor alongside the slot scan.
fn patched_eq(cand: &[ValueId], parent: &[ValueId], patches: &[(usize, ValueId)]) -> bool {
    if cand.len() != parent.len() {
        return false;
    }
    let mut patches = patches.iter().peekable();
    for (j, (&c, &p)) in cand.iter().zip(parent.iter()).enumerate() {
        let expect = match patches.peek() {
            Some(&&(slot, vid)) if slot == j => {
                patches.next();
                vid
            }
            _ => p,
        };
        if c != expect {
            return false;
        }
    }
    patches.next().is_none()
}

/// One config-arena entry: the `(store, bag)` identity plus the embedded
/// parent edge. `edge` packs `(parent << 32) | fired`; [`SEED_EDGE`] marks
/// a seed. Both atomics are written only under the config's owning shard
/// lock; readers never lock.
#[derive(Debug)]
struct ConfigEntry {
    store: StoreId,
    bag: BagId,
    edge: AtomicU64,
    depth: AtomicU32,
}

fn pack_edge(parent: ConfigId, fired: PaId) -> u64 {
    (u64::from(parent.raw()) << 32) | u64::from(fired.raw())
}

fn unpack_edge(edge: u64) -> Option<(ConfigId, PaId)> {
    if edge == SEED_EDGE {
        None
    } else {
        #[allow(clippy::cast_possible_truncation)] // intentional 32-bit split
        Some((
            ConfigId::from_raw((edge >> 32) as u32),
            PaId::from_raw(edge as u32),
        ))
    }
}

/// The shard an item hashes to. High bits, so it stays independent of the
/// [`IdTable`] probe sequence (low bits).
fn shard_of(hash: u64) -> usize {
    #[allow(clippy::cast_possible_truncation)] // 6-bit result
    {
        ((hash >> 57) as usize) & (NUM_SHARDS - 1)
    }
}

/// One arena's sharded dedup index: [`NUM_SHARDS`] tables, each behind its
/// own short lock.
type ShardedIndex = Box<[Mutex<IdTable>; NUM_SHARDS]>;

fn sharded_index() -> ShardedIndex {
    Box::new([const { Mutex::new(IdTable::new()) }; NUM_SHARDS])
}

/// A config-interning request for
/// [`ConcurrentInterner::intern_configs`]: the interned parts plus the
/// discovering edge (`None` for seeds).
#[derive(Debug, Clone, Copy)]
pub struct ConfigReq {
    /// The configuration's interned store.
    pub store: StoreId,
    /// The configuration's interned pending bag.
    pub bag: BagId,
    /// The discovering parent edge: predecessor and fired pending async.
    pub edge: Option<(ConfigId, PaId)>,
}

/// The concurrent hash-consing interner (see the module docs for the
/// design). All methods take `&self`; reads are lock-free, writes lock only
/// the owning dedup shard.
#[derive(Debug)]
pub struct ConcurrentInterner {
    /// Values behind `Arc`s, so a fresh store shares its changed slots'
    /// allocations with the arena instead of deep-cloning them.
    values: SegVec<Arc<Value>>,
    value_index: ShardedIndex,
    stores: SegVec<StoreEntry>,
    store_index: ShardedIndex,
    pas: SegVec<PendingAsync>,
    pa_index: ShardedIndex,
    bags: SegVec<Box<[(PaId, u32)]>>,
    bag_index: ShardedIndex,
    configs: SegVec<ConfigEntry>,
    config_index: ShardedIndex,
    /// Shard-lock acquisitions that found the lock held.
    lock_waits: AtomicU64,
    /// Total nanoseconds spent waiting on held shard locks.
    lock_wait_nanos: AtomicU64,
    /// Fresh-id inserts per shard index, summed over all five arenas.
    shard_inserts: [AtomicU64; NUM_SHARDS],
    /// `intern_config*` calls that found an existing id.
    config_hits: AtomicU64,
    /// `intern_config*` calls that allocated a fresh id.
    config_misses: AtomicU64,
}

impl Default for ConcurrentInterner {
    fn default() -> Self {
        ConcurrentInterner::new()
    }
}

impl ConcurrentInterner {
    /// Creates an empty concurrent interner.
    #[must_use]
    pub fn new() -> Self {
        ConcurrentInterner {
            values: SegVec::new(),
            value_index: sharded_index(),
            stores: SegVec::new(),
            store_index: sharded_index(),
            pas: SegVec::new(),
            pa_index: sharded_index(),
            bags: SegVec::new(),
            bag_index: sharded_index(),
            configs: SegVec::new(),
            config_index: sharded_index(),
            lock_waits: AtomicU64::new(0),
            lock_wait_nanos: AtomicU64::new(0),
            shard_inserts: [const { AtomicU64::new(0) }; NUM_SHARDS],
            config_hits: AtomicU64::new(0),
            config_misses: AtomicU64::new(0),
        }
    }

    /// Locks one dedup shard, recording the wait if the lock was held. The
    /// fast path is a `try_lock` with no clock read at all; only actual
    /// contention pays for two `Instant` calls.
    fn lock<'a>(&self, index: &'a ShardedIndex, shard: usize) -> MutexGuard<'a, IdTable> {
        let mutex = &index[shard];
        match mutex.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let guard = mutex.lock().expect("shard lock poisoned");
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                #[allow(clippy::cast_possible_truncation)] // < 584 years
                self.lock_wait_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
        }
    }

    fn note_insert(&self, shard: usize) {
        self.shard_inserts[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Visits a batch grouped by dedup shard, locking each affected shard
    /// once: `each(table, shard, i, hash)` runs for every item `i`, whose
    /// hash is the `i`-th of `hashes`, in input order within a shard.
    fn by_shard(
        &self,
        index: &ShardedIndex,
        hashes: impl Iterator<Item = u64>,
        mut each: impl FnMut(&mut IdTable, usize, usize, u64),
    ) {
        let mut order: Vec<(usize, usize, u64)> = hashes
            .enumerate()
            .map(|(i, hash)| (shard_of(hash), i, hash))
            .collect();
        order.sort_unstable_by_key(|&(shard, i, _)| (shard, i));
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let shard = group[0].0;
            let mut table = self.lock(index, shard);
            for &(_, i, hash) in group {
                each(&mut table, shard, i, hash);
            }
        }
    }

    // ----- values -----------------------------------------------------

    /// Interns one value.
    pub fn intern_value(&self, v: &Value) -> ValueId {
        let hash = fx_hash(v);
        let shard = shard_of(hash);
        let mut table = self.lock(&self.value_index, shard);
        self.intern_value_locked(&mut table, shard, hash, v)
    }

    fn intern_value_locked(
        &self,
        table: &mut IdTable,
        shard: usize,
        hash: u64,
        v: &Value,
    ) -> ValueId {
        if let Some(id) = table.find(hash, |id| **self.values.get(id as usize) == *v) {
            return ValueId::from_raw(id);
        }
        let id = self.values.push(Arc::new(v.clone()));
        table.insert(hash, id);
        self.note_insert(shard);
        ValueId::from_raw(id)
    }

    /// Read-only probe: the id of `v` if it has been interned.
    #[must_use]
    pub fn find_value(&self, v: &Value) -> Option<ValueId> {
        let hash = fx_hash(v);
        let table = self.lock(&self.value_index, shard_of(hash));
        table
            .find(hash, |id| **self.values.get(id as usize) == *v)
            .map(ValueId::from_raw)
    }

    /// Resolves an interned value. Lock-free.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &Value {
        self.values.get(id.index())
    }

    /// Number of distinct interned values.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    // ----- pending asyncs ---------------------------------------------

    /// Interns one pending async.
    pub fn intern_pa(&self, pa: &PendingAsync) -> PaId {
        let hash = fx_hash(pa);
        let shard = shard_of(hash);
        let mut table = self.lock(&self.pa_index, shard);
        self.intern_pa_locked(&mut table, shard, hash, pa)
    }

    fn intern_pa_locked(
        &self,
        table: &mut IdTable,
        shard: usize,
        hash: u64,
        pa: &PendingAsync,
    ) -> PaId {
        if let Some(id) = table.find(hash, |id| self.pas.get(id as usize) == pa) {
            return PaId::from_raw(id);
        }
        let id = self.pas.push(pa.clone());
        table.insert(hash, id);
        self.note_insert(shard);
        PaId::from_raw(id)
    }

    /// Read-only probe: the id of `pa` if it has been interned.
    #[must_use]
    pub fn find_pa(&self, pa: &PendingAsync) -> Option<PaId> {
        let hash = fx_hash(pa);
        let table = self.lock(&self.pa_index, shard_of(hash));
        table
            .find(hash, |id| self.pas.get(id as usize) == pa)
            .map(PaId::from_raw)
    }

    /// Resolves an interned pending async. Lock-free.
    #[must_use]
    pub fn pa(&self, id: PaId) -> &PendingAsync {
        self.pas.get(id.index())
    }

    /// Number of distinct interned pending asyncs.
    #[must_use]
    pub fn pa_count(&self) -> usize {
        self.pas.len()
    }

    // ----- stores -----------------------------------------------------

    fn intern_store_locked(
        &self,
        table: &mut IdTable,
        shard: usize,
        hash: u64,
        eq: impl Fn(&[ValueId]) -> bool,
        materialize: impl FnOnce() -> (GlobalStore, Box<[ValueId]>),
    ) -> StoreId {
        if let Some(id) = table.find(hash, |id| eq(&self.stores.get(id as usize).slots)) {
            return StoreId::from_raw(id);
        }
        let (store, slots) = materialize();
        let id = self.stores.push(StoreEntry { store, slots, hash });
        table.insert(hash, id);
        self.note_insert(shard);
        StoreId::from_raw(id)
    }

    /// Interns a store by interning every slot value first (the full,
    /// non-diff path — seeds and symmetry canonicalization).
    pub fn intern_store(&self, store: &GlobalStore) -> StoreId {
        let slots: Vec<ValueId> = store.iter().map(|v| self.intern_value(v)).collect();
        let hash = store_hash(&slots);
        let shard = shard_of(hash);
        let mut table = self.lock(&self.store_index, shard);
        self.intern_store_locked(
            &mut table,
            shard,
            hash,
            |cand| cand == &slots[..],
            || (store.clone(), slots.as_slice().into()),
        )
    }

    /// The slots where `new` differs from the interned store `parent`, as
    /// `(slot, post-value)` in ascending slot order, appended to `out`.
    /// `hint` — the firing action's footprint write set, sorted — bounds
    /// the slots compared; `None` compares every slot.
    pub fn changed_slots<'v>(
        &self,
        parent: StoreId,
        new: &'v GlobalStore,
        hint: Option<&[usize]>,
        out: &mut Vec<(usize, &'v Value)>,
    ) {
        let base = self.store(parent);
        let mut note = |i: usize| {
            if !base.slot_eq(new, i) {
                out.push((i, new.get(i)));
            }
        };
        match hint {
            Some(ws) => ws.iter().copied().for_each(&mut note),
            None => (0..new.len()).for_each(&mut note),
        }
    }

    /// The store hash of `parent` with `patches` applied, derived from the
    /// parent's stored hash in O(patches): each patched slot's old mix is
    /// XORed out and the new one in.
    fn diff_hash(&self, parent: &StoreEntry, patches: &[(usize, ValueId)]) -> u64 {
        patches.iter().fold(parent.hash, |hash, &(slot, vid)| {
            hash ^ slot_mix(slot, parent.slots[slot]) ^ slot_mix(slot, vid)
        })
    }

    /// Batch-interns the successor stores of one expansion as diffs against
    /// their parent: successor `k` is `parent` with the changed slots
    /// `changed[spans[k]]` applied (as produced by
    /// [`changed_slots`](Self::changed_slots)). The changed values are
    /// interned in one pass, the stores in another, each locking an
    /// affected shard once. A diff costs O(writes), not O(slots): its hash
    /// derives from the parent's, and the probe compares candidates against
    /// the parent's slots seen through the patches, so the hit path never
    /// builds a slot key. A miss clones the parent (cheap — slots are
    /// `Arc`-shared), points the patched slots at the arena's values, and
    /// patches a copy of the parent's key. A successor without changes is
    /// `parent` itself — canonicality makes that exact. `out` is
    /// overwritten with one id per span, aligned.
    pub fn intern_successor_stores(
        &self,
        parent: StoreId,
        changed: &[(usize, &Value)],
        spans: &[(usize, usize)],
        out: &mut Vec<StoreId>,
    ) {
        let mut patches: Vec<(usize, ValueId)> = changed
            .iter()
            .map(|&(slot, _)| (slot, ValueId::from_raw(0)))
            .collect();
        let hashes = changed.iter().map(|&(_, v)| fx_hash(v));
        self.by_shard(&self.value_index, hashes, |table, shard, i, hash| {
            patches[i].1 = self.intern_value_locked(table, shard, hash, changed[i].1);
        });
        let entry = self.stores.get(parent.index());
        out.clear();
        out.resize(spans.len(), parent);
        let hashes = spans
            .iter()
            .map(|&(start, end)| self.diff_hash(entry, &patches[start..end]));
        self.by_shard(&self.store_index, hashes, |table, shard, k, hash| {
            let (start, end) = spans[k];
            if start == end {
                return;
            }
            let patches = &patches[start..end];
            out[k] = self.intern_store_locked(
                table,
                shard,
                hash,
                |cand| patched_eq(cand, &entry.slots, patches),
                || {
                    let mut store = entry.store.clone();
                    let mut slots = entry.slots.to_vec();
                    for &(slot, vid) in patches {
                        store.set_shared(slot, Arc::clone(self.values.get(vid.index())));
                        slots[slot] = vid;
                    }
                    (store, slots.into_boxed_slice())
                },
            );
        });
    }

    /// Read-only probe: the id of `store` if it has been interned.
    #[must_use]
    pub fn find_store(&self, store: &GlobalStore) -> Option<StoreId> {
        let mut slots = Vec::with_capacity(store.len());
        for v in store.iter() {
            slots.push(self.find_value(v)?);
        }
        let hash = store_hash(&slots);
        let table = self.lock(&self.store_index, shard_of(hash));
        table
            .find(hash, |id| *self.stores.get(id as usize).slots == slots[..])
            .map(StoreId::from_raw)
    }

    /// Resolves an interned store. Lock-free.
    #[must_use]
    pub fn store(&self, id: StoreId) -> &GlobalStore {
        &self.stores.get(id.index()).store
    }

    /// The slot-value ids of an interned store, in schema order. Lock-free.
    #[must_use]
    pub fn store_slots(&self, id: StoreId) -> &[ValueId] {
        &self.stores.get(id.index()).slots
    }

    /// Number of distinct interned stores.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stores.len()
    }

    // ----- pending bags -----------------------------------------------

    fn intern_bag_locked(
        &self,
        table: &mut IdTable,
        shard: usize,
        hash: u64,
        entries: &[(PaId, u32)],
    ) -> BagId {
        if let Some(id) = table.find(hash, |id| &**self.bags.get(id as usize) == entries) {
            return BagId::from_raw(id);
        }
        let id = self.bags.push(entries.into());
        table.insert(hash, id);
        self.note_insert(shard);
        BagId::from_raw(id)
    }

    /// Interns a pending bag from canonical `(PaId, count)` entries, sorted
    /// by the resolved pending-async order (the caller's contract; see
    /// [`crate::intern`]).
    pub fn intern_bag_entries(&self, entries: &[(PaId, u32)]) -> BagId {
        let hash = hash_bag_entries(entries);
        let shard = shard_of(hash);
        let mut table = self.lock(&self.bag_index, shard);
        self.intern_bag_locked(&mut table, shard, hash, entries)
    }

    /// Interns a pending multiset (the full, non-diff path).
    pub fn intern_bag(&self, bag: &Multiset<PendingAsync>) -> BagId {
        let mut entries = Vec::with_capacity(bag.distinct_len());
        for (pa, count) in bag.iter_counts() {
            entries.push((
                self.intern_pa(pa),
                u32::try_from(count).expect("count exceeds u32"),
            ));
        }
        self.intern_bag_entries(&entries)
    }

    /// Batch-interns bags given as canonical entries back to back: bag `k`
    /// is `data[spans[k]]`. One lock per affected shard; `out` is
    /// overwritten with one id per span, aligned.
    pub fn intern_bags(
        &self,
        data: &[(PaId, u32)],
        spans: &[(usize, usize)],
        out: &mut Vec<BagId>,
    ) {
        out.clear();
        out.resize(spans.len(), BagId::from_raw(0));
        let hashes = spans
            .iter()
            .map(|&(start, end)| hash_bag_entries(&data[start..end]));
        self.by_shard(&self.bag_index, hashes, |table, shard, k, hash| {
            let (start, end) = spans[k];
            out[k] = self.intern_bag_locked(table, shard, hash, &data[start..end]);
        });
    }

    /// Interns the pending asyncs created by each of an expansion's
    /// transitions in one pass, and writes each multiset's canonical
    /// `(PaId, count)` entries to `out`, back to back: multiset `k`
    /// occupies the next `created[k].distinct_len()` entries.
    pub fn intern_created(&self, created: &[&Multiset<PendingAsync>], out: &mut Vec<(PaId, u32)>) {
        let pas: Vec<(&PendingAsync, usize)> =
            created.iter().flat_map(|bag| bag.iter_counts()).collect();
        out.clear();
        out.resize(pas.len(), (PaId::from_raw(0), 0));
        let hashes = pas.iter().map(|&(pa, _)| fx_hash(pa));
        self.by_shard(&self.pa_index, hashes, |table, shard, i, hash| {
            let (pa, n) = pas[i];
            let count = u32::try_from(n).expect("count exceeds u32");
            out[i] = (self.intern_pa_locked(table, shard, hash, pa), count);
        });
    }

    /// The entries of the successor bag `parent ∖ {consumed} ⊎ created`,
    /// appended to `out` by a small-diff rebuild of the parent's entries: no
    /// `Multiset` is built and untouched entries keep their ids. `created`
    /// holds canonical entries (as from [`intern_created`](Self::intern_created));
    /// the result stays sorted in the resolved pending-async order, so it is
    /// canonical too.
    ///
    /// # Panics
    ///
    /// Panics if `consumed` does not occur in `parent` (an explorer bug).
    pub fn bag_after(
        &self,
        parent: BagId,
        consumed: PaId,
        created: &[(PaId, u32)],
        out: &mut Vec<(PaId, u32)>,
    ) {
        let base = out.len();
        out.extend_from_slice(self.bag_entries(parent));
        let pos = base
            + out[base..]
                .iter()
                .position(|&(p, _)| p == consumed)
                .expect("consumed pending async must occur in the parent bag");
        if out[pos].1 > 1 {
            out[pos].1 -= 1;
        } else {
            out.remove(pos);
        }
        for &(pid, count) in created {
            let pa = self.pa(pid);
            match out[base..].binary_search_by(|&(p, _)| self.pa(p).cmp(pa)) {
                Ok(at) => out[base + at].1 += count,
                Err(at) => out.insert(base + at, (pid, count)),
            }
        }
    }

    /// Read-only probe: the id of `bag` if it has been interned.
    #[must_use]
    pub fn find_bag(&self, bag: &Multiset<PendingAsync>) -> Option<BagId> {
        let mut entries = Vec::with_capacity(bag.distinct_len());
        for (pa, count) in bag.iter_counts() {
            entries.push((self.find_pa(pa)?, u32::try_from(count).ok()?));
        }
        let hash = hash_bag_entries(&entries);
        let table = self.lock(&self.bag_index, shard_of(hash));
        table
            .find(hash, |id| **self.bags.get(id as usize) == entries[..])
            .map(BagId::from_raw)
    }

    /// The canonical `(PaId, count)` entries of an interned bag. Lock-free.
    #[must_use]
    pub fn bag_entries(&self, id: BagId) -> &[(PaId, u32)] {
        self.bags.get(id.index())
    }

    /// Rebuilds the [`Multiset`] an interned bag denotes.
    #[must_use]
    pub fn resolve_bag(&self, id: BagId) -> Multiset<PendingAsync> {
        let mut out = Multiset::new();
        for &(p, c) in self.bag_entries(id) {
            out.insert_n(self.pa(p).clone(), c as usize);
        }
        out
    }

    /// Number of distinct interned bags.
    #[must_use]
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    // ----- configurations ---------------------------------------------

    fn intern_config_locked(
        &self,
        table: &mut IdTable,
        shard: usize,
        hash: u64,
        req: ConfigReq,
    ) -> (ConfigId, bool) {
        if let Some(id) = table.find(hash, |id| {
            let entry = self.configs.get(id as usize);
            (entry.store, entry.bag) == (req.store, req.bag)
        }) {
            self.config_hits.fetch_add(1, Ordering::Relaxed);
            let id = ConfigId::from_raw(id);
            if let Some((parent, fired)) = req.edge {
                self.relax_locked(id, parent, fired);
            }
            return (id, false);
        }
        self.config_misses.fetch_add(1, Ordering::Relaxed);
        let (edge, depth) = match req.edge {
            Some((parent, fired)) => (
                pack_edge(parent, fired),
                self.depth(parent).saturating_add(1),
            ),
            None => (SEED_EDGE, 0),
        };
        let id = self.configs.push(ConfigEntry {
            store: req.store,
            bag: req.bag,
            edge: AtomicU64::new(edge),
            depth: AtomicU32::new(depth),
        });
        table.insert(hash, id);
        self.note_insert(shard);
        (ConfigId::from_raw(id), true)
    }

    /// Relaxes the stored parent edge of `id` when the offered edge arrives
    /// via a strictly shorter recorded path. Must hold `id`'s shard lock
    /// (writes to a config's edge atomics are serialized by it). Seeds
    /// (depth 0) are never replaced.
    fn relax_locked(&self, id: ConfigId, parent: ConfigId, fired: PaId) {
        let entry = self.configs.get(id.index());
        if entry.edge.load(Ordering::Relaxed) == SEED_EDGE {
            return;
        }
        let offered = self.depth(parent).saturating_add(1);
        if offered < entry.depth.load(Ordering::Relaxed) {
            // Depth first, then edge (release): a lock-free walker reading
            // the new edge sees a parent whose recorded depth was strictly
            // below this entry's at write time, and depths only ever
            // decrease afterwards — chains stay acyclic.
            entry.depth.store(offered, Ordering::Relaxed);
            entry
                .edge
                .store(pack_edge(parent, fired), Ordering::Release);
        }
    }

    /// Interns a configuration from already-interned parts, recording (or
    /// relaxing) its parent edge; returns the id and whether it was fresh.
    pub fn intern_config_parts(&self, req: ConfigReq) -> (ConfigId, bool) {
        let hash = hash_config_parts(req.store, req.bag);
        let shard = shard_of(hash);
        let mut table = self.lock(&self.config_index, shard);
        self.intern_config_locked(&mut table, shard, hash, req)
    }

    /// Interns a configuration from its parts (seed path: full store and
    /// bag interning first).
    pub fn intern_config(
        &self,
        config: &Config,
        edge: Option<(ConfigId, PaId)>,
    ) -> (ConfigId, bool) {
        let store = self.intern_store(&config.globals);
        let bag = self.intern_bag(&config.pending);
        self.intern_config_parts(ConfigReq { store, bag, edge })
    }

    /// Batch-interns configurations: one lock per affected shard. `out` is
    /// overwritten with `(id, fresh)` per request, aligned with the input.
    /// Duplicate requests within one batch resolve like sequential repeats:
    /// the first is fresh, the rest are hits (with edge relaxation).
    pub fn intern_configs(&self, reqs: &[ConfigReq], out: &mut Vec<(ConfigId, bool)>) {
        out.clear();
        out.resize(reqs.len(), (ConfigId::from_raw(0), false));
        let hashes = reqs.iter().map(|req| hash_config_parts(req.store, req.bag));
        self.by_shard(&self.config_index, hashes, |table, shard, i, hash| {
            out[i] = self.intern_config_locked(table, shard, hash, reqs[i]);
        });
    }

    /// Read-only probe: the id of `config` if it has been interned.
    #[must_use]
    pub fn find_config(&self, config: &Config) -> Option<ConfigId> {
        let store = self.find_store(&config.globals)?;
        let bag = self.find_bag(&config.pending)?;
        let hash = hash_config_parts(store, bag);
        let table = self.lock(&self.config_index, shard_of(hash));
        table
            .find(hash, |id| {
                let entry = self.configs.get(id as usize);
                (entry.store, entry.bag) == (store, bag)
            })
            .map(ConfigId::from_raw)
    }

    /// The `(store, bag)` parts of an interned configuration. Lock-free.
    #[must_use]
    pub fn config_parts(&self, id: ConfigId) -> (StoreId, BagId) {
        let entry = self.configs.get(id.index());
        (entry.store, entry.bag)
    }

    /// The recorded parent edge of a configuration: the predecessor and the
    /// fired pending async, or `None` for a seed. Lock-free; concurrent
    /// relaxations may swap the edge between reads, but every observable
    /// edge points at a strictly smaller recorded depth, so chains walked
    /// through this method terminate.
    #[must_use]
    pub fn parent_edge(&self, id: ConfigId) -> Option<(ConfigId, PaId)> {
        unpack_edge(self.configs.get(id.index()).edge.load(Ordering::Acquire))
    }

    /// Walks the parent-edge log from `target` back to a seed and resolves
    /// it into concrete steps — entirely lock-free. Chains are acyclic
    /// (recorded distances strictly decrease along them, even under
    /// concurrent relaxation), so this terminates. For an explorer that
    /// interns in breadth-first order on one thread the walk is a shortest
    /// path from the seeds: each config is first interned from a parent of
    /// minimal depth, and no later edge offers a strictly smaller one.
    #[must_use]
    pub fn trace_from(&self, target: ConfigId) -> Trace {
        let mut steps = Vec::new();
        let mut cursor = target;
        while let Some((parent, fired)) = self.parent_edge(cursor) {
            steps.push(Step {
                before: self.resolve_config(parent),
                fired: self.pa(fired).clone(),
                after: self.resolve_config(cursor),
            });
            cursor = parent;
        }
        steps.reverse();
        Trace { steps }
    }

    /// The recorded firing distance of a configuration from a seed.
    #[must_use]
    pub fn depth(&self, id: ConfigId) -> u32 {
        self.configs.get(id.index()).depth.load(Ordering::Relaxed)
    }

    /// Rebuilds the [`Config`] an interned configuration denotes.
    #[must_use]
    pub fn resolve_config(&self, id: ConfigId) -> Config {
        let (store, bag) = self.config_parts(id);
        Config::new(self.store(store).clone(), self.resolve_bag(bag))
    }

    /// Number of distinct interned configurations. During a run this may
    /// transiently include allocations whose shard insert is still in
    /// flight; after the owning threads quiesce it is exact.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// The configuration ids in interning order (dense `0..config_count()`).
    pub fn config_ids(&self) -> impl Iterator<Item = ConfigId> + '_ {
        (0..self.config_count()).map(|i| {
            #[allow(clippy::cast_possible_truncation)] // ids are dense u32
            ConfigId::from_raw(i as u32)
        })
    }

    /// Configuration dedup effectiveness: how many `intern_config*` calls
    /// found an existing id (hits) vs. allocated a fresh one (misses).
    /// Observability data only — never consulted by the interner itself.
    #[must_use]
    pub fn intern_stats(&self) -> inseq_obs::HitMissSnapshot {
        inseq_obs::HitMissSnapshot::new(
            self.config_hits.load(Ordering::Relaxed),
            self.config_misses.load(Ordering::Relaxed),
        )
    }

    /// The contention shape of this interner so far: lock waits, total wait
    /// nanoseconds, and per-shard insert counts.
    #[must_use]
    pub fn contention(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Ordering::Relaxed),
            shard_inserts: self
                .shard_inserts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_crosses_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(BASE - 1), (0, BASE - 1));
        assert_eq!(locate(BASE), (1, 0));
        assert_eq!(locate(3 * BASE - 1), (1, 2 * BASE - 1));
        assert_eq!(locate(3 * BASE), (2, 0));
        assert_eq!(locate(7 * BASE - 1), (2, 4 * BASE - 1));
        assert_eq!(locate(7 * BASE), (3, 0));
        // The spine covers the whole u32 id space.
        let (seg, off) = locate(u32::MAX as usize);
        assert!(seg < SPINE);
        assert!(off < BASE << seg);
    }

    #[test]
    fn segvec_entries_survive_growth_and_stay_stable() {
        let v: SegVec<usize> = SegVec::new();
        let n = 5000; // crosses seven segment boundaries
        for i in 0..n {
            assert_eq!(v.push(i), u32::try_from(i).unwrap());
        }
        let early: *const usize = v.get(0);
        for i in 0..n {
            assert_eq!(*v.get(i), i);
        }
        assert_eq!(v.len(), n);
        // No reallocation moved the early entry.
        assert_eq!(early, std::ptr::from_ref(v.get(0)));
    }

    #[test]
    fn edge_packing_roundtrips() {
        assert_eq!(unpack_edge(SEED_EDGE), None);
        let parent = ConfigId::from_raw(7);
        let fired = PaId::from_raw(123_456);
        assert_eq!(unpack_edge(pack_edge(parent, fired)), Some((parent, fired)));
        let parent = ConfigId::from_raw(u32::MAX - 1);
        let fired = PaId::from_raw(u32::MAX);
        assert_eq!(unpack_edge(pack_edge(parent, fired)), Some((parent, fired)));
    }

    #[test]
    fn value_ids_are_canonical_and_lock_free_reads_resolve() {
        let i = ConcurrentInterner::new();
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
    fn batch_interning_matches_single_interning() {
        let single = ConcurrentInterner::new();
        let batched = ConcurrentInterner::new();
        let pa = |n: i64| PendingAsync::new("A", vec![Value::Int(n % 37)]);
        // 100 one-entry bags over 37 distinct pending asyncs, back to back:
        // enough to take the heap path of the shard grouping, with
        // within-batch duplicates.
        let mut data = Vec::new();
        let mut spans = Vec::new();
        let mut singles = Vec::new();
        for n in 0..100 {
            let entry = (batched.intern_pa(&pa(n)), 1);
            spans.push((data.len(), data.len() + 1));
            data.push(entry);
            singles.push(single.intern_bag(&Multiset::singleton(pa(n))));
        }
        let mut out = Vec::new();
        batched.intern_bags(&data, &spans, &mut out);
        // Both interners dedup to the same id ↔ bag mapping.
        assert_eq!(singles.len(), out.len());
        for (s, b) in singles.iter().zip(&out) {
            assert_eq!(single.resolve_bag(*s), batched.resolve_bag(*b));
        }
        assert_eq!(single.bag_count(), 37);
        assert_eq!(batched.bag_count(), 37);
    }

    #[test]
    fn config_edges_record_and_relax() {
        let i = ConcurrentInterner::new();
        let store = i.intern_store(&GlobalStore::new(vec![Value::Int(1)]));
        let mk_bag = |n: i64| {
            i.intern_bag(&Multiset::singleton(PendingAsync::new(
                "A",
                vec![Value::Int(n)],
            )))
        };
        let (seed, fresh) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(0),
            edge: None,
        });
        assert!(fresh);
        assert_eq!(i.parent_edge(seed), None);
        assert_eq!(i.depth(seed), 0);

        let fired = i.intern_pa(&PendingAsync::new("A", vec![Value::Int(0)]));
        // A chain seed -> c1 -> c2.
        let (c1, _) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(1),
            edge: Some((seed, fired)),
        });
        let (c2, _) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(2),
            edge: Some((c1, fired)),
        });
        assert_eq!(i.depth(c1), 1);
        assert_eq!(i.depth(c2), 2);
        assert_eq!(i.parent_edge(c2), Some((c1, fired)));

        // Re-interning c2 directly from the seed relaxes its edge.
        let (again, fresh) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(2),
            edge: Some((seed, fired)),
        });
        assert_eq!(again, c2);
        assert!(!fresh);
        assert_eq!(i.parent_edge(c2), Some((seed, fired)));
        assert_eq!(i.depth(c2), 1);

        // A longer edge never replaces a shorter one, and seeds are never
        // relaxed.
        let (_, _) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(2),
            edge: Some((c1, fired)),
        });
        assert_eq!(i.parent_edge(c2), Some((seed, fired)));
        let (_, _) = i.intern_config_parts(ConfigReq {
            store,
            bag: mk_bag(0),
            edge: Some((c2, fired)),
        });
        assert_eq!(i.parent_edge(seed), None);

        let stats = i.intern_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn successor_stores_diff_only_changed_slots() {
        let i = ConcurrentInterner::new();
        let g1 = GlobalStore::new(vec![Value::Int(1), Value::Int(2)]);
        let s1 = i.intern_store(&g1);
        let g2 = GlobalStore::new(vec![Value::Int(1), Value::Int(3)]);
        // With and without a write-set hint, only slot 1 differs.
        let mut changed = Vec::new();
        i.changed_slots(s1, &g2, None, &mut changed);
        assert_eq!(changed, vec![(1, &Value::Int(3))]);
        changed.clear();
        i.changed_slots(s1, &g2, Some(&[1]), &mut changed);
        assert_eq!(changed, vec![(1, &Value::Int(3))]);
        // An unchanged successor (empty span) is the parent itself; the
        // changed one shares slot 0's value id and matches a full intern.
        let mut out = Vec::new();
        i.intern_successor_stores(s1, &changed, &[(0, 1), (1, 1)], &mut out);
        assert_eq!(out[1], s1);
        let s2 = out[0];
        assert_ne!(s1, s2);
        assert_eq!(i.store(s2), &g2);
        assert_eq!(i.store_slots(s1)[0], i.store_slots(s2)[0]);
        assert_eq!(i.store_count(), 2);
        // The diff-interned store and a full (non-diff) intern of the same
        // globals agree on the id — path-independent hashing plus the
        // equality probe make the diff path canonical.
        assert_eq!(i.intern_store(&g2), s2);
        // Re-submitting the same diff is a pure hit.
        i.intern_successor_stores(s1, &changed, &[(0, 1)], &mut out);
        assert_eq!(out, vec![s2]);
        assert_eq!(i.store_count(), 2);
    }

    #[test]
    fn bag_after_matches_multiset_semantics() {
        let i = ConcurrentInterner::new();
        let a = PendingAsync::new("A", vec![Value::Int(1)]);
        let b = PendingAsync::new("B", vec![]);
        let c = PendingAsync::new("C", vec![]);
        let bag: Multiset<PendingAsync> = [a.clone(), a.clone(), b.clone()].into_iter().collect();
        let bid = i.intern_bag(&bag);
        assert_eq!(i.resolve_bag(bid), bag);
        let pa_a = i.intern_pa(&a);
        let created: Multiset<PendingAsync> = [c.clone(), b.clone()].into_iter().collect();
        let mut entries = Vec::new();
        i.intern_created(&[&created], &mut entries);
        let mut merged = Vec::new();
        i.bag_after(bid, pa_a, &entries, &mut merged);
        let next = i.intern_bag_entries(&merged);
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
        let i = ConcurrentInterner::new();
        let g = GlobalStore::new(vec![Value::Int(1)]);
        let bag = Multiset::singleton(PendingAsync::new("A", vec![]));
        let c1 = Config::new(g.clone(), bag);
        let (id1, fresh1) = i.intern_config(&c1, None);
        assert!(fresh1);
        let (id2, fresh2) = i.intern_config(&c1, None);
        assert!(!fresh2);
        assert_eq!(id1, id2);
        assert_eq!(i.resolve_config(id1), c1);
        assert_eq!(i.find_config(&c1), Some(id1));
        let other = Config::new(g, Multiset::new());
        assert_eq!(i.find_config(&other), None);
    }

    #[test]
    fn tables_survive_growth_in_first_intern_order() {
        let i = ConcurrentInterner::new();
        let ids: Vec<ValueId> = (0..1000).map(|n| i.intern_value(&Value::Int(n))).collect();
        for (n, id) in ids.iter().enumerate() {
            // One thread: ids are dense in first-intern order.
            assert_eq!(id.index(), n);
            assert_eq!(i.find_value(&Value::Int(n as i64)), Some(*id));
        }
        assert_eq!(i.value_count(), 1000);
    }

    #[test]
    fn contention_counters_observe_inserts() {
        let i = ConcurrentInterner::new();
        for n in 0..100 {
            i.intern_value(&Value::Int(n));
        }
        let c = i.contention();
        assert_eq!(c.shard_inserts.len(), NUM_SHARDS);
        assert_eq!(c.inserts_total(), 100);
        // Single-threaded: the fast path never waits.
        assert_eq!(c.lock_waits, 0);
        assert_eq!(c.lock_wait_nanos, 0);
    }
}
