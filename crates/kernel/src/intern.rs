//! The id scheme of hash-consed exploration state.
//!
//! Explicit-state exploration spends its time asking one question — *have I
//! seen this configuration before?* — and answering it over tree-structured
//! data (`Value` trees inside a [`GlobalStore`](crate::GlobalStore), a
//! `BTreeMap`-backed [`Multiset`](crate::Multiset) of
//! [`PendingAsync`](crate::PendingAsync)s) costs a deep hash plus a deep
//! comparison per candidate. The interner
//! ([`crate::cintern::ConcurrentInterner`]) replaces that with *hash
//! consing*: every distinct value, store, pending async, pending bag, and
//! configuration is placed in an append-only arena exactly once and named by
//! a dense `u32` id. Because insertion deduplicates structurally, the map
//! from id to object is injective, so **id equality is structural equality**
//! and comparing or hashing interned state is O(1).
//!
//! Layering (each level's key is a sequence of ids from the level below, so
//! injectivity lifts inductively):
//!
//! * [`ValueId`] — one arena entry per distinct `Value` tree (slot values
//!   of stores). Deduplicated by full-tree hash + equality, paid once per
//!   *distinct* value ever seen, not once per transition.
//! * [`StoreId`] — a `GlobalStore` keyed by its slot vector of `ValueId`s.
//!   Successor stores are interned as a diff against their parent's slot
//!   vector, so unchanged slots are never re-hashed — this is where
//!   structural sharing replaces the per-transition deep clone.
//! * [`PaId`] — one entry per distinct `PendingAsync`.
//! * [`BagId`] — a pending multiset as `(PaId, count)` entries sorted by the
//!   *resolved* pending-async order, which keeps iteration order identical
//!   to `Multiset::distinct()` while successor bags are produced by a
//!   small-diff rebuild (copy parent entries, decrement the consumed async,
//!   merge the created ones) instead of cloning a `BTreeMap`.
//! * [`ConfigId`] — a configuration as the pair `(StoreId, BagId)`; an
//!   explorer's visited set is just this arena, and membership is a probe
//!   over two `u32`s.
//!
//! This module holds the id types, the open-addressing `IdTable` each
//! dedup shard is built on, and the id-sequence hashes; the arenas live in
//! [`crate::cintern`].

use std::hash::Hasher;

use crate::hash::FxHasher;

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
    /// The id of an interned [`Value`](crate::Value).
    ValueId
);
id_type!(
    /// The id of an interned [`GlobalStore`](crate::GlobalStore).
    StoreId
);
id_type!(
    /// The id of an interned [`PendingAsync`](crate::PendingAsync).
    PaId
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
/// The interner keeps one table per dedup shard, each behind its own short
/// lock. A table allocates its slots on the first insert, so an interner
/// whose shards mostly stay empty (a short-lived mover checker) costs a few
/// small allocations to build, not one slot array per shard.
#[derive(Debug, Clone)]
pub(crate) struct IdTable {
    slots: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl IdTable {
    /// Slots allocated on the first insert. Small: an arena's index is 64
    /// shard tables, and a short-lived interner touches dozens of shards
    /// per arena while holding only a handful of objects in each.
    const INITIAL_SLOTS: usize = 8;

    pub(crate) const fn new() -> Self {
        IdTable {
            slots: Vec::new(),
            mask: 0,
            len: 0,
        }
    }

    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
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
        if self.slots.is_empty() {
            self.slots = vec![(0, 0); Self::INITIAL_SLOTS];
            self.mask = Self::INITIAL_SLOTS - 1;
        }
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
