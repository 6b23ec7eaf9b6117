//! Observability counters of the parallel exploration engine.
//!
//! [`crate::ParallelExplorer`] reports one [`ExploreStats`] per run, so
//! callers — `IsReport.stats`, `table1 --stats`, the bench harness — read
//! the same shape whether a run completed, was cancelled or ran out of
//! budget.

use inseq_obs::{
    batch_hist_bucket, ContentionSnapshot, EngineSnapshot, HitMissSnapshot, BATCH_HIST_BUCKETS,
};

/// Observability counters for one shard (one worker) of a parallel
/// exploration. Plain per-worker integers bumped off the hot path's
/// lock-free sections; they never influence exploration results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Config-dedup hits/misses attributed to this worker (misses = the
    /// distinct configurations this worker interned first; hits = duplicate
    /// successors it rejected in O(1)). Summed over shards, misses equal
    /// the visited-set size.
    pub intern: HitMissSnapshot,
    /// Configurations this worker expanded (evaluated all pending asyncs
    /// of) — the occupancy measure: a balanced run has near-equal
    /// `expanded` across shards.
    pub expanded: u64,
    /// Successful steal operations this worker performed when its own
    /// deque ran dry.
    pub steals: u64,
    /// Configurations this worker acquired by stealing.
    pub stolen_in: u64,
    /// Pending asyncs this worker left unexpanded because an ample
    /// singleton stood in for them (partial-order reduction only; zero on
    /// unreduced runs).
    pub pruned: u64,
    /// Successors whose orbit representative differed from the raw
    /// successor under the symmetry quotient (symmetry reduction only;
    /// zero on unreduced runs).
    pub orbit_collapses: u64,
    /// Phase-3 intern batches this worker staged: expansion rounds that
    /// interned at least one successor through the concurrent interner.
    pub intern_batches: u64,
    /// Histogram of those batches by successor count, with bucket bounds
    /// [`inseq_obs::BATCH_HIST_BOUNDS`].
    pub intern_batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// High-water mark of this worker's bounded pending-async cache (the
    /// reduction path's value cache; zero on unreduced runs).
    pub pa_cache_peak: u64,
    /// This worker's successor-cache probes: hits skipped evaluation,
    /// misses evaluated (bypassed expansions are not counted).
    pub succ_cache: HitMissSnapshot,
    /// Whether this worker's successor cache went to bypass after its
    /// warmup.
    pub succ_bypass: bool,
}

impl ShardStats {
    /// Records one phase-3 intern batch of `successors` staged configs into
    /// the batch counters. Batches of zero (a blocked or fully-failing
    /// expansion) are not counted.
    pub fn note_intern_batch(&mut self, successors: usize) {
        if successors == 0 {
            return;
        }
        self.intern_batches += 1;
        self.intern_batch_hist[batch_hist_bucket(successors as u64)] += 1;
    }
}

/// Aggregated observability counters of one parallel exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Per-shard counters, indexed by worker.
    pub shards: Vec<ShardStats>,
    /// Hit/miss totals of the shared footprint memo (all zero when no
    /// action has a footprint or the memo disabled itself in probation).
    pub memo: HitMissSnapshot,
    /// The concurrent interner's contention shape: lock waits, total wait
    /// nanoseconds, per-shard insert spread.
    pub contention: ContentionSnapshot,
}

impl ExploreStats {
    /// Interner hits/misses summed over all shards.
    #[must_use]
    pub fn intern(&self) -> HitMissSnapshot {
        self.shards
            .iter()
            .fold(HitMissSnapshot::default(), |acc, s| acc.merged(s.intern))
    }

    /// Total configurations expanded across all shards. On a run that
    /// completes without cancellation this equals the visited-set size:
    /// every configuration is expanded exactly once.
    #[must_use]
    pub fn expanded(&self) -> u64 {
        self.shards.iter().map(|s| s.expanded).sum()
    }

    /// Total successful steal operations.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.shards.iter().map(|s| s.steals).sum()
    }

    /// Total configurations that moved between workers by stealing.
    #[must_use]
    pub fn stolen(&self) -> u64 {
        self.shards.iter().map(|s| s.stolen_in).sum()
    }

    /// Total pending asyncs left unexpanded by partial-order reduction.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.shards.iter().map(|s| s.pruned).sum()
    }

    /// Total successors collapsed onto a different orbit representative by
    /// the symmetry quotient.
    #[must_use]
    pub fn orbit_collapses(&self) -> u64 {
        self.shards.iter().map(|s| s.orbit_collapses).sum()
    }

    /// Total phase-3 intern batches staged across all workers.
    #[must_use]
    pub fn intern_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.intern_batches).sum()
    }

    /// Batch-size histogram summed over all workers.
    #[must_use]
    pub fn intern_batch_hist(&self) -> [u64; BATCH_HIST_BUCKETS] {
        let mut hist = [0u64; BATCH_HIST_BUCKETS];
        for s in &self.shards {
            for (slot, n) in hist.iter_mut().zip(s.intern_batch_hist) {
                *slot += n;
            }
        }
        hist
    }

    /// Successor-cache probes summed over all workers.
    #[must_use]
    pub fn succ_cache(&self) -> HitMissSnapshot {
        self.shards
            .iter()
            .fold(HitMissSnapshot::default(), |acc, s| {
                acc.merged(s.succ_cache)
            })
    }

    /// Whether any worker's successor cache went to bypass.
    #[must_use]
    pub fn succ_bypass(&self) -> bool {
        self.shards.iter().any(|s| s.succ_bypass)
    }

    /// Largest pending-async cache any worker held (reduction path only).
    #[must_use]
    pub fn pa_cache_peak(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.pa_cache_peak)
            .max()
            .unwrap_or(0)
    }

    /// The engine-level shape of this run as a plain-value
    /// [`EngineSnapshot`], for embedding in reports (`IsReport.stats`) and
    /// bench rows. Worker count is the shard count; per-shard `expanded`
    /// entries carry the occupancy profile.
    #[must_use]
    pub fn engine_snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            workers: u32::try_from(self.shards.len()).unwrap_or(u32::MAX),
            expanded: self.shards.iter().map(|s| s.expanded).collect(),
            steals: self.steals(),
            stolen: self.stolen(),
            pruned: self.pruned(),
            orbit_collapses: self.orbit_collapses(),
            lock_waits: self.contention.lock_waits,
            lock_wait_nanos: self.contention.lock_wait_nanos,
            intern_batches: self.intern_batches(),
            intern_batch_hist: if self.intern_batches() == 0 {
                Vec::new()
            } else {
                self.intern_batch_hist().to_vec()
            },
            shard_inserts: self.contention.shard_inserts.clone(),
            succ_cache: self.succ_cache(),
            succ_bypass: self.succ_bypass(),
        }
    }
}
