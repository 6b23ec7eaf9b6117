//! Layer 1: parallel exploration over a lock-free concurrent interner with
//! per-shard work-stealing deques.
//!
//! [`ParallelExplorer`] is a drop-in alternative to
//! [`inseq_kernel::Explorer`]: it enumerates exactly the same reachable
//! configuration set and produces the same `Good`/`Trans` summary, in the
//! same result type ([`Exploration`], wrapped with the engine's counters in
//! [`ParallelExploration`]), but expands configurations on `N` worker
//! threads. Three structural decisions shape it:
//!
//! 1. **One shared [`ConcurrentInterner`]** for all workers. Ids are
//!    meaningful to every worker, so a successor is deduplicated *before*
//!    any cross-worker handoff, and handing work to another worker moves
//!    three ids, not a materialized [`Config`]. Resolution is entirely
//!    lock-free: arenas are segmented and pointer-stable, so a worker
//!    borrows the parent's `GlobalStore`, slot ids, and bag entries
//!    straight from the interner for the whole expansion — the old phase-1
//!    snapshot lock (and the per-worker pending-async cache that grew to
//!    the global `PaId` universe per worker) is gone wholesale. Dedup locks
//!    only the hashed value's index shard, so inserts of distinct values
//!    proceed in parallel.
//! 2. **Batched phase-3 interning.** A worker stages a whole expansion's
//!    successors thread-locally — strictly-changed store slots, bag entry
//!    diffs, created pending asyncs — then interns them through the
//!    interner's batch API, which groups each kind by dedup shard and locks
//!    every affected shard at most once per pass. An expansion with a dozen
//!    successors pays O(affected shards) lock acquisitions, not
//!    O(successors), and nothing is interned at all on an evaluation
//!    fault. Batch sizes and shard-lock contention surface as engine
//!    counters (`--stats`).
//! 3. **Per-shard work-stealing deques.** Each worker owns a deque of
//!    `(config, store, bag)` id triples: it pushes and pops work at the
//!    *back* (LIFO, cache-warm), and an idle worker steals `⌈len/2⌉`
//!    (capped at [`STEAL_BATCH`]) from the *front* of a victim's deque —
//!    one `drain` buffer operation, not a per-config send. There is no
//!    ownership routing: whichever worker interns a fresh configuration
//!    queues it locally, and load balance emerges from stealing.
//!
//! # Witness traces
//!
//! Alongside each interned configuration the interner records a **parent
//! edge** embedded in the config arena entry: the predecessor's
//! [`ConfigId`], the fired pending async, and the recorded firing distance
//! from a seed, packed into atomics written only under the config's dedup
//! shard lock. A fresh intern records its discovering edge; a duplicate
//! intern *relaxes* the stored parent when it arrived via a shorter
//! recorded path. Recorded distances strictly decrease along parent chains
//! (relaxation only ever lowers a target's distance), so every chain is
//! acyclic and terminates at a seed even while other workers relax edges
//! mid-walk — walking it lock-free yields a concrete, replayable firing
//! sequence for any configuration of interest: gate failures
//! ([`Exploration::failure_witnesses`]), deadlocks
//! ([`Exploration::deadlock_witnesses`]), budget exhaustion (the
//! `trace` inside [`ExploreError::BudgetExceeded`]), or any reachable
//! configuration ([`Exploration::trace_to`]). Traces are valid
//! paths but not guaranteed globally shortest: a relaxation does not
//! propagate to already-recorded descendants.
//!
//! # Reduction
//!
//! [`ParallelExplorer::with_reduction`] applies the same
//! [`ReductionPolicy`] contract as the sequential explorer: when the policy
//! proves an ample singleton sound at a configuration, only that pending
//! async is expanded, with the cycle proviso that an ample round which
//! interns nothing fresh falls back to expanding the remaining pendings.
//! The ample decision sees owned pending-async values through a *bounded*
//! per-worker cache (capacity [`PA_CACHE_CAP`], epoch-evicted, peak size
//! reported in stats). Successors are canonicalized under the policy's
//! symmetry quotient (if any) before interning, with a per-worker
//! canonicalization cache. Reduced traces under a symmetry quotient are
//! valid modulo node renaming only.
//!
//! # Expansion pipeline
//!
//! A worker expands one configuration in three phases: (1) borrow the
//! parent's store, slot ids, and bag entries from the interner — lock-free,
//! the references stay valid for the interner's lifetime; (2) probe the
//! worker's [`SuccessorCache`] — the sequential explorer's type — for
//! every selected pending async and evaluate the misses, consulting the
//! shared footprint memo ([`crate::memo`]) on those only; (3) fill the
//! cache with the misses, staged as small diffs against the parent's ids
//! (changed slots compared against the footprint's write set, or the
//! memo's write-deltas replayed), and apply the round: bags rebuilt by a
//! sorted merge, then configs with their parent edges, each kind interned
//! through one shard-grouped pass. Fresh successors are pushed onto the
//! worker's own deque in one batch.
//!
//! # Termination
//!
//! A shared in-flight counter tracks configurations that are queued or
//! being expanded: it is incremented for every fresh successor *before* the
//! parent's own decrement, so the counter can only reach zero when no work
//! exists anywhere — at which point every spinning worker observes the zero
//! and exits. Stolen batches move between locked deques and are never
//! uncounted in transit.
//!
//! # Cancellation and budget
//!
//! A shared cancellation flag stops all workers early on the first kernel
//! error or on budget exhaustion. The budget is checked against the shared
//! interner's exact config count at each fresh intern (seeds exempt),
//! mirroring the sequential explorer; exhaustion reports the post-join
//! visited total via [`ExploreError::BudgetExceeded`], with a concrete
//! witness trace to the exhaustion point walked lock-free from the
//! parent-edge log. Per-shard
//! counters survive every error path:
//! [`ParallelExplorer::explore_with_stats`] aggregates them after the join
//! even when the run is cut short mid-steal.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::memo::{build_plans, MemoPlan, Resolved, SharedMemo};
use crate::stats::{ExploreStats, ShardStats};

use inseq_obs::HitMissSnapshot;

use inseq_kernel::hash::FxHashMap;
use inseq_kernel::{
    canonical_parts, ActionName, BagId, ConcurrentInterner, Config, ConfigId, ConfigReq,
    Exploration, ExploreError, ExploreRecord, GlobalStore, PaId, PendingAsync, Program,
    ReductionPolicy, StoreId, SuccessorCache, Summary, DEFAULT_CONFIG_BUDGET,
};

/// Upper bound on the configurations moved by one steal. Half the victim's
/// deque is taken up to this cap: enough to amortize the steal far beyond
/// its two lock acquisitions, small enough that a thief cannot starve a
/// victim that is about to pop its own back end.
const STEAL_BATCH: usize = 64;

/// Capacity bound of the per-worker pending-async value cache used on the
/// reduction path (the ample decision needs owned values). The cache is
/// epoch-evicted — cleared wholesale when full — so a worker's footprint is
/// bounded by the cap instead of growing to the global `PaId` universe;
/// re-warming reads the lock-free arena. The high-water mark is reported
/// per worker via `ShardStats::pa_cache_peak`.
const PA_CACHE_CAP: usize = 8192;

/// A unit of work: an interned configuration and its parts. Ids are global
/// (one shared interner), so handing this to another worker is a copy of
/// three `u32`s — no materialization, no re-interning.
type WorkItem = (ConfigId, StoreId, BagId);

/// A parallel exhaustive explorer for a [`Program`].
///
/// Mirrors the sequential [`inseq_kernel::Explorer`] API: construct with
/// [`ParallelExplorer::new`], optionally configure, then call
/// [`explore`](ParallelExplorer::explore) or
/// [`summarize`](ParallelExplorer::summarize).
pub struct ParallelExplorer<'p> {
    program: &'p Program,
    workers: usize,
    budget: usize,
    reduction: Option<&'p dyn ReductionPolicy>,
}

impl fmt::Debug for ParallelExplorer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelExplorer")
            .field("workers", &self.workers)
            .field("budget", &self.budget)
            .field("reduced", &self.reduction.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> ParallelExplorer<'p> {
    /// Creates a parallel explorer with one worker per available hardware
    /// thread and the default configuration budget.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        ParallelExplorer {
            program,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            budget: DEFAULT_CONFIG_BUDGET,
            reduction: None,
        }
    }

    /// Sets the number of worker threads (and therefore deques). Clamped to
    /// at least one.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the maximum number of distinct configurations to visit before
    /// giving up with [`ExploreError::BudgetExceeded`].
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Explores under a reduction policy, with the same semantics as
    /// [`inseq_kernel::Explorer::with_reduction`]: ample singletons where
    /// the policy proves them sound, successor canonicalization under the
    /// policy's symmetry quotient. Verdicts are preserved; visited/edge
    /// counts refer to the *reduced* graph.
    #[must_use]
    pub fn with_reduction(mut self, policy: &'p dyn ReductionPolicy) -> Self {
        self.reduction = Some(policy);
        self
    }

    /// The configured number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Explores all configurations reachable from the given initial
    /// configurations, in parallel.
    ///
    /// The resulting reachable set, failure verdict, deadlock set, terminal
    /// stores, and edge count are identical to those of
    /// [`inseq_kernel::Explorer::explore`] on the same input.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BudgetExceeded`] when the visited set
    /// exceeds the budget and [`ExploreError::Kernel`] when a pending async
    /// refers to an unknown action or has the wrong arity.
    pub fn explore(
        &self,
        initial: impl IntoIterator<Item = Config>,
    ) -> Result<ParallelExploration, ExploreError> {
        self.explore_with_stats(initial).0
    }

    /// Like [`explore`](Self::explore), but also returns the aggregated
    /// per-shard counters even when the exploration fails: on
    /// `BudgetExceeded` (or any other error) the workers' outputs are still
    /// joined and merged, so steal/expansion accounting is never lost to
    /// the error path.
    pub fn explore_with_stats(
        &self,
        initial: impl IntoIterator<Item = Config>,
    ) -> (Result<ParallelExploration, ExploreError>, ExploreStats) {
        // Force one-time action setup (e.g. compiling to bytecode) before
        // spawning workers, so they never race on first-eval compilation.
        self.program.prepare_actions();
        let n = self.workers;

        // Seeds are interned up front by the calling thread — exempt from
        // the budget check, like the sequential explorer's — and dealt
        // round-robin across the deques. Seeds carry no parent edge.
        let interner = ConcurrentInterner::new();
        let mut record = ExploreRecord::default();
        let mut seed_items: Vec<WorkItem> = Vec::new();
        let mut seed_hits = 0u64;
        for config in initial {
            let (id, fresh) = interner.intern_config(&config, None);
            if fresh {
                let (sid, bagid) = interner.config_parts(id);
                seed_items.push((id, sid, bagid));
            } else {
                seed_hits += 1;
            }
        }
        if seed_items.is_empty() {
            let stats = ExploreStats {
                shards: vec![ShardStats::default(); n],
                memo: HitMissSnapshot::default(),
                contention: interner.contention(),
            };
            let exploration = Exploration::new(interner, record);
            return (
                Ok(ParallelExploration {
                    exploration,
                    stats: stats.clone(),
                }),
                stats,
            );
        }
        let seed_count = seed_items.len();

        let deques: Vec<Deque> = (0..n).map(|_| Deque::default()).collect();
        for (k, item) in seed_items.into_iter().enumerate() {
            deques[k % n]
                .lock()
                .expect("deque poisoned")
                .push_back(item);
        }
        let shared = Shared {
            interner,
            deques,
            in_flight: AtomicUsize::new(seed_count),
            cancelled: AtomicBool::new(false),
            error: Mutex::new(None),
        };
        let plans = build_plans(self.program);
        let memo = SharedMemo::for_plans(plans.is_empty());

        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let worker = Worker {
                        me,
                        program: self.program,
                        budget: self.budget,
                        reduction: self.reduction,
                        shared: &shared,
                        plans: &plans,
                        memo: memo.as_ref(),
                        pa_cache: FxHashMap::default(),
                        pa_buf: Vec::new(),
                        counts: Vec::new(),
                        outcomes: Vec::new(),
                        cache: SuccessorCache::new(self.program),
                        fresh: Vec::new(),
                        canon_cache: FxHashMap::default(),
                        out: WorkerOutput::default(),
                    };
                    scope.spawn(move || worker.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked"))
                .collect()
        });

        // Post-join aggregation: per-shard counters survive every exit path
        // (normal, cancelled, budget-exceeded mid-steal).
        let mut stats = ExploreStats {
            shards: Vec::with_capacity(n),
            memo: memo
                .as_ref()
                .map_or_else(HitMissSnapshot::default, SharedMemo::snapshot),
            contention: shared.interner.contention(),
        };
        for (i, out) in outputs.into_iter().enumerate() {
            let mut shard = out.stats;
            if i == 0 {
                // Seed interning ran on the calling thread; credit it to
                // shard 0 so summed misses equal the visited-set size.
                shard.intern = shard
                    .intern
                    .merged(HitMissSnapshot::new(seed_hits, seed_count as u64));
            }
            stats.shards.push(shard);
            record.failures.extend(out.failures);
            record.deadlocks.extend(out.deadlocks);
            record.terminal.extend(out.terminal);
            record.edges += out.edges;
        }

        let Shared {
            interner, error, ..
        } = shared;
        if let Some(mut err) = error.into_inner().expect("error slot poisoned") {
            if let ExploreError::BudgetExceeded { visited, .. } = &mut err {
                // Racing workers may have interned past the recording
                // worker's observation; report the post-join exact total.
                *visited = interner.config_count();
            }
            return (Err(err), stats);
        }
        // Terminal stores were recorded as ids only; ordering them by store
        // once, after the join, makes their order schedule-independent.
        // (Each terminal configuration is expanded once and has its own
        // store, so there are no duplicates.)
        record
            .terminal
            .sort_unstable_by(|&a, &b| interner.store(a).cmp(interner.store(b)));
        record.pruned = stats.pruned();
        record.orbit_collapses = stats.orbit_collapses();
        record.succ_cache = stats.succ_cache();
        record.succ_bypass = stats.succ_bypass();
        (
            Ok(ParallelExploration {
                exploration: Exploration::new(interner, record),
                stats: stats.clone(),
            }),
            stats,
        )
    }

    /// Computes the program summary (the data of Def. 3.2) for a single
    /// initialized configuration, like [`inseq_kernel::Explorer::summarize`].
    ///
    /// # Errors
    ///
    /// Propagates exploration errors.
    pub fn summarize(&self, initial: Config) -> Result<Summary, ExploreError> {
        Ok(self.explore([initial])?.summary())
    }
}

/// One worker's work-stealing deque. The owner pushes and pops at the back
/// under the mutex; thieves drain a batch from the front under the same
/// mutex, so an item is delivered to exactly one worker.
type Deque = Mutex<VecDeque<WorkItem>>;

struct Shared {
    /// The shared arenas, dedup shards, and parent-edge log. No wrapping
    /// mutex: reads are lock-free and writes lock only the hashed value's
    /// dedup shard.
    interner: ConcurrentInterner,
    deques: Vec<Deque>,
    /// Configurations queued or currently being expanded. Zero is
    /// conclusive: fresh successors are counted before their parent's
    /// decrement, and steals move items between locked deques.
    in_flight: AtomicUsize,
    cancelled: AtomicBool,
    /// First error observed by any worker.
    error: Mutex<Option<ExploreError>>,
}

/// Per-worker results, moved out of the worker when it exits, in the ids
/// of [`ExploreRecord`]: configurations, witnesses and stores are resolved
/// from the shared interner only when the exploration is read.
#[derive(Debug, Default)]
struct WorkerOutput {
    failures: Vec<(ConfigId, PaId, String)>,
    deadlocks: Vec<ConfigId>,
    terminal: Vec<StoreId>,
    edges: usize,
    stats: ShardStats,
}

struct Worker<'p, 'sh> {
    me: usize,
    program: &'p Program,
    budget: usize,
    /// The reduction policy, if any — consulted on lock-free borrows.
    reduction: Option<&'p dyn ReductionPolicy>,
    shared: &'sh Shared,
    /// Per-action memoization plans (absent for opaque actions).
    plans: &'sh HashMap<ActionName, MemoPlan>,
    /// The shared evaluation memo; `None` when no action has a footprint.
    memo: Option<&'sh SharedMemo>,
    /// Bounded pending-async value cache for the reduction path (the ample
    /// decision needs owned values). Capacity [`PA_CACHE_CAP`],
    /// epoch-evicted; unused on unreduced runs, where workers borrow
    /// pending asyncs lock-free from the interner instead.
    pa_cache: FxHashMap<PaId, PendingAsync>,
    /// Reusable buffer of the distinct pending-async ids of the
    /// configuration under expansion.
    pa_buf: Vec<PaId>,
    /// Multiplicities aligned with `pa_buf`, so the ample decision sees the
    /// full bag.
    counts: Vec<u32>,
    /// Reusable buffer of evaluated outcomes, staged and batch-interned in
    /// phase 3.
    outcomes: Vec<(PaId, Resolved)>,
    /// This worker's `(store, pending async)` successor cache. Hits skip
    /// evaluation, write-diffing and value/store interning; only the
    /// per-configuration stages (bag merge, config interning, parent edge)
    /// remain.
    cache: SuccessorCache,
    /// Fresh successors of the current expansion, queued in one batch.
    fresh: Vec<WorkItem>,
    /// Raw successor parts → canonical orbit parts, per worker. Sound to
    /// cache because interner ids are append-only.
    canon_cache: FxHashMap<(StoreId, BagId), (StoreId, BagId)>,
    out: WorkerOutput,
}

impl Worker<'_, '_> {
    fn run(mut self) -> WorkerOutput {
        loop {
            if self.shared.cancelled.load(Ordering::Acquire) {
                break;
            }
            match self.pop_or_steal() {
                Some(item) => {
                    self.expand(item);
                    // The parent is done only now; its fresh successors were
                    // counted inside `expand`, so a zero stays conclusive.
                    self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if self.shared.in_flight.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Another worker holds counted work; let it run (this
                    // matters on fewer cores than workers).
                    std::thread::yield_now();
                }
            }
        }
        self.out.stats.succ_cache = self.cache.stats();
        self.out.stats.succ_bypass = self.cache.bypassed();
        self.out
    }

    /// Pops from the back of the own deque, or steals a batch from the
    /// front of the first non-empty victim. Returns `None` only when every
    /// deque was observed empty.
    fn pop_or_steal(&mut self) -> Option<WorkItem> {
        if let Some(item) = self.shared.deques[self.me]
            .lock()
            .expect("deque poisoned")
            .pop_back()
        {
            return Some(item);
        }
        let n = self.shared.deques.len();
        for k in 1..n {
            let victim = &self.shared.deques[(self.me + k) % n];
            let mut stolen: Vec<WorkItem> = {
                let mut q = victim.lock().expect("deque poisoned");
                let len = q.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2).min(STEAL_BATCH);
                q.drain(..take).collect()
            };
            self.out.stats.steals += 1;
            self.out.stats.stolen_in += stolen.len() as u64;
            let first = stolen.pop();
            if !stolen.is_empty() {
                self.shared.deques[self.me]
                    .lock()
                    .expect("deque poisoned")
                    .extend(stolen);
            }
            return first;
        }
        None
    }

    /// An owned copy of a pending async through the bounded per-worker
    /// cache (reduction path only — the hot path borrows lock-free).
    fn cached_pa(&mut self, paid: PaId) -> PendingAsync {
        if let Some(pa) = self.pa_cache.get(&paid) {
            return pa.clone();
        }
        let pa = self.shared.interner.pa(paid).clone();
        if self.pa_cache.len() >= PA_CACHE_CAP {
            // Epoch eviction: drop the whole map instead of tracking
            // recency per entry; the cap bounds worst-case memory and
            // re-warming reads the lock-free arena.
            self.pa_cache.clear();
        }
        self.pa_cache.insert(paid, pa.clone());
        self.out.stats.pa_cache_peak = self.out.stats.pa_cache_peak.max(self.pa_cache.len() as u64);
        pa
    }

    /// Expands one configuration: borrow the parent's parts (lock-free) →
    /// choose an ample set → evaluate → stage and batch-intern successors
    /// with their parent edges → queue fresh work. With a reduction policy
    /// the evaluate/intern rounds may run twice: the cycle proviso falls
    /// back to the pruned pendings when the ample round interns nothing
    /// fresh.
    fn expand(&mut self, (cid, sid, bagid): WorkItem) {
        self.out.stats.expanded += 1;
        let interner = &self.shared.interner;

        // Phase 1: borrow the parent's parts straight from the pointer-
        // stable arenas. No lock, no snapshot clone — the references stay
        // valid for the whole expansion.
        let store: &GlobalStore = interner.store(sid);
        self.pa_buf.clear();
        self.counts.clear();
        for &(p, count) in interner.bag_entries(bagid) {
            self.pa_buf.push(p);
            self.counts.push(count);
        }
        if self.pa_buf.is_empty() {
            self.out.terminal.push(sid);
        }

        // Bypass verdict and eviction, before anything of this expansion
        // is cached.
        self.cache.begin(self.pa_buf.len());

        // Ample decision: the policy sees the full bag (owned values via
        // the bounded cache + multiplicities).
        let ample: Option<PaId> = match self.reduction {
            Some(policy) if self.pa_buf.len() >= 2 => {
                let mut pending: Vec<(PendingAsync, usize)> = Vec::with_capacity(self.pa_buf.len());
                for k in 0..self.pa_buf.len() {
                    let paid = self.pa_buf[k];
                    let count = self.counts[k] as usize;
                    let pa = self.cached_pa(paid);
                    pending.push((pa, count));
                }
                policy
                    .ample(self.program, store, &pending)
                    .map(|i| self.pa_buf[i])
            }
            _ => None,
        };
        let mut selected: Vec<PaId> = match ample {
            Some(p) => vec![p],
            None => self.pa_buf.clone(),
        };
        let mut ample_round = ample.is_some();

        let mut fault = None;
        let mut progressed = self.pa_buf.is_empty();
        loop {
            // Phase 2: evaluate the selected pending asyncs whose firing
            // outcome the successor cache does not already hold (the
            // footprint memo takes its own short lock per probe/insert).
            // Firing is a pure function of `(store, pending async)`, so a
            // cached pair skips evaluation altogether.
            self.outcomes.clear();
            for &paid in &selected {
                if self.cache.probe(sid, paid).is_some() {
                    continue;
                }
                let pa = interner.pa(paid);
                let plan = self.plans.get(&pa.action);
                let active = match (self.memo, plan) {
                    (Some(memo), Some(plan)) if memo.enabled.load(Ordering::Relaxed) => {
                        Some((memo, plan))
                    }
                    _ => None,
                };
                let outcome = if let Some((memo, plan)) = active {
                    if let Some(cached) = memo.probe(pa, plan, store) {
                        Resolved::Cached(cached)
                    } else {
                        match self.program.eval_pa(store, pa) {
                            Ok(out) => {
                                memo.publish(pa, plan, store, &out);
                                Resolved::Owned(out)
                            }
                            Err(e) => {
                                fault = Some(ExploreError::from(e));
                                break;
                            }
                        }
                    }
                } else {
                    match self.program.eval_pa(store, pa) {
                        Ok(out) => Resolved::Owned(out),
                        Err(e) => {
                            fault = Some(ExploreError::from(e));
                            break;
                        }
                    }
                };
                self.outcomes.push((paid, outcome));
            }

            // Phase 3: fill the successor cache from the freshly evaluated
            // outcomes, then apply the cached successors of *every*
            // selected pending to this configuration. On a phase-2 fault
            // nothing is staged and nothing is interned — the expansion
            // leaves no partial successors behind.
            let fresh_before = self.fresh.len();
            if fault.is_none() {
                self.cache.fill(
                    interner,
                    sid,
                    self.outcomes.iter().map(|(p, o)| (*p, o.view())),
                );
                self.outcomes.clear();
                if let Err(f) = self.apply_round(cid, bagid, &selected, &mut progressed) {
                    fault = Some(f);
                }
            }

            if fault.is_some() || !ample_round {
                break;
            }
            if self.fresh.len() > fresh_before {
                // The ample expansion discovered a new configuration; the
                // pruned pendings fire from there eventually.
                self.out.stats.pruned += (self.pa_buf.len() - 1) as u64;
                break;
            }
            // Cycle proviso: every ample successor was already visited, so
            // postponing the others could starve them around a cycle. Fall
            // back to full expansion of the remaining pendings. (Racing
            // workers make this an over-approximation — a successor another
            // worker interned first also triggers the fallback — which only
            // ever expands more, never less.)
            let chosen = selected[0];
            selected = self
                .pa_buf
                .iter()
                .copied()
                .filter(|&p| p != chosen)
                .collect();
            ample_round = false;
        }

        if fault.is_none() && !progressed {
            self.out.deadlocks.push(cid);
        }

        match fault {
            None => {
                // Count the fresh successors in-flight *before* queueing
                // them (and before the caller decrements the parent), then
                // hand them to the own deque in one batch.
                if !self.fresh.is_empty() {
                    self.shared
                        .in_flight
                        .fetch_add(self.fresh.len(), Ordering::AcqRel);
                    self.shared.deques[self.me]
                        .lock()
                        .expect("deque poisoned")
                        .extend(self.fresh.drain(..));
                }
            }
            Some(err) => {
                self.fresh.clear();
                self.fail(err);
            }
        }
    }

    /// Cache → configuration: applies the cached firing outcome of every
    /// selected pending async to the configuration under expansion —
    /// failures recorded by id, and the bag merge — then
    /// canonicalizes under the symmetry quotient and interns the configs
    /// with their discovering parent edges in one batch. Fresh configs are
    /// budget-checked against the exact shared count and staged for the
    /// own deque; duplicates cost one id-pair probe plus a possible
    /// parent-edge relaxation inside the interner.
    fn apply_round(
        &mut self,
        cid: ConfigId,
        bagid: BagId,
        selected: &[PaId],
        progressed: &mut bool,
    ) -> Result<(), ExploreError> {
        let interner = &self.shared.interner;
        let failures = &mut self.out.failures;
        *progressed |= self.cache.apply(interner, bagid, selected, |paid, reason| {
            failures.push((cid, paid, reason.to_owned()));
        });
        let successors = self.cache.successors();
        if successors.len() == 0 {
            return Ok(());
        }
        self.out.edges += successors.len();
        let mut fired: Vec<PaId> = Vec::with_capacity(successors.len());
        let mut parts: Vec<(StoreId, BagId)> = Vec::with_capacity(successors.len());
        for (paid, part) in successors {
            fired.push(paid);
            parts.push(part);
        }

        // Canonicalize under the symmetry quotient, when active.
        if let Some(spec) = self.reduction.and_then(ReductionPolicy::symmetry) {
            for part in &mut parts {
                let canon = canonical_parts(interner, &mut self.canon_cache, spec, *part);
                if canon != *part {
                    self.out.stats.orbit_collapses += 1;
                    *part = canon;
                }
            }
        }

        // Intern the configs with their discovering edges, one pass over
        // their shards. Within-batch duplicates resolve like sequential
        // repeats: first fresh, rest hits (with relaxation).
        let config_reqs: Vec<ConfigReq> = parts
            .iter()
            .zip(&fired)
            .map(|(&(store, bag), &f)| ConfigReq {
                store,
                bag,
                edge: Some((cid, f)),
            })
            .collect();
        let mut results: Vec<(ConfigId, bool)> = Vec::new();
        interner.intern_configs(&config_reqs, &mut results);
        self.out.stats.note_intern_batch(config_reqs.len());
        for (k, &(id, fresh)) in results.iter().enumerate() {
            if fresh {
                self.out.stats.intern.misses += 1;
                if interner.config_count() > self.budget {
                    // The parent edge to `id` is already recorded, so the
                    // exhaustion point has a concrete witness run.
                    let trace = interner.trace_from(id);
                    return Err(ExploreError::BudgetExceeded {
                        limit: self.budget,
                        visited: interner.config_count(),
                        trace: Some(trace),
                    });
                }
                let (s, b) = parts[k];
                self.fresh.push((id, s, b));
            } else {
                self.out.stats.intern.hits += 1;
            }
        }
        Ok(())
    }

    fn fail(&mut self, err: ExploreError) {
        let mut slot = self.shared.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.shared.cancelled.store(true, Ordering::Release);
    }
}

/// The result of a parallel exploration: the kernel [`Exploration`] the
/// workers built on their shared interner, plus the engine's own counters.
///
/// Every reading of the exploration goes through `Deref` to
/// [`Exploration`], so callers of either explorer read one type. Two
/// things differ from a sequential run: configuration ids (and so
/// [`configs`](Exploration::configs) order and the order of failures and
/// deadlocks) depend on the schedule, and witness traces are valid firing
/// sequences but, unlike the sequential explorer's (whose breadth-first
/// order makes the same parent-edge walk shortest), not guaranteed
/// globally shortest. Terminal stores are sorted by store.
#[derive(Debug)]
pub struct ParallelExploration {
    exploration: Exploration,
    stats: ExploreStats,
}

impl ParallelExploration {
    /// Observability counters of this exploration: per-shard interner
    /// hits/misses, expansion occupancy, steal traffic, reduction pruning,
    /// intern batching, shard-lock contention, and footprint-memo
    /// effectiveness.
    #[must_use]
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }
}

impl Deref for ParallelExploration {
    type Target = Exploration;

    fn deref(&self) -> &Exploration {
        &self.exploration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::{counter_program, failing_program};
    use inseq_kernel::{Explorer, Multiset, Trace};
    use std::collections::BTreeSet;

    fn reachable_set(program: &Program) -> BTreeSet<Config> {
        let init = program.initial_config(vec![]).unwrap();
        Explorer::new(program)
            .explore([init])
            .unwrap()
            .configs()
            .collect()
    }

    /// Replays a trace step by step: steps chain, each `before` has the
    /// fired pending async, and firing it can produce each `after`.
    fn assert_replays(program: &Program, trace: &Trace) {
        for pair in trace.steps.windows(2) {
            assert_eq!(pair[0].after, pair[1].before, "steps must chain");
        }
        for step in &trace.steps {
            assert!(
                step.before.pending.contains(&step.fired),
                "fired {} not pending in {}",
                step.fired,
                step.before
            );
            let outcome = program
                .eval_pa(&step.before.globals, &step.fired)
                .expect("trace step must evaluate");
            let successors: Vec<Config> = match outcome {
                inseq_kernel::ActionOutcome::Transitions(ts) => ts
                    .into_iter()
                    .map(|t| {
                        let mut bag = step.before.pending.clone();
                        bag.remove_one(&step.fired);
                        Config::new(t.globals, bag.union(&t.created))
                    })
                    .collect(),
                inseq_kernel::ActionOutcome::Failure { .. } => Vec::new(),
            };
            assert!(
                successors.contains(&step.after),
                "step does not replay: {} --{}-> {}",
                step.before,
                step.fired,
                step.after
            );
        }
    }

    #[test]
    fn matches_sequential_on_counter() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        for workers in [1, 2, 4, 8] {
            let exp = ParallelExplorer::new(&p)
                .with_workers(workers)
                .explore([init.clone()])
                .unwrap();
            let parallel: BTreeSet<Config> = exp.configs().collect();
            assert_eq!(parallel, reachable_set(&p), "workers = {workers}");
            assert!(!exp.has_failure());
            assert!(!exp.has_deadlock());
        }
    }

    #[test]
    fn summary_matches_sequential() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let seq = Explorer::new(&p).summarize(init.clone()).unwrap();
        for workers in [1, 3] {
            let par = ParallelExplorer::new(&p)
                .with_workers(workers)
                .summarize(init.clone())
                .unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn edge_counts_match_sequential() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let seq = Explorer::new(&p).explore([init.clone()]).unwrap();
        let par = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert_eq!(par.edge_count(), seq.edge_count());
        assert_eq!(par.config_count(), seq.config_count());
    }

    #[test]
    fn failures_are_found() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert!(exp.has_failure());
        assert!(exp
            .failure_reports()
            .iter()
            .any(|r| r.contains("assert false")));
        assert!(!exp.summary().good);
    }

    #[test]
    fn failure_witnesses_carry_replayable_traces() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        for workers in [1, 2, 4, 8] {
            let exp = ParallelExplorer::new(&p)
                .with_workers(workers)
                .explore([init.clone()])
                .unwrap();
            let witnesses = exp.failure_witnesses();
            assert!(!witnesses.is_empty(), "workers = {workers}");
            for w in &witnesses {
                assert_replays(&p, &w.trace);
                // The trace ends at the failing configuration: the fired
                // pending async must be enabled there and actually fail.
                let at = w.trace.last().cloned().unwrap_or_else(|| init.clone());
                assert!(at.pending.contains(&w.fired));
                assert!(matches!(
                    p.eval_pa(&at.globals, &w.fired).unwrap(),
                    inseq_kernel::ActionOutcome::Failure { .. }
                ));
            }
        }
    }

    #[test]
    fn trace_to_reaches_every_visited_config() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(4)
            .explore([init.clone()])
            .unwrap();
        for config in exp.configs() {
            let trace = exp.trace_to(&config).expect("visited config has a trace");
            assert_replays(&p, &trace);
            let end = trace.last().cloned().unwrap_or_else(|| init.clone());
            assert_eq!(end, config);
        }
        assert!(exp
            .trace_to(&Config::new(GlobalStore::new(vec![]), Multiset::new()))
            .is_none());
    }

    #[test]
    fn budget_is_enforced_and_reports_exhaustion_point() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let err = ParallelExplorer::new(&p)
            .with_workers(2)
            .with_budget(1)
            .explore([init.clone()])
            .unwrap_err();
        match err {
            ExploreError::BudgetExceeded {
                limit: 1,
                visited,
                trace,
            } => {
                assert!(visited > 1);
                let trace = trace.expect("budget exhaustion carries a witness trace");
                assert!(!trace.is_empty());
                assert_replays(&p, &trace);
                assert_eq!(trace.steps[0].before, init);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn stats_account_for_all_interned_configs() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        let stats = exp.stats();
        assert_eq!(stats.shards.len(), 2);
        // Every distinct config is exactly one interner miss, credited to
        // the worker that interned it first (seeds go to shard 0).
        assert_eq!(stats.intern().misses as usize, exp.config_count());
        // Every config is expanded exactly once — no item is lost or
        // duplicated by stealing.
        assert_eq!(stats.expanded() as usize, exp.config_count());
        // Every successful steal moved at least one configuration.
        assert!(stats.stolen() >= stats.steals());
        // No reduction policy: nothing pruned, nothing collapsed, and the
        // bounded pa cache (reduction path only) stays untouched.
        assert_eq!(stats.pruned(), 0);
        assert_eq!(stats.orbit_collapses(), 0);
        assert_eq!(stats.pa_cache_peak(), 0);
        // Batch accounting: every non-terminal expansion staged at least
        // one batch, and the histogram covers exactly the batches.
        assert!(stats.intern_batches() > 0);
        let hist_total: u64 = stats.intern_batch_hist().iter().sum();
        assert_eq!(hist_total, stats.intern_batches());
        // Contention counters flow from the shared interner: every
        // distinct id allocation is a shard insert (configs + stores +
        // bags + values + pending asyncs ≥ configs).
        assert!(stats.contention.inserts_total() >= exp.config_count() as u64);
    }

    #[test]
    fn explore_with_stats_aggregates_on_budget_error() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let (result, stats) = ParallelExplorer::new(&p)
            .with_workers(4)
            .with_budget(2)
            .explore_with_stats([init]);
        let err = result.unwrap_err();
        assert!(matches!(err, ExploreError::BudgetExceeded { limit: 2, .. }));
        // The error path still joins all workers and aggregates their
        // counters: expansions happened, and the steal invariant holds even
        // for a run cut short mid-flight.
        assert_eq!(stats.shards.len(), 4);
        assert!(stats.expanded() >= 1);
        assert!(stats.stolen() >= stats.steals());
    }

    #[test]
    fn empty_initial_set_is_trivially_good() {
        let p = counter_program();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([])
            .unwrap();
        assert_eq!(exp.config_count(), 0);
        assert!(exp.summary().good);
    }

    #[test]
    fn deadlocks_match_sequential() {
        use inseq_kernel::{
            ActionOutcome, GlobalSchema, Multiset, NativeAction, Program as KProgram, Transition,
            Value,
        };
        let mut b = KProgram::builder(GlobalSchema::default());
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(
                    g.clone(),
                    Multiset::singleton(PendingAsync::new("Stuck", vec![])),
                )])
            }),
        );
        b.action(
            "Stuck",
            NativeAction::new("Stuck", 0, |_: &GlobalStore, _: &[Value]| {
                ActionOutcome::blocked()
            }),
        );
        let p = b.build().unwrap();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert!(exp.has_deadlock());
        assert_eq!(exp.deadlocked_configs().count(), 1);
        // The deadlock carries a replayable witness ending at the stuck
        // configuration.
        let witnesses = exp.deadlock_witnesses();
        assert_eq!(witnesses.len(), 1);
        assert_replays(&p, &witnesses[0]);
        assert_eq!(
            witnesses[0].last().unwrap(),
            &exp.deadlocked_configs().next().unwrap()
        );
    }
}
