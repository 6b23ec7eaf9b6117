//! Allocation gate for action evaluation.
//!
//! Explores Paxos `P2` at `R = 2, N = 2`, then evaluates every explored
//! (store, pending async) pair once under a counting global allocator, and
//! bounds the heap allocations per evaluation. Evaluation is the inner loop
//! of every certification step, so a change that makes values or VM
//! branches copy again shows up here as a count, not as timing noise. The
//! count is a deterministic function of the code (one test in this binary,
//! so nothing else allocates while it counts); CI runs the test ten times
//! and fails when the printed counts differ between runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use inseq_kernel::{Explorer, GlobalStore, PendingAsync};
use inseq_protocols::paxos::{self, Instance};

/// Forwards to the system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The gate: allocations per evaluation over all pairs.
const MAX_ALLOCS_PER_EVAL: f64 = 30.0;

#[test]
fn paxos_p2_evaluation_stays_under_the_allocation_budget() {
    let artifacts = paxos::build();
    let instance = Instance::new(2, 2);
    let init = paxos::init_config(&artifacts.p2, &artifacts, instance);
    let exploration = Explorer::new(&artifacts.p2)
        .explore([init])
        .expect("P2 explores");
    assert_eq!(exploration.config_count(), 1_445);

    let pairs: BTreeSet<(GlobalStore, PendingAsync)> = exploration
        .configs()
        .flat_map(|c| {
            let globals = c.globals;
            c.pending
                .distinct()
                .map(|pa| (globals.clone(), pa.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(pairs.len(), 3_269);

    // Per action: (evaluations, allocations).
    let mut per_action: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (globals, pa) in &pairs {
        let before = ALLOCS.load(Ordering::Relaxed);
        let outcome = artifacts
            .p2
            .eval_pa(globals, pa)
            .expect("pending async is well-formed");
        drop(outcome);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let entry = per_action.entry(pa.action.as_str()).or_default();
        entry.0 += 1;
        entry.1 += allocs;
    }

    let (evals, allocs) = per_action
        .values()
        .fold((0, 0), |(e, a), &(de, da)| (e + de, a + da));
    for (action, (e, a)) in &per_action {
        println!(
            "{action}: {e} evaluations, {a} allocations ({:.1} each)",
            *a as f64 / *e as f64
        );
    }
    let per_eval = allocs as f64 / evals as f64;
    println!("all: {evals} evaluations, {allocs} allocations ({per_eval:.1} each)");
    assert!(
        per_eval <= MAX_ALLOCS_PER_EVAL,
        "{per_eval:.1} allocations per evaluation exceeds {MAX_ALLOCS_PER_EVAL}"
    );
}
