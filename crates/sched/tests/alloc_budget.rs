//! The allocation count of a steady round does not grow with its jobs.
//!
//! A counting global allocator wraps [`System`] and counts per thread, so
//! only what the planning thread allocates is charged to the round. An
//! allocation over 100 and over 400 jobs of mixed worker counts, singletons
//! and pairs, is resolved and warmed for a few rounds; then each steady
//! round — [`RoundScheduler::plan_round_cached`] and
//! [`RoundScheduler::record`] — must cost exactly one heap block at both
//! sizes: the vector of the plan it returns. Worker slots live in the
//! placement's slot list, which the next round reuses, and the kept
//! priority order is merged in scratch the scheduler keeps.
//!
//! Run in release too — the profile the benchmark measures:
//! `cargo test --release -p gavel-sched --test alloc_budget`.

use gavel_core::{Allocation, ClusterSpec, Combo, ComboSet, JobId};
use gavel_sched::RoundScheduler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    /// Calls on this thread that obtained or grew a heap block (`alloc`,
    /// `alloc_zeroed`, `realloc`). Const-initialized and without a
    /// destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one block for the calling thread (none once its thread-locals
/// are gone, during thread exit).
fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread (its result is dropped outside
/// the count).
fn count<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

/// Rounds planned before counting, and rounds counted.
const WARM_UP: usize = 8;
const ROUNDS: usize = 32;

/// Blocks per counted round and assignments per counted round at `n`
/// jobs, on a three-type cluster of 4-slot servers with a worker for
/// every two jobs of each type.
fn steady_rounds(n: usize) -> (Vec<usize>, usize) {
    let workers = n / 2;
    let cluster = ClusterSpec::new(&[
        ("v100", workers, 4, 0.0),
        ("p100", workers, 4, 0.0),
        ("k80", workers, 4, 0.0),
    ]);
    let jobs: Vec<JobId> = (0..n as u64).map(JobId).collect();
    let sf: HashMap<JobId, u32> = (jobs.iter())
        .map(|&j| (j, [1, 1, 1, 2, 4][j.0 as usize % 5]))
        .collect();
    let mut combos: Vec<Combo> = jobs.iter().map(|&j| Combo::single(j)).collect();
    // Pairs among the single-worker jobs.
    combos.extend((0..n / 5).map(|k| Combo::pair(jobs[5 * k], jobs[5 * k + 1])));
    let values = (0..combos.len())
        .map(|row| {
            (0..3)
                .map(|j| match (row * 7 + j * 3) % 5 {
                    0 => 0.0,
                    k => k as f64 * 0.11,
                })
                .collect()
        })
        .collect();
    let alloc = Allocation::new(ComboSet::new(combos), values);
    let mut sched = RoundScheduler::new(cluster);
    for _ in 0..WARM_UP {
        let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
        sched.record(&plan, 360.0);
    }
    let mut assignments = 0;
    let blocks = (0..ROUNDS)
        .map(|_| {
            count(|| {
                let plan = sched.plan_round_cached(&alloc, 1, &sf, None);
                sched.record(&plan, 360.0);
                assignments += plan.assignments.len();
                plan
            })
        })
        .collect();
    (blocks, assignments / ROUNDS)
}

#[test]
fn a_steady_round_allocates_one_block() {
    let (small, small_assigned) = steady_rounds(100);
    let (large, large_assigned) = steady_rounds(400);
    println!(
        "blocks per steady round: {small:?} at 100 jobs ({small_assigned} assignments), \
         {large:?} at 400 ({large_assigned})"
    );
    assert!(
        small_assigned > 10 && large_assigned > 3 * small_assigned,
        "rounds must place many combos"
    );
    assert_eq!(small, vec![1; ROUNDS], "100 jobs");
    assert_eq!(large, vec![1; ROUNDS], "400 jobs");
}
