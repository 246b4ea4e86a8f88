//! The allocation count of a recompute does not grow with its rows.
//!
//! A counting global allocator wraps [`System`] and counts per thread, so
//! only what the test's own thread allocates is charged: the test
//! harness's main thread can still be allocating while a cycle is
//! counted. A space-sharing [`SnapshotCache`] is populated with 100 and
//! with 400 single-worker jobs, warmed through churn until its slabs and
//! scratch reach their high-water marks, and then the heap allocations of
//! admit-one / remove-one / `snapshot` cycles are counted: the snapshot
//! and the `Allocation::zeros` a policy builds on its combo set must each
//! cost the same small constant at both sizes. The round planner's budget
//! is `gavel-sched`'s own `alloc_budget` test: a steady round allocates
//! one block, its plan, and re-resolving an allocation after a recompute
//! sizes the planner's scratch, which is not counted there or here.
//!
//! Run in release too — the profile the benchmark measures:
//! `cargo test --release -p gavel-service --test alloc_budget`.

use gavel_core::{Allocation, JobId, PolicyJob};
use gavel_service::SnapshotCache;
use gavel_workloads::{JobConfig, JobSpec, Oracle, PairOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn spec(id: u64) -> JobSpec {
    let all = JobConfig::all();
    JobSpec {
        id: JobId(id),
        config: all[(id as usize * 7 + 3) % all.len()],
        scale_factor: 1,
    }
}

/// Cycles measured after the warm-up.
const CYCLES: usize = 64;

/// Most allocations any one measured cycle spent on (admit + remove,
/// `snapshot`, `Allocation::zeros`) at `n` resident jobs.
fn worst_cycle(n: usize) -> (usize, usize, usize) {
    let oracle = Oracle::new();
    let mut cache = SnapshotCache::new(true, Some(PairOptions::default()));
    // The budget is the production path's: the flat differential oracle
    // `GAVEL_SNAPSHOT_CROSSCHECK` switches on allocates per candidate.
    cache.set_crosscheck(false);
    let mut next_id = 0u64;
    let mut admit_one = |cache: &mut SnapshotCache| {
        let s = spec(next_id);
        next_id += 1;
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 1_000.0));
    };
    for _ in 0..n {
        admit_one(&mut cache);
    }
    let mut victim = 0usize;
    let mut worst = (0, 0, 0);
    // Warm-up: amortised growth (job and candidate vectors, buckets, the
    // pair-row slab, the selection scratch) happens here, not below.
    for cycle in 0..n + CYCLES {
        victim = (victim + 17) % cache.len();
        let churn = count(|| {
            cache.remove(victim);
            admit_one(&mut cache);
        });
        let mut snapshot = None;
        let assemble = count(|| snapshot = Some(cache.snapshot(&oracle)));
        let (combos, tensor) = snapshot.expect("just taken");
        assert_eq!(tensor.num_rows(), combos.len());
        assert!(combos.len() > n, "no pair rows at {n} jobs");
        let zeros = count(|| Allocation::zeros(combos, tensor.num_types()));
        if cycle >= n {
            worst = (
                worst.0.max(churn),
                worst.1.max(assemble),
                worst.2.max(zeros),
            );
        }
    }
    worst
}

#[test]
fn a_recompute_allocates_a_constant_number_of_blocks() {
    let small = worst_cycle(100);
    let large = worst_cycle(400);
    println!("allocations per cycle (admit + remove, snapshot, zeros): {small:?} at 100 jobs, {large:?} at 400");
    // The snapshot: the combo vector, its sorted copy for the duplicate
    // check and the tensor's one buffer. None of them is per row; the
    // selection pass's scratch (one per-job array, the sort buffer) and
    // the buckets the arrival's scored pairs go into stay on the store
    // and reached their size during the warm-up.
    assert_eq!(small.1, 3, "snapshot at 100 jobs");
    assert_eq!(large.1, 3, "snapshot at 400 jobs");
    // One value slab.
    assert_eq!((small.2, large.2), (1, 1), "Allocation::zeros");
    // Admit and remove touch amortised vectors only: the job vectors,
    // and the arrival's candidate list, sized at admission for the
    // snapshot that scores it.
    assert!(small.0 <= 8 && large.0 <= 8, "admit + remove");
}
