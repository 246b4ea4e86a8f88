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
//! cost the same small constant at both sizes, and the churn, whose
//! arrivals are of resident configurations, nothing. The round planner's budget
//! is `gavel-sched`'s own `alloc_budget` test: a steady round allocates
//! one block, its plan, and re-resolving an allocation after a recompute
//! sizes the planner's scratch, which is not counted there or here.
//!
//! A checkpoint's allocations do not grow with the history it covers
//! either: `DurableService::checkpoint_now` on in-memory storage costs
//! the same blocks after 200 commands as after 2,000.
//!
//! Run in release too — the profile the benchmark measures:
//! `cargo test --release -p gavel-service --test alloc_budget`.

use gavel_core::{Allocation, ClusterSpec, JobId, PolicyJob};
use gavel_policies::MaxMinFairness;
use gavel_service::{
    Command, DurableService, MemoryCheckpointStore, MemorySink, ServiceConfig, SimConfig,
    SnapshotCache,
};
use gavel_workloads::{JobConfig, JobSpec, ModelFamily, Oracle, PairOptions, TraceJob};
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
    // The budget is the production path's: the flat differential oracle,
    // which debug builds turn on, allocates per candidate.
    cache.set_crosscheck(false);
    let mut next_id = 0u64;
    let mut arrival = || {
        let s = spec(next_id);
        next_id += 1;
        (s, PolicyJob::simple(s.id, 1_000.0))
    };
    for _ in 0..n {
        let (s, job) = arrival();
        cache.admit(&oracle, s, job);
    }
    let mut victim = 0usize;
    let mut worst = (0, 0, 0);
    // Warm-up: amortised growth (job and candidate vectors, buckets, the
    // pair-row slab, the selection scratch) happens here, not below.
    for cycle in 0..n + CYCLES {
        victim = (victim + 17) % cache.len();
        let (s, job) = arrival();
        let churn = count(|| {
            cache.remove(victim);
            cache.admit(&oracle, s, job);
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
    // The snapshot: the combo vector; what `ComboSet::new` builds for
    // its job index (`C_m`) — the sorted member keys and the duplicate
    // check's per-job stamps, both dropped, then the distinct jobs, each
    // job's row range, the rows, each row's member slots and the shared
    // box that holds them; and the tensor's one buffer. None of them is
    // per row; the selection pass's scratch (the per-class member lists,
    // their links and cap counts, the sort buffer) stays on the store and
    // reached its size during the warm-up.
    assert_eq!(small.1, 9, "snapshot at 100 jobs");
    assert_eq!(large.1, 9, "snapshot at 400 jobs");
    // One value slab.
    assert_eq!((small.2, large.2), (1, 1), "Allocation::zeros");
    // Admit and remove touch amortised vectors only. The arrival's
    // configuration is resident (26 configurations over 100 or 400 jobs),
    // so it joins its class; a completion that empties a class returns
    // its candidates to free lists sized during the warm-up.
    assert_eq!((small.0, large.0), (0, 0), "admit + remove");
}

/// Allocations of one `checkpoint_now` after `history` commands (submits,
/// queries, clock advances and refused cancels) on in-memory storage.
fn checkpoint_after(history: usize) -> usize {
    let policy = MaxMinFairness::new();
    let cluster = ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ]);
    let mut durable = DurableService::new(
        &policy,
        SimConfig::new(cluster),
        ServiceConfig::default(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        0,
    )
    .expect("in-memory storage");
    for i in 0..history as u64 {
        let cmd = match i % 4 {
            0 if i < 40 => Command::Submit {
                job: TraceJob {
                    id: JobId(i),
                    config: JobConfig::new(ModelFamily::ResNet50, 64),
                    arrival_time: 0.0,
                    scale_factor: 1,
                    total_steps: 1e12,
                    duration_seconds: 3600.0,
                    weight: 1.0,
                    slo_factor: None,
                    entity: Some(i as usize % 3),
                },
            },
            1 => Command::AdvanceTo {
                seconds: 360.0 * i as f64,
            },
            2 => Command::Cancel {
                job: JobId(1 << 40),
            },
            _ => Command::QueryAllocation,
        };
        let _verdict = durable.apply(&cmd).expect("in-memory storage");
    }
    // The first checkpoint sizes what the next ones reuse.
    durable.checkpoint_now().expect("in-memory storage");
    count(|| durable.checkpoint_now().expect("in-memory storage"))
}

#[test]
fn a_checkpoint_allocates_the_same_blocks_whatever_its_history() {
    let short = checkpoint_after(200);
    let long = checkpoint_after(2_000);
    println!("allocations per checkpoint: {short} after 200 commands, {long} after 2,000");
    // The store's copy of the image and the compacted WAL's stream
    // header; the image itself is sealed in place.
    assert_eq!((short, long), (2, 2), "checkpoint_now");
}
