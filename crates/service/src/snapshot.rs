//! Incremental policy-input snapshots.
//!
//! Every allocation recomputation needs three parallel structures: the
//! [`ComboSet`] of schedulable rows, the [`ThroughputTensor`] with one row
//! per combo, and the [`PolicyJob`] vector. Rebuilding them from scratch
//! costs O(n²) pair evaluations per recompute once pair rows are enabled
//! (`build_tensor_with_pairs[_by]` scores every job pair); with
//! reset-event recomputation that cost is paid on *every* arrival and
//! completion.
//!
//! [`SnapshotCache`] keeps all three alive across recomputes and applies
//! deltas instead: `admit` appends the arriving job's singleton row,
//! `remove` drops the completed job's rows and candidates, and a snapshot
//! scores what changed and assembles the combo set and tensor from the
//! cached rows, selecting pair rows through the score-bucketed store
//! below. Pair throughputs come from the cache's *pair source* — the
//! [`Oracle`] ([`SnapshotCache::new`]) or, for the Figure 14 experiment,
//! an [`EstimatorBridge`] the cache owns ([`SnapshotCache::estimated`]).
//! The source decides only where pair throughputs come from; everything
//! else is the same for both.
//!
//! # Invalidation protocol
//!
//! The store holds one *score* per pair of resident single-worker jobs
//! that clears `min_aggregate`, valid until the pair source's answer for
//! either member changes. One rule brings it up to date: each
//! [`SnapshotCache::snapshot`] re-scores what the events since the last
//! one dirtied.
//!
//! 1. *Dirty set.* A flag per resident job. `admit` sets it for an
//!    arriving single-worker job, whatever the source; a job that leaves
//!    before the next snapshot takes its flag along and is never scored.
//!    Oracle throughputs never change, so an oracle-backed cache's dirty
//!    set holds arrivals only. Estimates drift as the estimator refines
//!    ([`SnapshotCache::observe`]), so an estimator-backed snapshot first
//!    flags the jobs the estimator lists as refined since the last drain
//!    ([`EstimatorBridge::take_dirty`]).
//! 2. *Unlink.* Every candidate touching a dirty job leaves the store
//!    through the reverse index (O(degree)). A candidate that had a
//!    materialized row gives it back to the row slab as it is unlinked, so
//!    a row never outlives the score it was derived with — the same path
//!    frees a completed job's rows in `remove`.
//! 3. *Re-score.* Each dirty job is scored once against every resident
//!    single-worker job — O(|dirty| · n) evaluations, n²/2 when every
//!    job is dirty, so a large dirty set needs no rebuild path of its own
//!    ([`SnapshotStats::pair_evals`] tells them apart) — and the pairs
//!    that clear `min_aggregate` are inserted.
//! 4. *Reselect.* If anything was admitted, removed or re-scored since
//!    the last pass, the bucketed selection runs again; otherwise the
//!    memoized selection stands and the snapshot is a pure assembly.
//! 5. *Lazy rows.* The store keeps only scores (a row per candidate at 8k
//!    jobs would put it in the tens of GBs); rows are derived from the
//!    pair source just for the ~n selected pairs, into a free-listed slab
//!    inside the store. A candidate's slot addresses its row directly
//!    (`Slot::row`, no map), so a pair that stays selected and clean is
//!    never derived twice. Two things free a row: unlinking its slot
//!    (step 2), and a selection pass that picked the pair last time and
//!    does not pick it now — a pair that later returns to the selection
//!    is derived again ([`SnapshotStats::pair_rows_materialized`] counts
//!    derivations). A slot taken from the free list starts without a row.
//!
//! Rows are flat throughout: the singleton rows, the row slab and the
//! assembled tensor are row-major buffers with one entry per
//! [`GpuKind`], so a snapshot is one slice copy for the singletons plus
//! one per selected pair, and allocates the same few blocks whatever its
//! row count.
//!
//! The assembled snapshot is **row-for-row bitwise identical** to a fresh
//! `build_tensor_with_pairs` (oracle), `build_tensor_with_pairs_by` at
//! the bridge's current state (estimator) or `build_singleton_tensor`
//! (no pairs) over the same jobs — proptested across random
//! admit/complete/refine interleavings. Debug builds also re-derive every
//! score and row a snapshot serves and assert they equal the cached ones,
//! so drift the dirty set failed to report cannot go unnoticed.
//!
//! # The score-bucketed candidate store
//!
//! At 2048+ jobs the cache holds ~n²/2 above-threshold pair candidates,
//! and re-ranking all of them per recompute (a `u128`-keyed global sort)
//! dominates recompute latency. [`PairStore`] replaces the flat candidate
//! vector with coarse *score buckets*: every candidate lives in the
//! bucket named by the top [`BUCKET_SHIFT`]-truncated bits of its score's
//! IEEE-754 pattern (an exponent-plus-leading-mantissa bin), so bucket
//! order *is* score order and a candidate's bucket never depends on any
//! other candidate. Churn is local: a scored pair is inserted into its
//! bucket in O(1), and a completed or drifted job's candidates are
//! unlinked in O(degree), without invalidating a global order.
//!
//! **Lazy materialization rule.** Selection walks every bucket in
//! descending score order. Inside each bucket it first *filters*
//! candidates down to those whose both endpoints are still under the
//! per-job pair cap — cap counts only grow during a pass, so a candidate
//! filtered out here could never be selected later — and only those
//! survivors are sorted with the exact tie-break key. The expensive total
//! order is therefore materialized only inside the buckets the cap still
//! contests. A pass reads every live candidate once and sorts the
//! contested ones — on the `ss_churn` benchmark ~20.8 k entries read and
//! ~1.3 k (6 %) sorted per snapshot. It has no early exit: two jobs under
//! the cap with a candidate in the lowest bucket hold the walk to the end,
//! the common case (ROADMAP, "Measured and rejected").
//!
//! **Tie-break contract.** The fresh builder ranks candidates through
//! [`rank_and_cap`]: score descending, then the pair's (i, k) positions
//! *in the current job vector* — positions change as completions
//! `swap_remove` jobs — packed into one `u128` key, and the greedy
//! per-job cap applied in that order. The key depends on scores and
//! positions only — never on slot ids or insertion order — which is why
//! unlinking and re-inserting a drifted job's candidates selects exactly
//! what a fresh enumeration would. The bucketed store builds the same key
//! for the candidates it sorts, and bucket ids are a prefix of the score
//! bits, so the descending bucket walk refines into the same global
//! order. [`SnapshotCache::set_crosscheck`] or the
//! `GAVEL_SNAPSHOT_CROSSCHECK` environment variable re-ranks every live
//! candidate through [`rank_and_cap`] and asserts the two selections
//! equal.

use crate::estimate::EstimatorBridge;
use gavel_core::{Combo, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
use gavel_workloads::{
    pair_row, rank_and_cap, singleton_row, GpuKind, JobConfig, JobSpec, Oracle, PairOptions,
};
use std::collections::BTreeMap;

/// Environment variable that makes every bucketed selection re-run the
/// flat [`rank_and_cap`] differential oracle and assert the two orders
/// are identical. Unset, empty or `0` is off; anything else is on.
pub const CROSSCHECK_ENV: &str = "GAVEL_SNAPSHOT_CROSSCHECK";

/// The rule every `GAVEL_*` switch follows (see the README table).
fn flag_on(value: Option<std::ffi::OsString>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Right-shift applied to a score's IEEE-754 bits to name its bucket.
/// Keeping the top 24 bits (sign, exponent, 12 mantissa bits) yields a
/// few hundred buckets over the realistic score range — few enough to
/// walk cheaply, fine enough that contested buckets stay small.
const BUCKET_SHIFT: u32 = 40;

/// Sentinel for "no position / dead handle / no row".
const NONE32: u32 = u32::MAX;

/// Entries per throughput row.
const WIDTH: usize = GpuKind::COUNT;

/// A candidate slot in the bucketed store. Endpoints are dense job
/// *handles* (stable across `swap_remove` churn, unlike positions);
/// `la`/`lb`/`bucket_pos` are backpointers into the two per-job slot
/// lists and the bucket vector, so unlinking is O(1) per reference.
///
/// **Padding rule.** There is one slot per above-threshold pair — ~n²/2 of
/// them — so anything stored per candidate is paid millions of times over.
/// Five `u32`s and an `f64` occupy 28 of the 32 bytes alignment rounds the
/// struct to; `row` lives in the remaining four, which makes addressing a
/// materialized row free. (A variant with two `u32` side arrays per
/// candidate slot instead raised `ss_churn`'s peak RSS from 11.4 to
/// 13.0 MB.)
#[derive(Debug, Clone, Copy)]
struct Slot {
    ha: u32,
    hb: u32,
    /// Index of this slot in `job_slots[ha]` / `job_slots[hb]`.
    la: u32,
    lb: u32,
    /// Index of this slot in its bucket's vector.
    bucket_pos: u32,
    /// This pair's row in `PairStore::rows` ([`NONE32`]: not materialized).
    row: u32,
    score: f64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

/// A bucket-resident copy of a slot's selection-relevant fields. The
/// selection pass streams entire buckets; carrying the endpoints and
/// score inline keeps that scan sequential (the slot slab is only
/// touched for backpointer fixups on unlink), which is what makes the
/// filter pass memory-bandwidth-cheap at millions of candidates.
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    slot: u32,
    ha: u32,
    hb: u32,
    /// Mirrors `Slot::score`.
    score: f64,
}

/// The score-bucketed candidate store (see the module docs), and the
/// slab of rows materialized for the selected candidates.
///
/// Everything sized by the candidate count is in `slots` and `buckets`;
/// no other vector here is indexed by slot (see [`Slot`]'s padding rule).
/// The row slab and its bookkeeping are sized by the selection, ~n rows.
#[derive(Debug, Clone, Default)]
struct PairStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Bucket id (top score bits) → entries; iterated high-to-low so
    /// bucket order is descending score order.
    buckets: BTreeMap<u32, Vec<BucketEntry>>,
    /// Per-handle slot lists — the reverse index that makes completions
    /// O(degree) instead of an O(|candidates|) scan.
    job_slots: Vec<Vec<u32>>,
    live: usize,
    /// Materialized pair rows, [`WIDTH`] entries each, addressed by
    /// [`Slot::row`]. A slot's row goes back to `free_rows` when the slot
    /// is unlinked or a selection pass does not pick it again.
    rows: Vec<PairThroughput>,
    free_rows: Vec<u32>,
    /// Per slab row, the selection pass that last picked its slot.
    picked_in: Vec<u32>,
    pass: u32,
    /// Selection scratch, kept between passes for its capacity: the
    /// contested candidates of the bucket being sorted, and the pairs
    /// selected so far per handle.
    survivors: Vec<(u128, u32, u32, u32)>,
    counts: Vec<u32>,
}

impl PairStore {
    fn bucket_of(score: f64) -> u32 {
        (score.to_bits() >> BUCKET_SHIFT) as u32
    }

    /// Grows the per-handle lists to cover `n` handles.
    fn ensure_handles(&mut self, n: usize) {
        if self.job_slots.len() < n {
            self.job_slots.resize_with(n, Vec::new);
        }
    }

    fn insert(&mut self, ha: u32, hb: u32, score: f64) -> u32 {
        debug_assert_ne!(ha, hb);
        debug_assert!(
            score >= 0.0 && score.is_finite(),
            "bucketed candidate scores must be nonnegative finite, got {score}"
        );
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    ha: NONE32,
                    hb: NONE32,
                    la: 0,
                    lb: 0,
                    bucket_pos: 0,
                    row: NONE32,
                    score: 0.0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let bvec = self.buckets.entry(Self::bucket_of(score)).or_default();
        let bucket_pos = bvec.len() as u32;
        bvec.push(BucketEntry {
            slot: s,
            ha,
            hb,
            score,
        });
        let la = self.job_slots[ha as usize].len() as u32;
        self.job_slots[ha as usize].push(s);
        let lb = self.job_slots[hb as usize].len() as u32;
        self.job_slots[hb as usize].push(s);
        self.slots[s as usize] = Slot {
            ha,
            hb,
            la,
            lb,
            bucket_pos,
            row: NONE32,
            score,
        };
        self.live += 1;
        s
    }

    /// Unlinks `s` from its bucket vector, fixing the swapped slot's
    /// backpointer and dropping the bucket when it empties.
    fn unlink_bucket(&mut self, s: u32) {
        let sl = self.slots[s as usize];
        let bucket = Self::bucket_of(sl.score);
        // `insert` pushed the slot into the bucket of its score, which never
        // changes, and the bucket is dropped only once its last slot leaves.
        let bvec = self.buckets.get_mut(&bucket).expect("slot bucket missing");
        let p = sl.bucket_pos as usize;
        debug_assert_eq!(bvec[p].slot, s);
        bvec.swap_remove(p);
        if p < bvec.len() {
            let moved = bvec[p].slot;
            self.slots[moved as usize].bucket_pos = p as u32;
        }
        if bvec.is_empty() {
            self.buckets.remove(&bucket);
        }
    }

    /// Unlinks `s` from handle `h`'s slot list.
    fn unlink_job(&mut self, h: u32, list_pos: u32, s: u32) {
        let list = &mut self.job_slots[h as usize];
        let p = list_pos as usize;
        debug_assert_eq!(list[p], s);
        list.swap_remove(p);
        if p < list.len() {
            let moved = list[p];
            let msl = &mut self.slots[moved as usize];
            if msl.ha == h {
                msl.la = p as u32;
            } else {
                debug_assert_eq!(msl.hb, h);
                msl.lb = p as u32;
            }
        }
    }

    fn remove_slot(&mut self, s: u32) {
        let sl = self.slots[s as usize];
        debug_assert_ne!(sl.ha, NONE32, "double free of slot {s}");
        self.unlink_bucket(s);
        self.unlink_job(sl.ha, sl.la, s);
        self.unlink_job(sl.hb, sl.lb, s);
        self.release_row(s);
        self.slots[s as usize].ha = NONE32;
        self.free.push(s);
        self.live -= 1;
    }

    /// Drops every candidate touching handle `h` — O(degree).
    fn remove_job(&mut self, h: u32) {
        while let Some(&s) = self.job_slots[h as usize].last() {
            self.remove_slot(s);
        }
    }

    /// Slot `s`'s materialized row.
    fn row(&self, s: u32) -> &[PairThroughput] {
        let r = self.slots[s as usize].row;
        debug_assert_ne!(r, NONE32, "slot {s} has no row");
        &self.rows[r as usize * WIDTH..][..WIDTH]
    }

    /// Opens a selection pass: rows of slots the pass does not
    /// [`Self::pick`] are up for [`Self::release_unpicked`].
    fn begin_pass(&mut self) {
        self.pass = self.pass.wrapping_add(1);
    }

    /// Marks slot `s` picked by the current pass, giving it a slab row
    /// filled by `materialize` unless it still holds one from an earlier
    /// pass.
    fn pick(&mut self, s: u32, materialize: impl FnOnce() -> [PairThroughput; WIDTH]) {
        let mut r = self.slots[s as usize].row;
        if r == NONE32 {
            r = self.free_rows.pop().unwrap_or_else(|| {
                self.rows
                    .resize(self.rows.len() + WIDTH, PairThroughput::zero());
                self.picked_in.push(0);
                (self.picked_in.len() - 1) as u32
            });
            self.rows[r as usize * WIDTH..][..WIDTH].copy_from_slice(&materialize());
            self.slots[s as usize].row = r;
        }
        self.picked_in[r as usize] = self.pass;
    }

    /// Frees the row of a slot an earlier pass picked and the current one
    /// did not. `s` may since have been unlinked, or unlinked and reused:
    /// either way it lost its row then, and holds one now only if this
    /// pass picked it.
    fn release_unpicked(&mut self, s: u32) {
        let r = self.slots[s as usize].row;
        if r != NONE32 && self.picked_in[r as usize] != self.pass {
            self.release_row(s);
        }
    }

    /// Returns slot `s`'s row, if it has one, to the free list.
    fn release_row(&mut self, s: u32) {
        let r = std::mem::replace(&mut self.slots[s as usize].row, NONE32);
        if r != NONE32 {
            self.free_rows.push(r);
        }
    }

    fn live_slots(&self) -> impl Iterator<Item = (u32, &Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, sl)| sl.ha != NONE32)
            .map(|(s, sl)| (s as u32, sl))
    }

    /// The bucketed selection pass: walks every bucket in descending
    /// score order, lazily materializing the exact tie-break order only
    /// for candidates the per-job cap still contests (see the module
    /// docs). Leaves the selected slot ids in `selected`, in emission
    /// order — bit-identical to the flat [`rank_and_cap`] over the same
    /// slots.
    fn select(
        &mut self,
        handle_pos: &[u32],
        cap: usize,
        stats: &mut SnapshotStats,
        selected: &mut Vec<u32>,
    ) {
        selected.clear();
        if cap == 0 || self.live == 0 {
            return;
        }
        let cap = cap.min(u32::MAX as usize) as u32;
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.resize(self.job_slots.len(), 0);
        let mut survivors = std::mem::take(&mut self.survivors);
        for bucket in self.buckets.values().rev() {
            stats.buckets_walked += 1;
            survivors.clear();
            // This scan is the pass's volume term: one sequential read
            // per bucket entry, no slot-slab access.
            for e in bucket {
                let (ha, hb) = (e.ha as usize, e.hb as usize);
                // Cap counts only grow within a pass, so a candidate
                // with a capped endpoint here can never be selected:
                // filtering it out before the sort is exact.
                if counts[ha] < cap && counts[hb] < cap {
                    let (pa, pb) = (handle_pos[ha], handle_pos[hb]);
                    debug_assert!(pa != NONE32 && pb != NONE32, "candidate on a dead job");
                    let (i, k) = if pa < pb { (pa, pb) } else { (pb, pa) };
                    let key =
                        ((!e.score.to_bits() as u128) << 64) | ((i as u128) << 32) | (k as u128);
                    survivors.push((key, e.slot, e.ha, e.hb));
                }
            }
            stats.candidates_sorted += survivors.len();
            survivors.sort_unstable();
            for &(_, s, ha, hb) in &survivors {
                let (ha, hb) = (ha as usize, hb as usize);
                // Re-check: an earlier survivor in this bucket may have
                // capped an endpoint.
                if counts[ha] >= cap || counts[hb] >= cap {
                    continue;
                }
                counts[ha] += 1;
                counts[hb] += 1;
                selected.push(s);
            }
        }
        self.counts = counts;
        self.survivors = survivors;
    }
}

/// Counters making the incremental path observable (and gateable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots served by a cache without an estimator.
    pub incremental_snapshots: usize,
    /// Snapshots served by an estimator-backed cache.
    pub bridged_snapshots: usize,
    /// Pair-score evaluations performed at snapshot time: one per (dirty
    /// job, resident single-worker job) pair, whatever the pair source.
    pub pair_evals: usize,
    /// Singleton rows appended (admissions).
    pub rows_appended: usize,
    /// Singleton rows dropped (completions).
    pub rows_dropped: usize,
    /// Bucketed selection passes.
    pub bucketed_selections: usize,
    /// Buckets visited across all bucketed selection passes.
    pub buckets_walked: usize,
    /// Candidates whose exact tie-break order was lazily materialized
    /// (filtered into a contested bucket's sort) across all passes.
    pub candidates_sorted: usize,
    /// Crosscheck re-ranks: bucketed selections re-run through the flat
    /// [`rank_and_cap`] over the store's cached scores, whatever the pair
    /// source. Zero unless crosschecking is on; Figure 12 gates on that.
    pub flat_reranks: usize,
    /// Pair rows materialized for newly selected candidates.
    pub pair_rows_materialized: usize,
}

/// Persistent combo/tensor/job state, updated by deltas on admit and
/// complete (see the module docs).
///
/// The cache's job order mirrors the engine's active-job vector: callers
/// must `admit` on arrival and `remove(i)` with the same `swap_remove`
/// index discipline the active vector uses.
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    consolidated: bool,
    /// Pair-row options; `None` serves singleton-only snapshots.
    pairs: Option<PairOptions>,
    /// §6's estimator, when it rather than the oracle is the pair source:
    /// `admit` profiles the arriving job, `observe` refines, `remove`
    /// forgets.
    estimator: Option<EstimatorBridge>,
    specs: Vec<JobSpec>,
    /// Row-major, [`WIDTH`] entries per job, parallel to `specs`.
    singleton_rows: Vec<PairThroughput>,
    policy_jobs: Vec<PolicyJob>,
    /// Dense per-job handle, parallel to `specs`.
    handles: Vec<u32>,
    /// Position of each handle in `specs` ([`NONE32`] once freed).
    handle_pos: Vec<u32>,
    free_handles: Vec<u32>,
    /// The dirty set, parallel to `specs`: jobs whose pair scores are
    /// missing or stale until the next snapshot.
    dirty: Vec<bool>,
    store: PairStore,
    /// Memoized selection (slot ids in emission order), valid while no
    /// admit/remove/drift has happened since it was computed — so
    /// cadence-driven recomputes over an unchanged job set skip the
    /// selection pass entirely.
    selected: Vec<u32>,
    selection_dirty: bool,
    /// The selection before `selected`; its slot ids may be stale. Read
    /// once per reselection, to release the rows of pairs that dropped
    /// out.
    deselected: Vec<u32>,
    /// Assert every bucketed selection against [`rank_and_cap`].
    crosscheck: bool,
    stats: SnapshotStats,
}

impl SnapshotCache {
    /// Creates an empty oracle-backed cache. `pairs` enables
    /// space-sharing pair rows (pass the same [`PairOptions`] the fresh
    /// builder would use).
    pub fn new(consolidated: bool, pairs: Option<PairOptions>) -> Self {
        SnapshotCache {
            consolidated,
            pairs,
            estimator: None,
            specs: Vec::new(),
            singleton_rows: Vec::new(),
            policy_jobs: Vec::new(),
            handles: Vec::new(),
            handle_pos: Vec::new(),
            free_handles: Vec::new(),
            dirty: Vec::new(),
            store: PairStore::default(),
            selected: Vec::new(),
            selection_dirty: true,
            deselected: Vec::new(),
            crosscheck: flag_on(std::env::var_os(CROSSCHECK_ENV)),
            stats: SnapshotStats::default(),
        }
    }

    /// Creates an empty estimator-backed cache: pair throughputs are
    /// `bridge`'s estimates, invalidated per job as they drift (see the
    /// module docs).
    pub fn estimated(consolidated: bool, opts: PairOptions, bridge: EstimatorBridge) -> Self {
        SnapshotCache {
            estimator: Some(bridge),
            ..SnapshotCache::new(consolidated, Some(opts))
        }
    }

    /// The estimator an estimator-backed cache owns.
    pub fn estimator(&self) -> Option<&EstimatorBridge> {
        self.estimator.as_ref()
    }

    /// Number of resident jobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the cache holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The resident job specs, in active order.
    pub fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// The persistent policy-job vector, parallel to `specs`.
    pub fn policy_jobs(&self) -> &[PolicyJob] {
        &self.policy_jobs
    }

    /// Mutable access for refreshing the time-varying policy-job fields
    /// (steps remaining, elapsed time, SLO headroom) before a recompute.
    pub fn policy_jobs_mut(&mut self) -> &mut [PolicyJob] {
        &mut self.policy_jobs
    }

    /// Counters for tests and Figure 12's gates.
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }

    /// Enables (or disables) crosschecking every bucketed selection
    /// against the flat [`rank_and_cap`] differential oracle. Also
    /// enabled by setting the [`CROSSCHECK_ENV`] environment variable.
    pub fn set_crosscheck(&mut self, on: bool) {
        self.crosscheck = on;
    }

    /// Number of live pair candidates in the bucketed store.
    pub fn candidate_count(&self) -> usize {
        self.store.live
    }

    fn alloc_handle(&mut self) -> u32 {
        self.free_handles.pop().unwrap_or_else(|| {
            self.handle_pos.push(NONE32);
            self.store.ensure_handles(self.handle_pos.len());
            (self.handle_pos.len() - 1) as u32
        })
    }

    /// The specs of slot `s`'s two jobs.
    fn slot_specs(&self, s: u32) -> (JobSpec, JobSpec) {
        let sl = &self.store.slots[s as usize];
        (
            self.specs[self.handle_pos[sl.ha as usize] as usize],
            self.specs[self.handle_pos[sl.hb as usize] as usize],
        )
    }

    /// Admits a job: computes its singleton row and, with pair rows on,
    /// lists a single-worker job dirty for the next [`Self::snapshot`] to
    /// score. The estimator, if any, profiles the job.
    pub fn admit(&mut self, oracle: &Oracle, spec: JobSpec, job: PolicyJob) {
        debug_assert_eq!(spec.id, job.id, "spec/job identity mismatch");
        self.singleton_rows
            .extend_from_slice(&singleton_row(oracle, &spec, self.consolidated));
        self.stats.rows_appended += 1;
        let h = self.alloc_handle();
        let pairable = self.pairs.is_some() && spec.scale_factor == 1;
        if pairable {
            // Room for a partner per resident, so that the snapshot scoring
            // the job does not regrow its candidate list.
            self.store.job_slots[h as usize].reserve(self.specs.len());
        }
        self.handle_pos[h as usize] = self.specs.len() as u32;
        self.handles.push(h);
        self.specs.push(spec);
        self.policy_jobs.push(job);
        self.dirty.push(pairable);
        self.selection_dirty = true;
        if let Some(bridge) = &mut self.estimator {
            bridge.register(oracle, spec.id, spec.config);
        }
    }

    /// Feeds the true colocated throughputs of jobs `a` and `b`, which
    /// just ran together on `gpu`, back to the estimator; a cache with
    /// another pair source ignores it.
    pub fn observe(
        &mut self,
        oracle: &Oracle,
        a: (JobId, JobConfig),
        b: (JobId, JobConfig),
        gpu: GpuKind,
    ) {
        if let Some(bridge) = &mut self.estimator {
            bridge.observe(oracle, a, b, gpu);
        }
    }

    /// Removes the job at position `i` (swap-remove, mirroring the
    /// engine's active vector) and unlinks its pair candidates — and with
    /// them their materialized rows — through the per-job reverse index:
    /// O(degree), not O(|candidates|). The estimator forgets the job.
    pub fn remove(&mut self, i: usize) {
        let h = self.handles[i];
        let spec = self.specs.swap_remove(i);
        if let Some(bridge) = &mut self.estimator {
            bridge.forget(spec.id);
        }
        let last = self.singleton_rows.len() - WIDTH;
        self.singleton_rows.copy_within(last.., i * WIDTH);
        self.singleton_rows.truncate(last);
        self.policy_jobs.swap_remove(i);
        self.dirty.swap_remove(i);
        self.handles.swap_remove(i);
        if i < self.handles.len() {
            self.handle_pos[self.handles[i] as usize] = i as u32;
        }
        self.handle_pos[h as usize] = NONE32;
        self.store.remove_job(h);
        self.free_handles.push(h);
        self.selection_dirty = true;
        self.stats.rows_dropped += 1;
    }

    /// Drains the dirty set: unlinks each dirty job's candidates and
    /// scores it once against every other resident single-worker job —
    /// the clean ones and the dirty ones already re-scored; the dirty ones
    /// still to come score against it in their turn — inserting the pairs
    /// that clear `min_aggregate`. The one place candidates are born.
    fn rescore(
        &mut self,
        oracle: &Oracle,
        min_aggregate: f64,
        pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
    ) {
        for i in (0..self.specs.len()).filter(|&i| self.dirty[i]) {
            let (spec, h) = (self.specs[i], self.handles[i]);
            self.store.remove_job(h);
            for (j, other) in self.specs.iter().enumerate() {
                if j == i || other.scale_factor != 1 || (self.dirty[j] && j > i) {
                    continue;
                }
                let score = pair_row(oracle, other, &spec, pair_fn).0;
                self.stats.pair_evals += 1;
                if score >= min_aggregate {
                    self.store.insert(self.handles[j], h, score);
                }
            }
            self.selection_dirty = true;
        }
        self.dirty.fill(false);
    }

    /// Brings the selection up to date: if anything was admitted, removed
    /// or re-scored since the last pass, runs the selection pass — the
    /// bucketed walk, re-run through the flat [`rank_and_cap`] and
    /// asserted identical when crosschecking — then brings the row slab
    /// in line with it: a picked pair without a row gets one from
    /// `pair_fn`, a pair the previous pass picked and this one did not
    /// gives its row back.
    fn reselect(
        &mut self,
        oracle: &Oracle,
        cap: usize,
        pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
    ) {
        if !self.selection_dirty {
            return;
        }
        std::mem::swap(&mut self.selected, &mut self.deselected);
        self.stats.bucketed_selections += 1;
        self.store
            .select(&self.handle_pos, cap, &mut self.stats, &mut self.selected);
        if self.crosscheck {
            self.stats.flat_reranks += 1;
            let pos = &self.handle_pos;
            let live = (self.store.live_slots())
                .map(|(s, sl)| (pos[sl.ha as usize], pos[sl.hb as usize], sl.score, s));
            assert_eq!(
                self.selected,
                rank_and_cap(live, self.specs.len(), cap),
                "bucketed selection diverged from the flat rank_and_cap oracle"
            );
        }
        self.store.begin_pass();
        for i in 0..self.selected.len() {
            let s = self.selected[i];
            let (a, b) = self.slot_specs(s);
            let materialized = &mut self.stats.pair_rows_materialized;
            self.store.pick(s, || {
                *materialized += 1;
                pair_row(oracle, &a, &b, pair_fn).1
            });
        }
        for &s in &self.deselected {
            self.store.release_unpicked(s);
        }
        self.selection_dirty = false;
    }

    /// Assembles the snapshot from cached rows: singletons, then the
    /// selected pairs. Rows are copied, never derived, here: one slice
    /// for the singletons and one per selected pair into a single buffer.
    fn assemble(&self) -> (ComboSet, ThroughputTensor) {
        let rows = self.specs.len() + self.selected.len();
        let mut combos = Vec::with_capacity(rows);
        combos.extend(self.specs.iter().map(|s| Combo::single(s.id)));
        let mut entries = Vec::with_capacity(rows * WIDTH);
        entries.extend_from_slice(&self.singleton_rows);
        for &s in &self.selected {
            let (a, b) = self.slot_specs(s);
            combos.push(Combo::pair(a.id, b.id));
            entries.extend_from_slice(self.store.row(s));
        }
        (
            ComboSet::new(combos),
            ThroughputTensor::from_flat(WIDTH, entries),
        )
    }

    /// Assembles the current snapshot: drains the dirty set — with an
    /// estimator, after adding the jobs it refined since the last call —
    /// and reselects if anything changed (see the module docs for the
    /// invalidation protocol).
    ///
    /// Row-for-row identical to `build_tensor_with_pairs(oracle, specs,
    /// consolidated, opts)`, to `build_tensor_with_pairs_by(.., |a, b, g|
    /// bridge.pair_throughput(..))` at the estimator's current state, or
    /// to `build_singleton_tensor` without pairs, over the current job
    /// vector; the pair source is consulted only to score dirty jobs and
    /// to materialize rows for newly selected pairs.
    pub fn snapshot(&mut self, oracle: &Oracle) -> (ComboSet, ThroughputTensor) {
        // The estimator is lent out of `self` for the call: scoring and
        // row derivation read it while they update the rest of the cache.
        let mut estimator = self.estimator.take();
        match &mut estimator {
            Some(bridge) => {
                self.stats.bridged_snapshots += 1;
                // Only resident single-worker jobs form pairs; ids that
                // are not (or that left before this sync) drop out here.
                let drifted = bridge.take_dirty();
                for (dirty, s) in self.dirty.iter_mut().zip(&self.specs) {
                    *dirty |= s.scale_factor == 1 && drifted.binary_search(&s.id).is_ok();
                }
            }
            None => self.stats.incremental_snapshots += 1,
        }
        if let Some(opts) = self.pairs {
            let pair_fn = |x: &JobSpec, y: &JobSpec, g| match &estimator {
                Some(bridge) => {
                    bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
                }
                None => oracle.colocated(x.config, y.config, g),
            };
            self.rescore(oracle, opts.min_aggregate, &pair_fn);
            self.reselect(oracle, opts.max_pairs_per_job, &pair_fn);
            // A score or row the dirty set failed to invalidate must not
            // be served silently.
            debug_assert!(
                self.selected.iter().all(|&s| {
                    let (a, b) = self.slot_specs(s);
                    let (score, row) = pair_row(oracle, &a, &b, &pair_fn);
                    (self.store.slots[s as usize].score, self.store.row(s)) == (score, &row[..])
                }),
                "a stale pair survived invalidation"
            );
        }
        self.estimator = estimator;
        self.assemble()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_workloads::{
        build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, JobConfig,
        ModelFamily,
    };

    fn spec(id: u64, family: ModelFamily, batch: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            config: JobConfig::new(family, batch),
            scale_factor: 1,
        }
    }

    /// A Table 2 configuration picked by index (all of them are valid).
    fn spec_nth(id: u64, nth: usize) -> JobSpec {
        let all = JobConfig::all();
        JobSpec {
            id: JobId(id),
            config: all[nth % all.len()],
            scale_factor: 1,
        }
    }

    type Snapshot = (ComboSet, ThroughputTensor);

    fn assert_same((combos, tensor): &Snapshot, (fresh_combos, fresh_tensor): &Snapshot) {
        assert_eq!(combos.combos(), fresh_combos.combos(), "combo rows differ");
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "tensor row {k} differs");
        }
    }

    fn assert_matches_fresh(cache: &mut SnapshotCache, oracle: &Oracle, opts: Option<PairOptions>) {
        let specs = cache.specs().to_vec();
        let fresh = match opts {
            Some(o) => build_tensor_with_pairs(oracle, &specs, true, &o),
            None => build_singleton_tensor(oracle, &specs, true),
        };
        assert_same(&cache.snapshot(oracle), &fresh);
    }

    fn assert_bridged_matches_fresh(cache: &mut SnapshotCache, oracle: &Oracle, opts: PairOptions) {
        let specs = cache.specs().to_vec();
        let snapshot = cache.snapshot(oracle);
        let bridge = cache.estimator().expect("an estimator-backed cache");
        let fresh = build_tensor_with_pairs_by(oracle, &specs, true, &opts, |x, y, g| {
            bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
        });
        assert_same(&snapshot, &fresh);
    }

    fn estimated_cache(oracle: &Oracle, opts: PairOptions, seed: u64) -> SnapshotCache {
        SnapshotCache::estimated(true, opts, EstimatorBridge::new(oracle, seed))
    }

    /// Jobs `a` and `b` of `cache` just ran together on a V100.
    fn observe(cache: &mut SnapshotCache, oracle: &Oracle, a: usize, b: usize) -> [JobId; 2] {
        let (a, b) = (cache.specs()[a], cache.specs()[b]);
        cache.observe(oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        [a.id, b.id]
    }

    #[test]
    fn incremental_matches_fresh_through_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for i in 0..8u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_matches_fresh(&mut cache, &oracle, Some(opts));
        }
        // Complete from the middle and the ends (swap_remove churn).
        for &i in &[3usize, 0, 4] {
            cache.remove(i);
            assert_matches_fresh(&mut cache, &oracle, Some(opts));
        }
        // Re-admit after churn.
        let s = spec(20, ModelFamily::A3C, 4);
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 50.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let stats = cache.stats();
        assert!(stats.incremental_snapshots > 0);
        assert!(stats.bucketed_selections > 0);
    }

    #[test]
    fn completions_unlink_through_reverse_index() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..6u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        // Arrivals are scored at the next snapshot.
        assert_eq!(cache.candidate_count(), 0);
        cache.snapshot(&oracle);
        // Six mutually pairable jobs: 15 candidates, each job degree 5.
        let degree = |cache: &SnapshotCache, i: usize| {
            cache.store.job_slots[cache.handles[i] as usize].len()
        };
        assert_eq!(cache.candidate_count(), 15);
        assert_eq!(degree(&cache, 0), 5);
        cache.remove(0);
        // The removed job's 5 candidates are gone; survivors lost one.
        assert_eq!(cache.candidate_count(), 10);
        for i in 0..cache.len() {
            assert_eq!(degree(&cache, i), 4);
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
    }

    /// Both sources score an arrival at the next snapshot, against the
    /// jobs resident then: a job that left in between is never scored
    /// against it.
    #[test]
    fn an_arrival_is_not_scored_against_a_job_gone_by_the_snapshot() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for i in 0..5u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, 5 * 4 / 2);

        // Admit A, remove resident R, snapshot: A meets the four jobs
        // left besides itself, and (A, R) is never scored.
        let a = spec_nth(5, 16);
        cache.admit(&oracle, a, PolicyJob::simple(a.id, 100.0));
        cache.remove(1);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, 10 + 4);
    }

    #[test]
    fn distributed_jobs_get_no_pair_candidates() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let mut cache = SnapshotCache::new(true, Some(opts));
        let mut big = spec(0, ModelFamily::ResNet18, 16);
        big.scale_factor = 4;
        cache.admit(&oracle, big, PolicyJob::simple(big.id, 100.0));
        let small = spec(1, ModelFamily::A3C, 4);
        cache.admit(&oracle, small, PolicyJob::simple(small.id, 100.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let (combos, _) = cache.snapshot(&oracle);
        assert!(combos.combos().iter().all(|c| !c.is_pair()));
    }

    #[test]
    fn singleton_only_mode_matches_fresh() {
        let oracle = Oracle::new();
        let mut cache = SnapshotCache::new(true, None);
        for i in 0..5u64 {
            let s = spec(i, ModelFamily::ResNet50, 32);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(1);
        assert_matches_fresh(&mut cache, &oracle, None);
    }

    /// The walk used to stop once fewer than two jobs were both under the
    /// cap and had candidates left. On this instance it would have: with
    /// a cap of one, all but one of seven jobs are paired off well above
    /// the lowest-scoring bucket. Walking every bucket selects exactly
    /// what `rank_and_cap` selects (crosschecked) and the fresh builder
    /// keeps.
    #[test]
    fn walking_past_the_last_selectable_bucket_selects_nothing_more() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 1,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for i in 0..7u64 {
            let s = spec_nth(i, i as usize * 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().flat_reranks, 1);

        let store = &cache.store;
        assert_eq!(cache.selected.len(), 3, "one job is left without a partner");
        let lowest_selected = (cache.selected.iter())
            .map(|&s| PairStore::bucket_of(store.slots[s as usize].score))
            .min();
        let below = store.buckets.range(..lowest_selected.unwrap()).count();
        assert!(below >= 3, "{below} buckets below the last selection");
        assert_eq!(cache.stats().buckets_walked, store.buckets.len());
    }

    #[test]
    fn per_job_cap_respected_after_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 2,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for i in 0..10u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(2);
        cache.remove(5);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let (combos, _) = cache.snapshot(&oracle);
        for s in cache.specs() {
            let n = combos
                .combos()
                .iter()
                .filter(|c| c.is_pair() && c.contains(s.id))
                .count();
            assert!(n <= 2, "{} appears in {n} pairs", s.id);
        }
    }

    /// The row slab's bookkeeping: a slot holds a row only while it is
    /// linked and was picked by the last selection pass, no two slots
    /// share a row, and every slab row is either held or on the free
    /// list. Holds between a churn step and the next snapshot too, when
    /// `selected` still names slots that have since been unlinked.
    fn assert_slab_consistent(cache: &SnapshotCache) -> usize {
        let store = &cache.store;
        let slab_rows = store.rows.len() / WIDTH;
        assert_eq!(store.picked_in.len(), slab_rows);
        let mut accounted = vec![false; slab_rows];
        let mut held = 0;
        for (s, sl) in store.slots.iter().enumerate() {
            if sl.row == NONE32 {
                continue;
            }
            assert_ne!(sl.ha, NONE32, "unlinked slot {s} kept its row");
            assert!(
                cache.selected.contains(&(s as u32)),
                "slot {s} holds a row no selection gave it"
            );
            assert!(!accounted[sl.row as usize], "row {} held twice", sl.row);
            accounted[sl.row as usize] = true;
            held += 1;
        }
        for &r in &store.free_rows {
            assert!(
                !accounted[r as usize],
                "row {r} is free and held, or free twice"
            );
            accounted[r as usize] = true;
        }
        assert_eq!(held + store.free_rows.len(), slab_rows);
        assert!(held <= cache.selected.len());
        held
    }

    #[test]
    fn a_reused_slot_starts_without_a_row() {
        let mut store = PairStore::default();
        store.ensure_handles(3);
        let row = [PairThroughput::pair(1.0, 2.0); WIDTH];
        let s = store.insert(0, 1, 1.5);
        store.begin_pass();
        store.pick(s, || row);
        assert_eq!(store.row(s), row);
        store.remove_slot(s);
        assert_eq!(store.free_rows, [0]);

        let t = store.insert(1, 2, 1.25);
        assert_eq!(t, s, "the free list hands the slot back");
        assert_eq!(store.slots[t as usize].row, NONE32);
        // A pass that does not pick it leaves it without one; a pass that
        // does reuses the released slab row.
        store.begin_pass();
        store.release_unpicked(t);
        assert_eq!(store.slots[t as usize].row, NONE32);
        store.pick(t, || [PairThroughput::zero(); WIDTH]);
        assert!(store.free_rows.is_empty());
        assert_eq!(store.rows.len(), WIDTH);
    }

    #[test]
    fn row_slab_never_outgrows_the_selection_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let oracle = Oracle::new();
        // A tight cap: pairs drop out of the selection and come back.
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 3,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        let mut rng = StdRng::seed_from_u64(20);
        let mut most_rows = 0;
        for step in 0..2_000u64 {
            let n = cache.len();
            if n < 2 || (n < 64 && rng.gen_bool(0.55)) {
                let s = spec_nth(step, rng.gen_range(0..26));
                cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            } else {
                cache.remove(rng.gen_range(0..n));
            }
            assert_slab_consistent(&cache);
            // Some recomputes see several arrivals and departures.
            if rng.gen_bool(0.7) {
                let (combos, _) = cache.snapshot(&oracle);
                let held = assert_slab_consistent(&cache);
                assert_eq!(held, combos.len() - cache.len(), "step {step}");
                assert_eq!(held, cache.selected.len());
                most_rows = most_rows.max(cache.store.rows.len() / WIDTH);
                if step % 16 == 0 {
                    assert_matches_fresh(&mut cache, &oracle, Some(opts));
                }
            }
        }
        // A pass picks before it releases, so the slab's high-water mark
        // is at most two selections (64 jobs × 3 pairs / 2 each) — not the
        // number of rows ever materialized.
        assert!(most_rows <= 2 * 96, "{most_rows} slab rows");
        assert!(cache.stats().pair_rows_materialized > 10 * most_rows);
    }

    /// A refined job's candidates are unlinked before the snapshot that
    /// follows, and their rows go with them: what that snapshot serves
    /// for the job is derived from the refined estimates, and only that
    /// (plus newly selected pairs) is derived.
    #[test]
    fn refined_jobs_lose_their_rows_before_the_next_snapshot() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 4,
        };
        let mut cache = estimated_cache(&oracle, opts, 9);
        for i in 0..10u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        let (before, _) = cache.snapshot(&oracle);
        assert_slab_consistent(&cache);

        let refined = observe(&mut cache, &oracle, 2, 7);

        let materialized = cache.stats().pair_rows_materialized;
        let (after, _) = cache.snapshot(&oracle);
        assert_slab_consistent(&cache);
        let rederived = (after.combos().iter())
            .filter(|c| c.is_pair())
            .filter(|c| refined.iter().any(|&j| c.contains(j)) || !before.combos().contains(c))
            .count();
        assert!(rederived > 0, "the refined jobs are in no selected pair");
        assert_eq!(
            cache.stats().pair_rows_materialized - materialized,
            rederived
        );
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
    }

    #[test]
    fn crosscheck_flag_is_off_when_unset_empty_or_zero() {
        assert!(!flag_on(None));
        for (value, on) in [("", false), ("0", false), ("1", true), ("off", true)] {
            assert_eq!(flag_on(Some(value.into())), on, "{value:?}");
        }
    }

    #[test]
    fn bridged_matches_fresh_through_drift_and_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 4,
        };
        let mut cache = estimated_cache(&oracle, opts, 9);
        cache.set_crosscheck(true);
        for i in 0..8u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        }
        // Refine two jobs (dirtying exactly them) and churn the vector.
        observe(&mut cache, &oracle, 1, 4);
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        for &i in &[3usize, 0] {
            cache.remove(i);
            assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        }
        // A clean recompute (no drift, no churn) is a pure assembly — no
        // evaluation, selection or row derivation — and must also match.
        let before = cache.stats();
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        assert_eq!(
            cache.stats(),
            SnapshotStats {
                bridged_snapshots: before.bridged_snapshots + 1,
                ..before
            }
        );
    }

    #[test]
    fn bridged_pair_evals_track_the_dirty_set() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = estimated_cache(&oracle, opts, 11);
        cache.set_crosscheck(true);
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        // Initial population: every resident job is fresh, so every pair
        // is scored exactly once.
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        assert_eq!(cache.stats().pair_evals, 6 * 5 / 2);

        // Dirty most of the residents at once: each pair with a dirty
        // member is scored exactly once more, and the result still
        // matches the fresh build bit-for-bit.
        let mut refined = Vec::new();
        for i in 0..4usize {
            refined.extend(observe(&mut cache, &oracle, i, i + 1));
        }
        refined.sort_unstable();
        refined.dedup();
        let d = refined.len();
        assert!(d > 3, "the burst must dirty more than half the residents");
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        assert_eq!(cache.stats().pair_evals, 15 + d * (d - 1) / 2 + d * (6 - d));

        // One refined pair afterwards re-scores its two jobs against the
        // other four, plus the pair itself.
        let before = cache.stats().pair_evals;
        observe(&mut cache, &oracle, 0, 1);
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        assert_eq!(cache.stats().pair_evals, before + 2 * 4 + 1);
    }

    /// The dirty list is the only thing that invalidates estimated scores
    /// and rows, so debug builds re-derive what a snapshot serves: drift
    /// the estimator does not list (here, its estimates swapped for a
    /// differently seeded bridge's behind the cache's back) must not pass
    /// silently.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "survived invalidation")]
    fn unreported_drift_trips_the_staleness_check() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut other = EstimatorBridge::new(&oracle, 4);
        let mut cache = estimated_cache(&oracle, opts, 3);
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            other.register(&oracle, s.id, s.config);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.snapshot(&oracle);
        other.take_dirty();
        cache.estimator = Some(other);
        cache.snapshot(&oracle);
    }
}
