//! Incremental policy-input snapshots.
//!
//! Every allocation recomputation needs three parallel structures: the
//! [`ComboSet`] of schedulable rows, the [`ThroughputTensor`] with one row
//! per combo, and the [`PolicyJob`] vector. Rebuilding them from scratch
//! costs O(n²) oracle lookups per recompute once pair rows are enabled
//! (`build_tensor_with_pairs` scores every job pair); with reset-event
//! recomputation that cost is paid on *every* arrival and completion.
//!
//! [`SnapshotCache`] keeps all three alive across recomputes and applies
//! deltas instead:
//!
//! - **admit** computes the arriving job's singleton row once, plus one
//!   pair-candidate *score* against each resident single-worker job —
//!   O(n) oracle work instead of O(n²);
//! - **remove** drops the completed job's rows and candidates in
//!   O(degree) through a per-job reverse index;
//! - **snapshot** assembles the combo set and tensor from the cached
//!   rows, selecting pair rows through the score-bucketed store below.
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
//! other candidate. Churn is local: admissions insert into buckets in
//! O(1) per candidate, completions unlink a job's candidates in
//! O(degree), and a bridged re-derivation migrates one slot between
//! buckets in O(log #buckets) instead of invalidating a global order.
//!
//! **Lazy materialization rule.** Selection walks buckets in descending
//! score order. Inside each bucket it first *filters* candidates down to
//! those whose both endpoints are still under the per-job pair cap —
//! cap counts only grow during a pass, so a candidate filtered out here
//! could never be selected later — and only those survivors are sorted
//! with the exact tie-break key. The expensive total order is therefore
//! materialized only inside the buckets the cap still contests, and the
//! walk stops entirely once fewer than two jobs remain both uncapped and
//! unexhausted. Cost per pass is O(live candidates) array reads plus
//! O(contested · log contested) sorting, instead of O(n² log n²); under
//! churn the dirty work is O(|dirty| · n) score evaluations plus that
//! contested tail.
//!
//! **Tie-break contract.** The fresh builder
//! (`build_tensor_with_pairs[_by]`) stable-sorts candidates by score
//! descending, so equal-scoring pairs keep their (i, k) enumeration
//! order *in the current job vector* — positions change as completions
//! `swap_remove` jobs. The cache reproduces that exact total order as a
//! single `u128` key per candidate:
//!
//! ```text
//! key = (!score.to_bits()) << 64 | position_i << 32 | position_k,   i < k
//! ```
//!
//! sorted ascending. Scores are nonnegative and finite (debug-asserted),
//! so complemented IEEE bits order exactly inverse to the values; the
//! (i, k) suffix reproduces the stable sort's enumeration order for
//! ties. The greedy per-job cap is then applied in that order. This
//! contract is preserved bit-exactly by the bucketed store (bucket ids
//! are a prefix of the score bits, so the descending bucket walk refines
//! into the same global order), is crosschecked against the flat
//! [`rank_and_cap`] differential oracle when
//! [`SnapshotCache::set_crosscheck`] or the `GAVEL_SNAPSHOT_CROSSCHECK`
//! environment variable enables it, and is proptested against fresh
//! builds across random admit/complete/refine interleavings.
//!
//! Selected pair *rows* are materialized lazily too: the plain-mode
//! store keeps only scores (a candidate row at 8k jobs would put the
//! full store in the tens of GBs), and [`SnapshotCache::snapshot`]
//! re-derives rows just for the ~n selected pairs, memoized while a pair
//! stays selected. The assembled snapshot remains **row-for-row bitwise
//! identical** to a fresh `build_tensor_with_pairs` /
//! `build_singleton_tensor` run over the same jobs.
//!
//! # Bridged (estimated) invalidation protocol
//!
//! Estimated pair throughputs (Figure 14) drift as the estimator refines,
//! so a pair row derived from the bridge is only valid as long as neither
//! member's estimator state has changed. A cache in *bridged* mode
//! ([`SnapshotCache::new_bridged`]) makes that validity explicit instead
//! of assumed-global:
//!
//! - every cached pair entry is keyed by the two jobs' **estimator
//!   revisions** (monotone per-job stamps from the estimator's global
//!   change clock) at derivation time;
//! - the cache remembers the estimator **clock epoch** of its last sync;
//!   at each [`SnapshotCache::snapshot_bridged`] it asks the bridge for
//!   the set of jobs whose state changed since that epoch (the *dirty
//!   set*), unions in jobs admitted since the last snapshot (whose pair
//!   entries do not exist yet), and re-derives **only the pair rows
//!   touching those jobs** — O(|dirty| · n) bridge evaluations instead of
//!   O(n²). Each re-derived entry *migrates* between score buckets
//!   (insert / score-update / unlink, depending on how the new score
//!   sits against the pruning threshold) rather than triggering a global
//!   re-rank;
//! - when the dirty set exceeds a configurable fraction of the resident
//!   single-worker jobs (`dirty_fraction`, [`BRIDGED_DIRTY_FRACTION`] by
//!   default), partial re-derivation would cost as much as starting over,
//!   so the cache falls back to a full re-derivation of every pair (the
//!   bucket store is rebuilt from scratch) — counted separately in
//!   [`SnapshotStats::bridged_full_rebuilds`] so benches and CI can gate
//!   on the steady state staying partial.
//!
//! Below-threshold pairs keep a scoreless entry (row and bucket slot are
//! re-derived if the pair ever drifts back above the threshold), and the
//! assembled bridged snapshot reuses the same
//! bucketed selection as the oracle path, so it is row-for-row bitwise
//! identical to a fresh estimator-driven `build_tensor_with_pairs_by`
//! rebuild at the same estimator state (proptested under random
//! admit/complete/refine interleavings, including past the fallback
//! threshold).

use crate::estimate::EstimatorBridge;
use gavel_core::{Combo, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
use gavel_workloads::{
    pair_candidate, pair_candidate_by, pair_score, singleton_row, GpuKind, JobSpec, Oracle,
    PairOptions,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Default dirty-set fallback threshold for bridged caches: when more
/// than this fraction of the resident single-worker jobs drifted since
/// the last snapshot, re-derive every pair instead of patching.
pub const BRIDGED_DIRTY_FRACTION: f64 = 0.5;

/// Environment variable that, when set (to anything but `0`), makes
/// every bucketed selection re-run the flat [`rank_and_cap`]
/// differential oracle and assert the two orders are identical.
pub const CROSSCHECK_ENV: &str = "GAVEL_SNAPSHOT_CROSSCHECK";

/// Right-shift applied to a score's IEEE-754 bits to name its bucket.
/// Keeping the top 24 bits (sign, exponent, 12 mantissa bits) yields a
/// few hundred buckets over the realistic score range — coarse enough
/// that bucket membership almost never changes under estimate drift,
/// fine enough that contested buckets stay small.
const BUCKET_SHIFT: u32 = 40;

/// Sentinel for "no position / dead handle".
const NONE32: u32 = u32::MAX;

/// A candidate slot in the bucketed store. Endpoints are dense job
/// *handles* (stable across `swap_remove` churn, unlike positions);
/// `la`/`lb`/`bucket_pos` are backpointers into the two per-job slot
/// lists and the bucket vector, so unlinking is O(1) per reference.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ha: u32,
    hb: u32,
    /// Index of this slot in `job_slots[ha]` / `job_slots[hb]`.
    la: u32,
    lb: u32,
    /// Index of this slot in its bucket's vector.
    bucket_pos: u32,
    score: f64,
}

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
    /// Mirrors `Slot::score`; `update_score` keeps both in sync.
    score: f64,
}

/// The score-bucketed candidate store (see the module docs).
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

    /// Number of live candidates touching handle `h`.
    fn degree(&self, h: u32) -> usize {
        self.job_slots[h as usize].len()
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

    /// Re-scores `s`, migrating it between buckets when the new score
    /// lands in a different bin — the bridged drift path.
    fn update_score(&mut self, s: u32, score: f64) {
        debug_assert!(
            score >= 0.0 && score.is_finite(),
            "bucketed candidate scores must be nonnegative finite, got {score}"
        );
        let sl = self.slots[s as usize];
        if Self::bucket_of(sl.score) != Self::bucket_of(score) {
            self.unlink_bucket(s);
            let bvec = self.buckets.entry(Self::bucket_of(score)).or_default();
            self.slots[s as usize].bucket_pos = bvec.len() as u32;
            bvec.push(BucketEntry {
                slot: s,
                ha: sl.ha,
                hb: sl.hb,
                score,
            });
        } else {
            // Same bin: refresh the bucket-resident score copy in place.
            let bvec = self
                .buckets
                .get_mut(&Self::bucket_of(sl.score))
                .expect("slot bucket missing");
            bvec[sl.bucket_pos as usize].score = score;
        }
        self.slots[s as usize].score = score;
    }

    /// Drops every candidate but keeps the handle lists allocated — the
    /// bridged full-rebuild path.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.buckets.clear();
        for l in &mut self.job_slots {
            l.clear();
        }
        self.live = 0;
    }

    fn live_slots(&self) -> impl Iterator<Item = (u32, &Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, sl)| sl.ha != NONE32)
            .map(|(s, sl)| (s as u32, sl))
    }

    /// The bucketed selection pass: walks buckets in descending score
    /// order, lazily materializing the exact tie-break order only for
    /// candidates the per-job cap still contests (see the module docs),
    /// and stops once fewer than two jobs remain both uncapped and
    /// unexhausted. Returns selected slot ids in emission order —
    /// bit-identical to the flat [`rank_and_cap`] over the same slots.
    fn select(&self, handle_pos: &[u32], cap: usize, stats: &mut SnapshotStats) -> Vec<u32> {
        let mut selected = Vec::new();
        if cap == 0 || self.live == 0 {
            return selected;
        }
        let cap = cap.min(u32::MAX as usize) as u32;
        let nh = self.job_slots.len();
        // Small per-handle working arrays (tens of KB — cache-resident),
        // with degrees snapshotted once so the hot loop never chases the
        // `job_slots` vector headers.
        let mut counts = vec![0u32; nh];
        let mut scanned = vec![0u32; nh];
        let degrees: Vec<u32> = self.job_slots.iter().map(|l| l.len() as u32).collect();
        // S' = jobs still uncapped with unscanned candidates remaining;
        // once |S'| < 2 no further pair can be selected.
        let mut in_sp = vec![false; nh];
        let mut s_prime = 0usize;
        for h in 0..nh {
            if degrees[h] > 0 {
                in_sp[h] = true;
                s_prime += 1;
            }
        }
        let mut survivors: Vec<(u128, u32, u32, u32)> = Vec::new();
        for bucket in self.buckets.values().rev() {
            if s_prime <= 1 {
                break;
            }
            stats.buckets_walked += 1;
            survivors.clear();
            // This scan is the pass's volume term: one sequential read
            // per bucket entry, no slot-slab access.
            for e in bucket {
                let (ha, hb) = (e.ha as usize, e.hb as usize);
                scanned[ha] += 1;
                if in_sp[ha] && scanned[ha] == degrees[ha] {
                    in_sp[ha] = false;
                    s_prime -= 1;
                }
                scanned[hb] += 1;
                if in_sp[hb] && scanned[hb] == degrees[hb] {
                    in_sp[hb] = false;
                    s_prime -= 1;
                }
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
                for h in [ha, hb] {
                    if in_sp[h] && counts[h] >= cap {
                        in_sp[h] = false;
                        s_prime -= 1;
                    }
                }
            }
        }
        selected
    }
}

/// A cached estimator-derived pair, keyed by the estimator revisions of
/// its two members at derivation time (`None` = unregistered, whose class
/// estimate is static). The dirty-set protocol alone guarantees entries
/// are never stale, so the revision key is materialized only in debug
/// builds, where assembly re-checks it against the live bridge — at
/// 2048 jobs the cache holds ~2M entries and release builds should not
/// pay ~32 bytes each for an assert-only field.
#[derive(Debug, Clone)]
struct BridgedEntry {
    #[cfg(debug_assertions)]
    revs: (Option<u64>, Option<u64>),
    /// Pair row in canonical (low `JobId`, high `JobId`) order; kept only
    /// while the score clears the pruning threshold.
    row: Option<Vec<PairThroughput>>,
    /// This entry's slot in the bucketed store — present exactly while
    /// the score clears the pruning threshold.
    slot: Option<u32>,
}

/// Bridged-mode state: the per-pair estimate cache and its sync epoch.
#[derive(Debug, Clone)]
struct BridgedPairs {
    opts: PairOptions,
    dirty_fraction: f64,
    /// Canonical (low `JobId`, high `JobId`) → cached entry.
    entries: HashMap<(JobId, JobId), BridgedEntry>,
    /// Per-job partner index so `remove` drops a job's entries without
    /// scanning the whole map.
    partners: HashMap<JobId, HashSet<JobId>>,
    /// Estimator clock at the last snapshot sync.
    epoch: u64,
    /// Single-worker jobs admitted since the last snapshot — their pair
    /// entries do not exist yet.
    fresh: Vec<JobId>,
    /// Memoized assembled pair selection (entry keys in emission order),
    /// valid while `selection_dirty` is false.
    selected: Vec<(JobId, JobId)>,
}

/// Counters making the incremental path observable (and gateable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Oracle-backed snapshots served from cached rows.
    pub incremental_snapshots: usize,
    /// Bridged snapshots that re-derived only dirty/fresh pair rows (or
    /// none at all) — the steady-state estimated path.
    pub bridged_partial_rebuilds: usize,
    /// Bridged snapshots that re-derived every pair because the dirty set
    /// exceeded the fallback threshold (expected only at initial
    /// population or after estimate-drift bursts).
    pub bridged_full_rebuilds: usize,
    /// Pair-score evaluations performed (oracle at admission, or bridge
    /// at bridged re-derivation).
    pub pair_evals: usize,
    /// Singleton rows appended (admissions).
    pub rows_appended: usize,
    /// Singleton rows dropped (completions).
    pub rows_dropped: usize,
    /// Bucketed selection passes (plain and bridged).
    pub bucketed_selections: usize,
    /// Buckets visited across all bucketed selection passes.
    pub buckets_walked: usize,
    /// Candidates whose exact tie-break order was lazily materialized
    /// (filtered into a contested bucket's sort) across all passes.
    pub candidates_sorted: usize,
    /// Flat [`rank_and_cap`] runs, i.e. differential-oracle crosschecks.
    /// Zero unless crosschecking is on; benches and CI gate on that.
    pub flat_reranks: usize,
    /// Pair rows materialized for selected candidates (plain mode).
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
    /// Pair generation options; `None` = singleton-only snapshots.
    pairs: Option<PairOptions>,
    /// Bridged (estimated) pair state; mutually exclusive with `pairs`.
    bridged: Option<BridgedPairs>,
    specs: Vec<JobSpec>,
    singleton_rows: Vec<Vec<PairThroughput>>,
    policy_jobs: Vec<PolicyJob>,
    /// Dense per-job handle, parallel to `specs`.
    handles: Vec<u32>,
    /// Position of each handle in `specs` ([`NONE32`] once freed).
    handle_pos: Vec<u32>,
    /// `JobId` of each handle (stale once freed).
    handle_ids: Vec<JobId>,
    free_handles: Vec<u32>,
    /// The score-bucketed candidate store (plain and bridged modes).
    store: PairStore,
    /// Memoized selection (slot ids in emission order), valid while no
    /// admit/remove/drift has happened since it was computed — so
    /// cadence-driven recomputes over an unchanged job set skip the
    /// selection pass entirely.
    selected: Vec<u32>,
    selection_dirty: bool,
    /// Lazily materialized rows for the currently selected plain-mode
    /// pairs, canonically keyed; pruned as selections and jobs churn.
    row_memo: HashMap<(JobId, JobId), Vec<PairThroughput>>,
    /// Assert every bucketed selection against [`rank_and_cap`].
    crosscheck: bool,
    stats: SnapshotStats,
}

impl SnapshotCache {
    /// Creates an empty cache. `pairs` enables space-sharing pair rows
    /// (pass the same [`PairOptions`] the fresh builder would use).
    pub fn new(consolidated: bool, pairs: Option<PairOptions>) -> Self {
        SnapshotCache {
            consolidated,
            pairs,
            bridged: None,
            specs: Vec::new(),
            singleton_rows: Vec::new(),
            policy_jobs: Vec::new(),
            handles: Vec::new(),
            handle_pos: Vec::new(),
            handle_ids: Vec::new(),
            free_handles: Vec::new(),
            store: PairStore::default(),
            selected: Vec::new(),
            selection_dirty: true,
            row_memo: HashMap::new(),
            crosscheck: std::env::var(CROSSCHECK_ENV).is_ok_and(|v| v != "0"),
            stats: SnapshotStats::default(),
        }
    }

    /// Creates an empty cache in bridged (estimated) mode: pair rows come
    /// from an [`EstimatorBridge`] at [`Self::snapshot_bridged`] time and
    /// are invalidated per job via estimator revisions (see the module
    /// docs). `dirty_fraction` sets the fallback threshold
    /// ([`BRIDGED_DIRTY_FRACTION`] is the engine's default).
    pub fn new_bridged(consolidated: bool, opts: PairOptions, dirty_fraction: f64) -> Self {
        let mut cache = SnapshotCache::new(consolidated, None);
        cache.bridged = Some(BridgedPairs {
            opts,
            dirty_fraction,
            entries: HashMap::new(),
            partners: HashMap::new(),
            epoch: 0,
            fresh: Vec::new(),
            selected: Vec::new(),
        });
        cache
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

    /// Counters for benches and CI gates.
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

    /// Number of live candidates touching the job at position `i` —
    /// the completion cost through the reverse index is O(this).
    pub fn candidate_degree(&self, i: usize) -> usize {
        self.store.degree(self.handles[i])
    }

    fn alloc_handle(&mut self, id: JobId) -> u32 {
        match self.free_handles.pop() {
            Some(h) => {
                self.handle_ids[h as usize] = id;
                h
            }
            None => {
                let h = self.handle_pos.len() as u32;
                self.handle_pos.push(NONE32);
                self.handle_ids.push(id);
                self.store.ensure_handles(self.handle_pos.len());
                h
            }
        }
    }

    fn slot_ids(&self, s: u32) -> (JobId, JobId) {
        let sl = &self.store.slots[s as usize];
        (
            self.handle_ids[sl.ha as usize],
            self.handle_ids[sl.hb as usize],
        )
    }

    /// Admits a job: computes its singleton row and, when pairs are
    /// enabled and the job is single-worker, one candidate *score*
    /// against every resident single-worker job (rows are materialized
    /// lazily at selection time). In bridged mode pair derivation is
    /// deferred to [`Self::snapshot_bridged`] (the job is recorded as
    /// fresh).
    pub fn admit(&mut self, oracle: &Oracle, spec: JobSpec, job: PolicyJob) {
        debug_assert_eq!(spec.id, job.id, "spec/job identity mismatch");
        self.singleton_rows
            .push(singleton_row(oracle, &spec, self.consolidated));
        self.stats.rows_appended += 1;
        let h = self.alloc_handle(spec.id);
        if let Some(opts) = self.pairs {
            if spec.scale_factor == 1 {
                for j in 0..self.specs.len() {
                    let other = self.specs[j];
                    if other.scale_factor != 1 {
                        continue;
                    }
                    let score = pair_score(oracle, &other, &spec);
                    self.stats.pair_evals += 1;
                    if score >= opts.min_aggregate {
                        self.store.insert(self.handles[j], h, score);
                    }
                }
            }
        }
        if let Some(br) = self.bridged.as_mut() {
            if spec.scale_factor == 1 {
                br.fresh.push(spec.id);
            }
        }
        self.handle_pos[h as usize] = self.specs.len() as u32;
        self.handles.push(h);
        self.specs.push(spec);
        self.policy_jobs.push(job);
        self.selection_dirty = true;
    }

    /// Removes the job at position `i` (swap-remove, mirroring the
    /// engine's active vector) and unlinks its pair candidates through
    /// the per-job reverse index — O(degree), not O(|candidates|).
    pub fn remove(&mut self, i: usize) {
        let id = self.specs[i].id;
        let h = self.handles[i];
        self.specs.swap_remove(i);
        self.singleton_rows.swap_remove(i);
        self.policy_jobs.swap_remove(i);
        self.handles.swap_remove(i);
        if i < self.handles.len() {
            self.handle_pos[self.handles[i] as usize] = i as u32;
        }
        self.handle_pos[h as usize] = NONE32;
        self.store.remove_job(h);
        self.free_handles.push(h);
        if self.pairs.is_some() {
            // Memoized rows are keyed by JobId; drop the dead job's so a
            // later id reuse can never resurrect a stale row.
            self.row_memo.retain(|&(a, b), _| a != id && b != id);
        }
        if let Some(br) = self.bridged.as_mut() {
            if let Some(partners) = br.partners.remove(&id) {
                for p in partners {
                    br.entries.remove(&canonical(id, p));
                    if let Some(set) = br.partners.get_mut(&p) {
                        set.remove(&id);
                    }
                }
            }
        }
        self.selection_dirty = true;
        self.stats.rows_dropped += 1;
    }

    /// Runs the selection pass: the bucketed walk, re-run through the
    /// flat [`rank_and_cap`] and asserted identical when crosschecking.
    fn run_selection(&mut self, cap: usize) -> Vec<u32> {
        self.stats.bucketed_selections += 1;
        let slots = self.store.select(&self.handle_pos, cap, &mut self.stats);
        if self.crosscheck {
            let flat = self.rank_flat(cap);
            assert_eq!(
                slots, flat,
                "bucketed selection diverged from the flat rank_and_cap oracle"
            );
        }
        slots
    }

    /// The flat differential oracle: ranks every live slot through
    /// [`rank_and_cap`].
    fn rank_flat(&mut self, cap: usize) -> Vec<u32> {
        self.stats.flat_reranks += 1;
        let pos: HashMap<JobId, u32> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i as u32))
            .collect();
        rank_and_cap(
            self.store.live_slots().map(|(s, sl)| {
                (
                    self.handle_ids[sl.ha as usize],
                    self.handle_ids[sl.hb as usize],
                    sl.score,
                    s,
                )
            }),
            &pos,
            self.specs.len(),
            cap,
        )
    }

    /// Re-selects plain-mode pairs and materializes rows for the
    /// winners, reusing rows that stayed selected across the pass.
    fn reselect_plain(&mut self, oracle: &Oracle) {
        let Some(opts) = self.pairs else { return };
        let slots = self.run_selection(opts.max_pairs_per_job);
        let mut old = std::mem::take(&mut self.row_memo);
        for &s in &slots {
            let (a, b) = self.slot_ids(s);
            let key = canonical(a, b);
            let row = match old.remove(&key) {
                Some(row) => row,
                None => {
                    let sl = &self.store.slots[s as usize];
                    let sa = self.specs[self.handle_pos[sl.ha as usize] as usize];
                    let sb = self.specs[self.handle_pos[sl.hb as usize] as usize];
                    self.stats.pair_rows_materialized += 1;
                    pair_candidate(oracle, &sa, &sb).1
                }
            };
            self.row_memo.insert(key, row);
        }
        self.selected = slots;
    }

    /// Assembles the current snapshot from cached rows.
    ///
    /// Row-for-row identical to `build_tensor_with_pairs(oracle, specs,
    /// consolidated, opts)` (or `build_singleton_tensor` without pairs)
    /// over the current job vector; the oracle is consulted only to
    /// materialize rows for newly selected pairs.
    ///
    /// A bridged cache assembles through [`Self::snapshot_bridged`];
    /// calling this on one is a construction mistake (debug-asserted). A
    /// release build serves the rows the cache can vouch for without a
    /// bridge: the singleton rows, no pairs.
    pub fn snapshot(&mut self, oracle: &Oracle) -> (ComboSet, ThroughputTensor) {
        debug_assert!(
            self.bridged.is_none(),
            "bridged caches assemble through snapshot_bridged"
        );
        self.stats.incremental_snapshots += 1;
        let num_types = GpuKind::all().len();
        let mut combos: Vec<Combo> = self.specs.iter().map(|s| Combo::single(s.id)).collect();
        let mut rows = self.singleton_rows.clone();
        if self.pairs.is_some() {
            if self.selection_dirty {
                self.reselect_plain(oracle);
                self.selection_dirty = false;
            }
            for &s in &self.selected {
                let (a, b) = self.slot_ids(s);
                combos.push(Combo::pair(a, b));
                rows.push(self.row_memo[&canonical(a, b)].clone());
            }
        }
        (
            ComboSet::new(combos),
            ThroughputTensor::new(num_types, rows),
        )
    }

    /// Assembles the current snapshot with pair rows from `bridge`,
    /// re-deriving only the rows whose members' estimates drifted since
    /// the last call (see the module docs for the invalidation protocol).
    ///
    /// Row-for-row identical to `build_tensor_with_pairs_by(oracle,
    /// specs, consolidated, opts, |a, b, g| bridge.pair_throughput(...))`
    /// at the bridge's current state.
    ///
    /// Only a cache built by [`Self::new_bridged`] holds estimated rows;
    /// calling this on a plain one is a construction mistake
    /// (debug-asserted). A release build serves the rows the cache can
    /// vouch for: the oracle-backed [`Self::snapshot`].
    pub fn snapshot_bridged(
        &mut self,
        oracle: &Oracle,
        bridge: &EstimatorBridge,
    ) -> (ComboSet, ThroughputTensor) {
        let Some(opts) = self.bridged.as_ref().map(|br| br.opts) else {
            debug_assert!(false, "plain caches assemble through snapshot");
            return self.snapshot(oracle);
        };

        // Dirty set: estimator drift since the last sync, plus admissions
        // whose entries do not exist yet — restricted to resident
        // single-worker jobs (only those form pairs).
        let single_pos: HashMap<JobId, u32> = self
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.scale_factor == 1)
            .map(|(i, s)| (s.id, i as u32))
            .collect();
        let br = self.bridged.as_mut().unwrap();
        let mut work: Vec<JobId> = bridge
            .dirty_since(br.epoch)
            .into_iter()
            .chain(br.fresh.drain(..))
            .filter(|id| single_pos.contains_key(id))
            .collect();
        work.sort_unstable();
        work.dedup();
        br.epoch = bridge.clock();

        let n_single = single_pos.len();
        let full = !work.is_empty() && work.len() as f64 > br.dirty_fraction * n_single as f64;
        if full {
            // Past the threshold patching costs as much as starting over:
            // re-derive every pair and rebuild the bucket store.
            br.entries.clear();
            br.partners.clear();
            self.store.clear();
            self.stats.bridged_full_rebuilds += 1;
        } else {
            self.stats.bridged_partial_rebuilds += 1;
        }

        // Re-derive the affected rows. `work` is empty on a clean cache
        // (cadence recompute with no drift), making this a pure assembly.
        // Each re-derived entry migrates between score buckets instead of
        // invalidating a global order.
        let singles: Vec<(u32, JobSpec)> = self
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.scale_factor == 1)
            .map(|(i, s)| (self.handles[i], *s))
            .collect();
        let work_set: HashSet<JobId> = work.iter().copied().collect();
        let store = &mut self.store;
        let stats = &mut self.stats;
        let mut derive = |ha: u32, a: &JobSpec, hb: u32, b: &JobSpec, br: &mut BridgedPairs| {
            let (score, row) = pair_candidate_by(oracle, a, b, |x, y, g| {
                bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
            });
            stats.pair_evals += 1;
            let key = canonical(a.id, b.id);
            let above = score >= opts.min_aggregate;
            let prev_slot = br.entries.get(&key).and_then(|e| e.slot);
            let slot = match (prev_slot, above) {
                (Some(s), true) => {
                    store.update_score(s, score);
                    Some(s)
                }
                (Some(s), false) => {
                    store.remove_slot(s);
                    None
                }
                (None, true) => Some(store.insert(ha, hb, score)),
                (None, false) => None,
            };
            br.entries.insert(
                key,
                BridgedEntry {
                    #[cfg(debug_assertions)]
                    revs: (bridge.revision(key.0), bridge.revision(key.1)),
                    row: above.then_some(row),
                    slot,
                },
            );
            br.partners.entry(a.id).or_default().insert(b.id);
            br.partners.entry(b.id).or_default().insert(a.id);
        };
        let br = self.bridged.as_mut().unwrap();
        if full {
            for (i, (ha, a)) in singles.iter().enumerate() {
                for (hb, b) in &singles[i + 1..] {
                    derive(*ha, a, *hb, b, br);
                }
            }
        } else {
            for &w in &work {
                let wi = single_pos[&w] as usize;
                let (wh, ws) = (self.handles[wi], self.specs[wi]);
                for (oh, other) in &singles {
                    if other.id == w || (work_set.contains(&other.id) && other.id < w) {
                        continue;
                    }
                    derive(wh, &ws, *oh, other, br);
                }
            }
        }
        if !work.is_empty() {
            self.selection_dirty = true;
        }

        // Bucketed selection, memoized while nothing changed.
        if self.selection_dirty {
            let slots = self.run_selection(opts.max_pairs_per_job);
            let sel: Vec<(JobId, JobId)> = slots
                .iter()
                .map(|&s| {
                    let (a, b) = self.slot_ids(s);
                    canonical(a, b)
                })
                .collect();
            self.bridged.as_mut().unwrap().selected = sel;
            self.selection_dirty = false;
        }

        let br = self.bridged.as_ref().unwrap();
        let num_types = GpuKind::all().len();
        let mut combos: Vec<Combo> = self.specs.iter().map(|s| Combo::single(s.id)).collect();
        let mut rows = self.singleton_rows.clone();
        for &(a, b) in &br.selected {
            // Selection only ever ranks entries with above-threshold
            // scores, so the entry and its row exist; a missing one is a
            // selection bug we skip (debug-asserted) rather than die on.
            let Some(entry) = br.entries.get(&(a, b)) else {
                debug_assert!(false, "selected pair ({a}, {b}) missing from entries");
                continue;
            };
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                entry.revs,
                (bridge.revision(a), bridge.revision(b)),
                "stale bridged entry ({a}, {b}) survived invalidation"
            );
            let Some(row) = entry.row.clone() else {
                debug_assert!(false, "selected entry ({a}, {b}) has no row");
                continue;
            };
            combos.push(Combo::pair(a, b));
            rows.push(row);
        }
        (
            ComboSet::new(combos),
            ThroughputTensor::new(num_types, rows),
        )
    }
}

/// Canonical (low, high) pair key.
fn canonical(a: JobId, b: JobId) -> (JobId, JobId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Ranks scored pair candidates exactly like the fresh builder and
/// applies its greedy per-job cap, returning each surviving candidate's
/// `tag` in emission order.
///
/// This is the *flat* implementation of the tie-break contract (see the
/// module docs): every candidate is packed into a single `u128` key —
/// descending score bits, then the two positions — and globally sorted.
/// It costs O(n² log n²) per pass and survives as the differential
/// oracle the bucketed store is crosschecked against.
///
/// Scores must be nonnegative and finite: `!score.to_bits()` orders the
/// IEEE bit patterns inverse to the values only on that domain, and
/// silently mis-orders negatives and NaNs (debug-asserted here).
fn rank_and_cap<T: Copy>(
    candidates: impl Iterator<Item = (JobId, JobId, f64, T)>,
    pos: &HashMap<JobId, u32>,
    n_jobs: usize,
    max_pairs_per_job: usize,
) -> Vec<T> {
    let mut keys: Vec<(u128, T)> = candidates
        .map(|(a, b, score, tag)| {
            let pa = pos[&a];
            let pb = pos[&b];
            let (i, k) = if pa < pb { (pa, pb) } else { (pb, pa) };
            debug_assert!(
                score >= 0.0 && score.is_finite(),
                "rank_and_cap requires nonnegative finite scores \
                 (the score_desc bit trick mis-orders negatives/NaNs), got {score}"
            );
            let score_desc = !score.to_bits();
            let key = ((score_desc as u128) << 64) | ((i as u128) << 32) | (k as u128);
            (key, tag)
        })
        .collect();
    keys.sort_unstable_by_key(|&(key, _)| key);
    let mut per_job_count = vec![0usize; n_jobs];
    let mut selected = Vec::new();
    for &(key, tag) in &keys {
        let i = ((key >> 32) & 0xffff_ffff) as usize;
        let k = (key & 0xffff_ffff) as usize;
        if per_job_count[i] >= max_pairs_per_job || per_job_count[k] >= max_pairs_per_job {
            continue;
        }
        per_job_count[i] += 1;
        per_job_count[k] += 1;
        selected.push(tag);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_estimator::EstimatorConfig;
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

    fn assert_matches_fresh(cache: &mut SnapshotCache, oracle: &Oracle, opts: Option<PairOptions>) {
        let specs = cache.specs().to_vec();
        let (combos, tensor) = cache.snapshot(oracle);
        let (fresh_combos, fresh_tensor) = match opts {
            Some(o) => build_tensor_with_pairs(oracle, &specs, true, &o),
            None => build_singleton_tensor(oracle, &specs, true),
        };
        assert_eq!(combos.combos(), fresh_combos.combos(), "combo rows differ");
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "tensor row {k} differs");
        }
    }

    fn assert_bridged_matches_fresh(
        cache: &mut SnapshotCache,
        oracle: &Oracle,
        bridge: &EstimatorBridge,
        opts: PairOptions,
    ) {
        let specs = cache.specs().to_vec();
        let (combos, tensor) = cache.snapshot_bridged(oracle, bridge);
        let (fresh_combos, fresh_tensor) =
            build_tensor_with_pairs_by(oracle, &specs, true, &opts, |x, y, g| {
                bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
            });
        assert_eq!(combos.combos(), fresh_combos.combos(), "combo rows differ");
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "tensor row {k} differs");
        }
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
        // Six mutually pairable jobs: 15 candidates, each job degree 5.
        assert_eq!(cache.candidate_count(), 15);
        assert_eq!(cache.candidate_degree(0), 5);
        cache.remove(0);
        // The removed job's 5 candidates are gone; survivors lost one.
        assert_eq!(cache.candidate_count(), 10);
        for i in 0..cache.len() {
            assert_eq!(cache.candidate_degree(i), 4);
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
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

    /// Plain and bridged caches each have one assembly method. Using the
    /// other one is caught in debug builds; a release build serves the
    /// rows the cache can vouch for.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "snapshot_bridged"))]
    fn snapshot_on_a_bridged_cache_serves_singletons_only() {
        let oracle = Oracle::new();
        let mut cache =
            SnapshotCache::new_bridged(true, PairOptions::default(), BRIDGED_DIRTY_FRACTION);
        for i in 0..6u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "through snapshot"))]
    fn snapshot_bridged_on_a_plain_cache_serves_oracle_rows() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 3);
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        let specs = cache.specs().to_vec();
        let (combos, tensor) = cache.snapshot_bridged(&oracle, &bridge);
        let (fresh_combos, fresh_tensor) = build_tensor_with_pairs(&oracle, &specs, true, &opts);
        assert_eq!(combos.combos(), fresh_combos.combos());
        for k in 0..fresh_tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k));
        }
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_negative_scores() {
        let pos: HashMap<JobId, u32> = [(JobId(0), 0u32), (JobId(1), 1u32)].into_iter().collect();
        // A negative score would silently sort *above* every positive one
        // under the bit complement; the debug assertion must catch it.
        rank_and_cap(
            std::iter::once((JobId(0), JobId(1), -1.0f64, 0usize)),
            &pos,
            2,
            8,
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_nan_scores() {
        let pos: HashMap<JobId, u32> = [(JobId(0), 0u32), (JobId(1), 1u32)].into_iter().collect();
        rank_and_cap(
            std::iter::once((JobId(0), JobId(1), f64::NAN, 0usize)),
            &pos,
            2,
            8,
        );
    }

    #[test]
    fn bucket_migration_on_drift() {
        // Drive a slot across a bucket boundary via update_score and
        // check the store's bucket bookkeeping stays consistent.
        let mut store = PairStore::default();
        store.ensure_handles(4);
        let a = store.insert(0, 1, 1.25);
        let b = store.insert(2, 3, 2.5);
        assert_ne!(
            PairStore::bucket_of(1.25),
            PairStore::bucket_of(2.5),
            "test scores must land in different buckets"
        );
        assert_eq!(store.buckets.len(), 2);
        // Same-bucket rescore: no migration.
        store.update_score(a, 1.25000001);
        assert_eq!(store.buckets.len(), 2);
        // Cross-bucket rescore: slot a joins slot b's bucket.
        store.update_score(a, 2.5000001);
        assert_eq!(store.buckets.len(), 1);
        assert_eq!(store.buckets.values().next().unwrap().len(), 2);
        // Unlink via the reverse index still works after migration.
        store.remove_job(0);
        assert_eq!(store.live, 1);
        store.remove_slot(b);
        assert_eq!(store.live, 0);
        assert!(store.buckets.is_empty());
    }

    #[test]
    fn bridged_matches_fresh_through_drift_and_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 4,
        };
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 9);
        let mut cache = SnapshotCache::new_bridged(true, opts, BRIDGED_DIRTY_FRACTION);
        cache.set_crosscheck(true);
        for i in 0..8u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            bridge.register(&oracle, s.id, s.config);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        }
        // Refine two jobs (dirtying exactly them) and churn the vector.
        let (a, b) = (cache.specs()[1], cache.specs()[4]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        for &i in &[3usize, 0] {
            let id = cache.specs()[i].id;
            cache.remove(i);
            bridge.forget(id);
            assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        }
        // A clean recompute (no drift, no churn) is a pure assembly and
        // must also match.
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        let stats = cache.stats();
        assert!(
            stats.bridged_partial_rebuilds > 0,
            "steady state must stay partial: {stats:?}"
        );
    }

    #[test]
    fn bridged_falls_back_past_dirty_threshold_and_recovers() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 11);
        let mut cache = SnapshotCache::new_bridged(true, opts, 0.5);
        cache.set_crosscheck(true);
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            bridge.register(&oracle, s.id, s.config);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        // Initial population: every resident job is fresh → full rebuild.
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().bridged_full_rebuilds, 1);

        // Dirty well past half the residents: falls back to full again,
        // and the result still matches the fresh build bit-for-bit.
        for i in 0..4usize {
            let (a, b) = (cache.specs()[i], cache.specs()[(i + 1) % 6]);
            bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        }
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().bridged_full_rebuilds, 2);

        // One refined pair afterwards stays on the partial path.
        let partial_before = cache.stats().bridged_partial_rebuilds;
        let (a, b) = (cache.specs()[0], cache.specs()[1]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().bridged_full_rebuilds, 2);
        assert_eq!(cache.stats().bridged_partial_rebuilds, partial_before + 1);
    }

    #[test]
    fn bridged_mixes_registered_and_unregistered_jobs() {
        // Unregistered jobs ride the static class-estimate path; their
        // pairs never dirty, while registered partners still invalidate.
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 13);
        let mut cache = SnapshotCache::new_bridged(true, opts, BRIDGED_DIRTY_FRACTION);
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 7 + 3);
            if i % 2 == 0 {
                bridge.register(&oracle, s.id, s.config);
            }
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        let (a, b) = (cache.specs()[0], cache.specs()[2]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
    }
}
