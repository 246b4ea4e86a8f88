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
//! `remove` drops the completed job's row, and a snapshot scores what
//! changed and assembles the combo set and tensor from the cached rows,
//! selecting pair rows through the sorted candidate store below. Pair
//! throughputs come from the cache's *pair source* — the [`Oracle`]
//! ([`SnapshotCache::new`]) or, for the Figure 14 experiment, an
//! [`EstimatorBridge`] the cache owns ([`SnapshotCache::estimated`]).
//! The source decides where pair throughputs come from and how coarse a
//! class is; everything else is the same for both.
//!
//! # Classes
//!
//! Resident single-worker jobs fall into *classes* of interchangeable
//! jobs: jobs whose pair scores and rows with any partner are the same.
//! Under the oracle a pair's throughputs depend only on the two jobs'
//! configurations, so a class is a [`JobConfig`] (at most the 26 of
//! Table 2, however many jobs are resident). The estimator keeps its
//! estimates per [`JobId`], so there a class is one job. The store holds
//! candidates between classes, not jobs; the job pairs it stands for are
//! every pair of members of its two classes (of one class, for a class
//! paired with itself).
//!
//! # Invalidation protocol
//!
//! The store holds one *score* per pair of live classes that clears
//! `min_aggregate`, valid until the pair source's answer for either class
//! changes. One rule brings it up to date: each
//! [`SnapshotCache::snapshot`] purges and re-scores the classes the events
//! since the last one created, freed or dirtied. `admit` and `remove`
//! never touch the store.
//!
//! 1. *Dirty classes.* A class is dirty when `admit` creates it — an
//!    arrival whose configuration is already resident under the oracle
//!    joins its class and dirties nothing. A class whose last member
//!    leaves is freed, and never scored if that happens before the next
//!    snapshot; a completion that leaves its class non-empty changes no
//!    class, so under the oracle `admit` and `remove` are O(1). Oracle
//!    throughputs never change, so an oracle-backed cache's dirty classes
//!    are new ones only. Estimates drift as the estimator refines
//!    ([`SnapshotCache::observe`]), so an estimator-backed snapshot first
//!    flags the classes of the jobs the estimator lists as refined since
//!    the last drain ([`EstimatorBridge::take_dirty`]).
//! 2. *Purge.* One pass over the store drops every candidate touching a
//!    freed or dirty class (a freed handle that a new class took over is
//!    dirty), and its row with it, so a row never outlives the score it
//!    was derived with.
//! 3. *Re-score and merge.* Each dirty class is scored once against every
//!    live class — itself included when a class can hold more than one
//!    job — O(|dirty| · K) evaluations over K live classes
//!    ([`SnapshotStats::pair_evals`]), into a pending list of the pairs
//!    that clear `min_aggregate`. The list is sorted and merged into the
//!    store in one pass ([`SnapshotStats::candidates_sorted`]).
//! 4. *Reselect.* Every snapshot runs the selection pass over the
//!    store, against the current job vector's classes.
//! 5. *Rows with their scores.* The `pair_row` call that scores a class
//!    pair also derives its row, and the candidate keeps it, its cells in
//!    class order: the member of `ca` in `a`. `Combo::pair` orders a pair
//!    by id, so a selected job pair copies its class pair's row and swaps
//!    the two cells when the job of `cb` holds the lower id. Under the
//!    oracle that is exact because a pair row's two orientations differ
//!    only by swapped cells, which `gavel-workloads` pins for every pair
//!    of Table 2 configurations; under the estimator a class is one job,
//!    its own stand-in, so a swap made at scoring is undone at assembly.
//!    No selection pass derives a row
//!    ([`SnapshotStats::pair_rows_materialized`] equals
//!    [`SnapshotStats::candidates_sorted`]).
//!
//! Rows are flat throughout: the singleton rows and the assembled tensor
//! are row-major buffers with one entry per [`GpuKind`], and a candidate
//! holds its row inline, so a snapshot is one slice copy for the
//! singletons plus one row copy per selected pair, and allocates the same
//! few blocks whatever its row count.
//!
//! *Assembly.* The combo set comes from the same order: the job ids in
//! position order and the selection's `(i, k)` positions in emission
//! order go to [`ComboSet::with_pairs`], which sorts the ids once for the
//! slots and scatters each job's rows by counting — its singleton, then
//! its pairs, already ascending. No sort over the rows' members runs on a
//! recompute; the fresh builder indexes its rows the same way.
//!
//! The assembled snapshot is **row-for-row bitwise identical** to a fresh
//! `build_tensor_with_pairs` (oracle), `build_tensor_with_pairs_by` at
//! the bridge's current state (estimator) or `build_singleton_tensor`
//! (no pairs) over the same jobs — proptested across random
//! admit/complete/refine interleavings. That rests on a class pair's
//! score not depending on which of its jobs holds the lower id, which
//! `gavel-workloads` pins for every pair of Table 2 configurations. Debug
//! builds also re-derive every score and row a snapshot serves and assert
//! they equal the cached ones, so drift the dirty classes failed to
//! report cannot go unnoticed.
//!
//! # The sorted candidate store
//!
//! `PairStore` keeps its class-pair candidates in one vector, sorted by
//! descending score and then by class pair (`Candidate::key`). An entry
//! is a class pair's two handles, its score and its row; nothing else
//! indexes the vector. It changes only at snapshot time, in batches: the
//! purge is one `retain`, the merge one backward pass over the vector and
//! the sorted pending list, the way the round planner re-keys its order.
//! Under the oracle the store holds at most K(K+1)/2 candidates for K
//! resident configurations; with one-job classes (the estimator) it holds
//! one per above-threshold job pair, ~n²/2, each with its row.
//!
//! **Selection.** A pass first lists each class's members in position
//! order (one O(n) pass over the jobs) and keeps, per class, a linked
//! list of the members still under the per-job pair cap. It then walks
//! the vector in order. Each run of exactly equal scores is one *tie
//! group*, usually a single class pair. The pass *filters* a group down
//! to the class pairs whose classes still have uncapped members — cap
//! counts only grow during a pass, so a pair filtered out here could
//! never be selected later. Inside a tie group the pass enumerates job
//! pairs `(i, k)`, `i < k`, in position order over the uncapped members
//! of the group's classes: the lower member `i` in position order, then
//! its partners above it in position order. A member that reaches the cap
//! leaves its class's list at once, so every pair the enumeration reaches
//! has both endpoints uncapped and is selected. A pass reads O(class
//! pairs + uncapped members + selections), not O(job pairs); it has no
//! early exit (ROADMAP, "Measured and rejected").
//!
//! **Tie-break contract.** The fresh builder ranks job-pair candidates
//! through [`rank_and_cap`]: score descending, then the pair's (i, k)
//! positions *in the current job vector* — positions change as
//! completions `swap_remove` jobs — and the greedy per-job cap applied in
//! that order. The key depends on scores and positions only — never on a
//! candidate's place in the vector or when it was merged — which is why
//! purging and re-merging a drifted class's candidates selects exactly
//! what a fresh enumeration would. The walk visits scores in descending
//! order, a tie group holds every job pair of its score, and its
//! enumeration is the (i, k) order. In debug builds, or wherever
//! [`SnapshotCache::set_crosscheck`] turns it on, every selection pass
//! expands the live class pairs into their job pairs, re-ranks them
//! through [`rank_and_cap`] and asserts the two selections equal, set and
//! order.

use crate::estimate::EstimatorBridge;
use gavel_core::{ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
use gavel_workloads::{
    pair_row, rank_and_cap, singleton_row, GpuKind, JobConfig, JobSpec, Oracle, PairOptions,
};
use std::collections::HashMap;

/// Sentinel for "no position / no class / end of list".
const NONE32: u32 = u32::MAX;

/// Entries per throughput row.
const WIDTH: usize = GpuKind::COUNT;

/// A class-pair candidate in the sorted store. Endpoints are class
/// handles (a class paired with itself has `ca == cb`).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    ca: u32,
    cb: u32,
    score: f64,
    /// The class pair's row, derived with its score, the member of `ca`
    /// in each cell's `a` (see the module docs).
    row: [PairThroughput; WIDTH],
}

// The estimator's one-job classes store a candidate per above-threshold
// job pair, ~n²/2 of them, so anything added here is paid that often. The
// row is 48 of the 64 bytes, held by every candidate, selected or not:
// Figure 12's 330,419 estimated candidates at 1,024 jobs take 21 MB,
// against 8 MB at 24 bytes without their rows.
const _: () = assert!(std::mem::size_of::<Candidate>() == 64);

impl Candidate {
    /// The store's order: descending score (nonnegative scores order like
    /// their bits, so the inverted bits ascend), then class pair. Each
    /// class pair is scored once, so keys are unique.
    fn key(&self) -> (u64, u32, u32) {
        (!self.score.to_bits(), self.ca, self.cb)
    }
}

/// One selected job pair: positions `i < k` in the job vector and the
/// index (`slot`) of their class pair's candidate in the store's vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    i: u32,
    k: u32,
    slot: u32,
}

/// `row` with each cell's two throughputs swapped: the row of the other
/// orientation.
fn swapped(mut row: [PairThroughput; WIDTH]) -> [PairThroughput; WIDTH] {
    for cell in &mut row {
        std::mem::swap(&mut cell.a, &mut cell.b);
    }
    row
}

/// Selection scratch, kept between passes for its capacity.
///
/// `members` lists the pass's pairable positions grouped by class, each
/// class's run in position order (`start[c]..start[c + 1]`); `next` and
/// `prev` link, per class, the members still under the cap, from
/// `head[c]`, `uncapped[c]` of them. Member indices, not positions,
/// address `counts` and the links.
#[derive(Debug, Clone, Default)]
struct Walk {
    members: Vec<u32>,
    start: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    head: Vec<u32>,
    uncapped: Vec<u32>,
    /// Pairs selected so far per member.
    counts: Vec<u32>,
    /// Per class of the tie group being enumerated, its first member not
    /// yet visited as the lower end of a pair.
    cursor: Vec<u32>,
    /// The contested class pairs of the tie group being walked: (score
    /// key, slot, ca, cb).
    survivors: Vec<(u64, u32, u32, u32)>,
    /// The classes of the tie group being enumerated.
    group_classes: Vec<u32>,
    /// The partner lists of the member being enumerated: (class, slot,
    /// next member to read).
    partners: Vec<(u32, u32, u32)>,
}

impl Walk {
    /// Lists each class's members in position order and links them all
    /// as uncapped: one pass over `class_of` to count, one to place.
    fn index(&mut self, class_of: &[u32], classes: usize) {
        self.start.clear();
        self.start.resize(classes + 1, 0);
        for &c in class_of.iter().filter(|&&c| c != NONE32) {
            self.start[c as usize + 1] += 1;
        }
        for c in 0..classes {
            self.start[c + 1] += self.start[c];
        }
        let m = self.start[classes] as usize;
        self.members.clear();
        self.members.resize(m, 0);
        // `head` is the fill cursor first, then each list's head.
        self.head.clear();
        self.head.extend_from_slice(&self.start[..classes]);
        for (p, &c) in class_of.iter().enumerate().filter(|(_, &c)| c != NONE32) {
            let fill = &mut self.head[c as usize];
            self.members[*fill as usize] = p as u32;
            *fill += 1;
        }
        self.next.clear();
        self.next.extend(1..=m as u32);
        self.prev.clear();
        self.prev.extend((0..m as u32).map(|j| j.wrapping_sub(1)));
        self.uncapped.clear();
        for c in 0..classes {
            let (s, e) = (self.start[c], self.start[c + 1]);
            self.uncapped.push(e - s);
            self.head[c] = if s < e { s } else { NONE32 };
            if s < e {
                self.prev[s as usize] = NONE32;
                self.next[e as usize - 1] = NONE32;
            }
        }
        self.counts.clear();
        self.counts.resize(m, 0);
        self.cursor.clear();
        self.cursor.resize(classes, NONE32);
    }

    /// Takes capped member `j` out of class `c`'s list. Its own `next`
    /// stays, so a reader standing on it can step on.
    fn unlink(&mut self, j: u32, c: u32) {
        let (p, n) = (self.prev[j as usize], self.next[j as usize]);
        match p {
            NONE32 => self.head[c as usize] = n,
            p => self.next[p as usize] = n,
        }
        if n != NONE32 {
            self.prev[n as usize] = p;
        }
        self.uncapped[c as usize] -= 1;
        if self.cursor[c as usize] == j {
            self.cursor[c as usize] = n;
        }
    }

    /// Enumerates one tie group's job pairs in (i, k) position order over
    /// the uncapped members of its classes, selecting each: a member that
    /// reaches `cap` leaves its list at once, so every pair reached has
    /// both ends uncapped.
    fn select_group(&mut self, group: &[(u64, u32, u32, u32)], cap: u32, out: &mut Vec<Pick>) {
        self.group_classes.clear();
        for &(_, _, a, b) in group {
            for c in [a, b] {
                if !self.group_classes.contains(&c) {
                    self.group_classes.push(c);
                    self.cursor[c as usize] = self.head[c as usize];
                }
            }
        }
        loop {
            // A class pair is open while each side has a member left to
            // visit (two, for a class paired with itself).
            let open = group.iter().any(|&(_, _, a, b)| {
                let x = self.cursor[a as usize];
                x != NONE32
                    && match a == b {
                        true => self.next[x as usize] != NONE32,
                        false => self.cursor[b as usize] != NONE32,
                    }
            });
            if !open {
                break;
            }
            // The lowest position not yet visited is the lower end `i`.
            let (c, x) = (self.group_classes.iter())
                .map(|&c| (c, self.cursor[c as usize]))
                .filter(|&(_, x)| x != NONE32)
                .min_by_key(|&(_, x)| self.members[x as usize])
                .expect("an open class pair has a member left");
            self.partners.clear();
            for &(_, s, a, b) in group {
                if a == c && b == c {
                    self.partners.push((c, s, self.next[x as usize]));
                } else if a == c {
                    self.partners.push((b, s, self.cursor[b as usize]));
                } else if b == c {
                    self.partners.push((a, s, self.cursor[a as usize]));
                }
            }
            while self.counts[x as usize] < cap {
                let Some(t) = (0..self.partners.len())
                    .filter(|&t| self.partners[t].2 != NONE32)
                    .min_by_key(|&t| self.members[self.partners[t].2 as usize])
                else {
                    break;
                };
                let (d, slot, k) = self.partners[t];
                self.partners[t].2 = self.next[k as usize];
                self.counts[x as usize] += 1;
                self.counts[k as usize] += 1;
                out.push(Pick {
                    i: self.members[x as usize],
                    k: self.members[k as usize],
                    slot,
                });
                if self.counts[k as usize] == cap {
                    self.unlink(k, d);
                }
            }
            self.cursor[c as usize] = self.next[x as usize];
            if self.counts[x as usize] == cap {
                self.unlink(x, c);
            }
        }
    }
}

/// The sorted class-pair store (see the module docs).
#[derive(Debug, Clone, Default)]
struct PairStore {
    /// The live candidates, sorted by [`Candidate::key`].
    cands: Vec<Candidate>,
    /// Candidates scored since the last [`Self::merge`], in no order.
    pending: Vec<Candidate>,
    walk: Walk,
}

impl PairStore {
    /// Drops every candidate touching a class `stale` names.
    fn purge(&mut self, stale: impl Fn(u32) -> bool) {
        self.cands.retain(|c| !stale(c.ca) && !stale(c.cb));
    }

    /// Queues class pair (`ca`, `cb`) with its score and row (the member
    /// of `ca` in `a`) for the next [`Self::merge`].
    fn push(&mut self, ca: u32, cb: u32, score: f64, row: [PairThroughput; WIDTH]) {
        debug_assert!(
            score >= 0.0 && score.is_finite(),
            "candidate scores must be nonnegative finite, got {score}"
        );
        self.pending.push(Candidate { ca, cb, score, row });
    }

    /// Sorts the pending candidates and merges them into the store, from
    /// the back and in place; returns how many it merged.
    fn merge(&mut self) -> usize {
        let pending = &mut self.pending;
        pending.sort_unstable_by_key(Candidate::key);
        let (mut i, mut j) = (self.cands.len(), pending.len());
        self.cands.extend_from_slice(pending);
        let mut w = self.cands.len();
        while j > 0 {
            w -= 1;
            if i > 0 && self.cands[i - 1].key() > pending[j - 1].key() {
                i -= 1;
                self.cands[w] = self.cands[i];
            } else {
                j -= 1;
                self.cands[w] = pending[j];
            }
        }
        let merged = pending.len();
        pending.clear();
        merged
    }

    /// The selection pass (see the module docs) over jobs of class
    /// handles below `classes`: leaves the selected job pairs in
    /// `selected`, in emission order — bit-identical to the flat
    /// [`rank_and_cap`] over the job-level candidates of the same store.
    fn select(
        &mut self,
        class_of: &[u32],
        classes: usize,
        cap: usize,
        stats: &mut SnapshotStats,
        selected: &mut Vec<Pick>,
    ) {
        selected.clear();
        if cap == 0 || self.cands.is_empty() {
            return;
        }
        let cap = cap.min(u32::MAX as usize) as u32;
        let walk = &mut self.walk;
        walk.index(class_of, classes);
        let mut survivors = std::mem::take(&mut walk.survivors);
        let mut at = 0u32;
        for group in (self.cands).chunk_by(|x, y| x.score.to_bits() == y.score.to_bits()) {
            stats.buckets_walked += 1;
            survivors.clear();
            // Cap counts only grow within a pass, so a class pair without
            // an uncapped member on each side here can never be selected:
            // filtering it out is exact.
            for (s, c) in (at..).zip(group) {
                let (a, b) = (walk.uncapped[c.ca as usize], walk.uncapped[c.cb as usize]);
                if a > (c.ca == c.cb) as u32 && b > 0 {
                    survivors.push((!c.score.to_bits(), s, c.ca, c.cb));
                }
            }
            at += group.len() as u32;
            walk.select_group(&survivors, cap, selected);
        }
        walk.survivors = survivors;
    }

    /// What [`Self::select`] must select: the flat [`rank_and_cap`] over
    /// the job pairs of every candidate, given each job's class
    /// (`class_of`, handles below `classes`), as (i, k, candidate).
    fn flat_selection(&self, class_of: &[u32], classes: usize, cap: usize) -> Vec<(u32, u32, u32)> {
        let mut members = vec![Vec::new(); classes];
        for (p, &c) in class_of.iter().enumerate().filter(|&(_, &c)| c != NONE32) {
            members[c as usize].push(p as u32);
        }
        let mut job_pairs = Vec::new();
        for (s, c) in (0u32..).zip(&self.cands) {
            let (a, b) = (&members[c.ca as usize], &members[c.cb as usize]);
            for (x, &i) in a.iter().enumerate() {
                // A class paired with itself: each two members once.
                let partners = if c.ca == c.cb { &b[x + 1..] } else { &b[..] };
                job_pairs.extend(partners.iter().map(|&k| {
                    let (i, k) = (i.min(k), i.max(k));
                    (i, k, c.score, (i, k, s))
                }));
            }
        }
        rank_and_cap(job_pairs.into_iter(), class_of.len(), cap)
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
    /// class, live class) pair, whatever the pair source — a class being
    /// a configuration under the oracle and a job under the estimator.
    pub pair_evals: usize,
    /// Singleton rows appended (admissions).
    pub rows_appended: usize,
    /// Singleton rows dropped (completions).
    pub rows_dropped: usize,
    /// Selection passes over the sorted store.
    pub bucketed_selections: usize,
    /// Tie groups (runs of equal score in the sorted store) walked across
    /// all selection passes.
    pub buckets_walked: usize,
    /// Class pairs sorted and merged into the store, across all
    /// snapshots.
    pub candidates_sorted: usize,
    /// Crosscheck re-ranks: selection passes re-run through the flat
    /// [`rank_and_cap`] over the store's job-level candidates, whatever
    /// the pair source. Zero unless crosschecking is on; Figure 12 gates
    /// on that.
    pub flat_reranks: usize,
    /// Pair rows derived, each with the score of the class pair it is
    /// stored with: equal to [`Self::candidates_sorted`], and kept because
    /// the benchmark reports it.
    pub pair_rows_materialized: usize,
}

/// A class of interchangeable resident single-worker jobs (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
struct Class {
    /// A member, the class's stand-in when it is scored: under the oracle
    /// only its configuration is read, and it may since have left.
    rep: JobSpec,
    /// Resident members; 0 for a free handle.
    size: u32,
    /// Scores missing or stale until the next snapshot.
    dirty: bool,
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
    /// Each job's class handle, parallel to `specs` ([`NONE32`]: the job
    /// forms no pairs).
    class_of: Vec<u32>,
    classes: Vec<Class>,
    free_classes: Vec<u32>,
    /// An oracle-backed cache's class of each resident configuration.
    by_config: HashMap<JobConfig, u32>,
    /// Classes created, drifted or freed since the last snapshot, which
    /// purges their candidates and re-scores those still flagged dirty
    /// (an entry whose flag is clear was freed, or listed twice).
    dirty: Vec<u32>,
    store: PairStore,
    /// The last snapshot's selection (job pairs in emission order), kept
    /// for its capacity and read by the assembly.
    selected: Vec<Pick>,
    /// Assembly scratch: the job ids, parallel to `specs`, and the
    /// selection's position pairs, in emission order.
    ids: Vec<JobId>,
    pair_at: Vec<(u32, u32)>,
    /// Assert every selection pass against [`rank_and_cap`].
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
            class_of: Vec::new(),
            classes: Vec::new(),
            free_classes: Vec::new(),
            by_config: HashMap::new(),
            dirty: Vec::new(),
            store: PairStore::default(),
            selected: Vec::new(),
            ids: Vec::new(),
            pair_at: Vec::new(),
            crosscheck: cfg!(debug_assertions),
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

    /// Enables (or disables) crosschecking every selection pass
    /// against the flat [`rank_and_cap`] differential oracle, which a new
    /// cache does in debug builds only.
    pub fn set_crosscheck(&mut self, on: bool) {
        self.crosscheck = on;
    }

    /// Number of live job-pair candidates: every job pair of every class
    /// pair in the store, counted from the class sizes.
    pub fn candidate_count(&self) -> usize {
        let size = |c: u32| self.classes[c as usize].size as usize;
        (self.store.cands.iter())
            .map(|c| match c.ca == c.cb {
                true => size(c.ca) * size(c.ca).saturating_sub(1) / 2,
                false => size(c.ca) * size(c.cb),
            })
            .sum()
    }

    /// Number of class-pair candidates the store holds: under the oracle
    /// at most K(K+1)/2 for K resident single-worker configurations.
    pub fn class_pair_count(&self) -> usize {
        self.store.cands.len()
    }

    /// The class `spec` joins: under the oracle the class of its
    /// configuration if one is resident, else a new class, dirty until
    /// the next snapshot scores it.
    fn join_class(&mut self, spec: JobSpec) -> u32 {
        let shared = self.estimator.is_none();
        if let Some(&c) = self.by_config.get(&spec.config).filter(|_| shared) {
            self.classes[c as usize].size += 1;
            return c;
        }
        let class = Class {
            rep: spec,
            size: 1,
            dirty: true,
        };
        let c = match self.free_classes.pop() {
            Some(c) => {
                self.classes[c as usize] = class;
                c
            }
            None => {
                self.classes.push(class);
                (self.classes.len() - 1) as u32
            }
        };
        self.dirty.push(c);
        if shared {
            self.by_config.insert(spec.config, c);
        }
        c
    }

    /// Admits a job: computes its singleton row and, with pair rows on,
    /// puts a single-worker job in its class. The estimator, if any,
    /// profiles the job.
    pub fn admit(&mut self, oracle: &Oracle, spec: JobSpec, job: PolicyJob) {
        debug_assert_eq!(spec.id, job.id, "spec/job identity mismatch");
        self.singleton_rows
            .extend_from_slice(&singleton_row(oracle, &spec, self.consolidated));
        self.stats.rows_appended += 1;
        let pairable = self.pairs.is_some() && spec.scale_factor == 1;
        let class = if pairable {
            self.join_class(spec)
        } else {
            NONE32
        };
        self.class_of.push(class);
        self.specs.push(spec);
        self.policy_jobs.push(job);
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
    /// engine's active vector). If it was the last member of its class,
    /// the class is freed and the next snapshot purges its candidates,
    /// rows and all; the store is not touched here. The estimator forgets
    /// the job.
    pub fn remove(&mut self, i: usize) {
        let spec = self.specs.swap_remove(i);
        if let Some(bridge) = &mut self.estimator {
            bridge.forget(spec.id);
        }
        let last = self.singleton_rows.len() - WIDTH;
        self.singleton_rows.copy_within(last.., i * WIDTH);
        self.singleton_rows.truncate(last);
        self.policy_jobs.swap_remove(i);
        let c = self.class_of.swap_remove(i);
        if c != NONE32 {
            let class = &mut self.classes[c as usize];
            class.size -= 1;
            if class.size == 0 {
                class.dirty = false;
                self.dirty.push(c);
                if self.estimator.is_none() {
                    self.by_config.remove(&spec.config);
                }
                self.free_classes.push(c);
            }
        }
        self.stats.rows_dropped += 1;
    }

    /// Drains the dirty list: purges every candidate touching a freed or
    /// dirty class, then scores each dirty class once against every live
    /// class — the clean ones, the dirty ones already re-scored and, where
    /// a class can hold several jobs (`self_pairs`), itself; the dirty
    /// ones still to come score against it in their turn — and merges the
    /// pairs that clear `min_aggregate` into the store, each with the row
    /// its score came from. The one place candidates and rows are born.
    fn rescore(
        &mut self,
        oracle: &Oracle,
        min_aggregate: f64,
        self_pairs: bool,
        pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
    ) {
        if self.dirty.is_empty() {
            return;
        }
        let classes = &self.classes;
        (self.store).purge(|c| classes[c as usize].size == 0 || classes[c as usize].dirty);
        for t in 0..self.dirty.len() {
            let c = self.dirty[t];
            if !self.classes[c as usize].dirty {
                continue;
            }
            self.classes[c as usize].dirty = false;
            let rep = self.classes[c as usize].rep;
            for (d, other) in self.classes.iter().enumerate() {
                if other.size == 0 || other.dirty || (d == c as usize && !self_pairs) {
                    continue;
                }
                let (score, row) = pair_row(oracle, &other.rep, &rep, pair_fn);
                self.stats.pair_evals += 1;
                if score >= min_aggregate {
                    // `pair_row` puts the lower id's cell first; the
                    // store puts the member of `d`, the candidate's `ca`.
                    let row = match rep.id < other.rep.id {
                        true => swapped(row),
                        false => row,
                    };
                    self.store.push(d as u32, c, score, row);
                }
            }
        }
        let merged = self.store.merge();
        self.stats.candidates_sorted += merged;
        self.stats.pair_rows_materialized += merged;
        self.dirty.clear();
    }

    /// Runs the selection pass — the walk over the sorted store, re-run
    /// through the flat [`rank_and_cap`] and asserted identical when
    /// crosschecking.
    fn reselect(&mut self, cap: usize) {
        let classes = self.classes.len();
        self.stats.bucketed_selections += 1;
        (self.store).select(
            &self.class_of,
            classes,
            cap,
            &mut self.stats,
            &mut self.selected,
        );
        if self.crosscheck {
            self.stats.flat_reranks += 1;
            let walked: Vec<_> = (self.selected.iter()).map(|p| (p.i, p.k, p.slot)).collect();
            assert_eq!(
                walked,
                self.store.flat_selection(&self.class_of, classes, cap),
                "the selection diverged from the flat rank_and_cap oracle"
            );
        }
    }

    /// Selected job pair `p`'s row in `Combo::pair` order: its class
    /// pair's row, the cells swapped when the job of `cb` holds the lower
    /// id.
    fn served_row(&self, p: &Pick) -> [PairThroughput; WIDTH] {
        let c = &self.store.cands[p.slot as usize];
        let (i, k) = (&self.specs[p.i as usize], &self.specs[p.k as usize]);
        let i_in_ca = self.class_of[p.i as usize] == c.ca;
        match c.ca != c.cb && (i.id < k.id) != i_in_ca {
            true => swapped(c.row),
            false => c.row,
        }
    }

    /// Assembles the snapshot from cached rows: singletons, then the
    /// selected pairs. Rows are copied, never derived, here: one slice
    /// for the singletons and one row per selected pair into a single
    /// buffer. The combo set is indexed from the same order
    /// ([`ComboSet::with_pairs`]), its ids and pair positions listed in
    /// scratch kept for its capacity.
    fn assemble(&mut self) -> (ComboSet, ThroughputTensor) {
        let rows = self.specs.len() + self.selected.len();
        let mut entries = Vec::with_capacity(rows * WIDTH);
        entries.extend_from_slice(&self.singleton_rows);
        self.pair_at.clear();
        for p in &self.selected {
            self.pair_at.push((p.i, p.k));
            entries.extend_from_slice(&self.served_row(p));
        }
        self.ids.clear();
        self.ids.extend(self.specs.iter().map(|s| s.id));
        (
            ComboSet::with_pairs(&self.ids, &self.pair_at),
            ThroughputTensor::from_flat(WIDTH, entries),
        )
    }

    /// Assembles the current snapshot: drains the dirty list — with an
    /// estimator, after adding the classes of the jobs it refined since
    /// the last call — and runs the selection pass (see the module docs
    /// for the invalidation protocol).
    ///
    /// Row-for-row identical to `build_tensor_with_pairs(oracle, specs,
    /// consolidated, opts)`, to `build_tensor_with_pairs_by(.., |a, b, g|
    /// bridge.pair_throughput(..))` at the estimator's current state, or
    /// to `build_singleton_tensor` without pairs, over the current job
    /// vector; the pair source is consulted only to score dirty classes,
    /// which derives their rows too.
    pub fn snapshot(&mut self, oracle: &Oracle) -> (ComboSet, ThroughputTensor) {
        // The estimator is lent out of `self` for the call: scoring and
        // row derivation read it while they update the rest of the cache.
        let mut estimator = self.estimator.take();
        match &mut estimator {
            Some(bridge) => {
                self.stats.bridged_snapshots += 1;
                // Only resident single-worker jobs have a class; ids that
                // are not (or that left before this sync) drop out here.
                let drifted = bridge.take_dirty();
                for (s, &c) in self.specs.iter().zip(&self.class_of) {
                    if c == NONE32 || drifted.binary_search(&s.id).is_err() {
                        continue;
                    }
                    let class = &mut self.classes[c as usize];
                    if !class.dirty {
                        class.dirty = true;
                        self.dirty.push(c);
                    }
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
            // Estimates are per job, so only oracle classes hold several.
            let self_pairs = estimator.is_none();
            self.rescore(oracle, opts.min_aggregate, self_pairs, &pair_fn);
            self.reselect(opts.max_pairs_per_job);
            // A score or row the dirty classes failed to invalidate must
            // not be served silently.
            debug_assert!(
                self.selected.iter().all(|p| {
                    let (a, b) = (self.specs[p.i as usize], self.specs[p.k as usize]);
                    let (score, row) = pair_row(oracle, &a, &b, &pair_fn);
                    let cached = self.store.cands[p.slot as usize].score;
                    (cached, self.served_row(p)) == (score, row)
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

    /// The store's entries, for comparing two states of it.
    fn entries(store: &PairStore) -> Vec<(u32, u32, u64, [PairThroughput; WIDTH])> {
        (store.cands.iter())
            .map(|c| (c.ca, c.cb, c.score.to_bits(), c.row))
            .collect()
    }

    #[test]
    fn completions_leave_the_store_to_the_next_snapshot() {
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
        // Six mutually pairable jobs of one configuration: one class
        // paired with itself stands for their 15 job pairs.
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 15));
        assert_eq!(cache.stats().pair_evals, 1);
        // A completion that leaves its class non-empty leaves the store
        // untouched, and the next snapshot neither purges nor merges.
        let before = entries(&cache.store);
        cache.remove(0);
        assert!(cache.dirty.is_empty());
        assert_eq!(entries(&cache.store), before);
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 10));
        let merged = cache.stats().candidates_sorted;
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().candidates_sorted, merged);

        // A job of a new configuration: its class meets the A3C class
        // and itself. Its completion frees the class, whose candidates
        // the next snapshot purges.
        let other = spec(9, ModelFamily::ResNet18, 16);
        cache.admit(&oracle, other, PolicyJob::simple(other.id, 100.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, 1 + 2);
        let last = cache.len() - 1;
        let c = cache.class_of[last];
        let degree = |cache: &SnapshotCache| {
            let touches = |x: &&Candidate| x.ca == c || x.cb == c;
            cache.store.cands.iter().filter(touches).count()
        };
        assert!(degree(&cache) >= 1, "ResNet-18 pairs with nothing");
        assert_eq!(cache.candidate_count(), 10 + 5);
        let before = entries(&cache.store);
        cache.remove(last);
        assert_eq!(entries(&cache.store), before, "remove touched the store");
        assert_eq!(cache.candidate_count(), 10);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 10));
        assert_eq!(degree(&cache), 0);
    }

    /// What a candidate must hold: the score and row of its class pair's
    /// stand-ins, the member of `ca` in each cell's `a`.
    fn fresh_candidate(
        cache: &SnapshotCache,
        oracle: &Oracle,
        c: &Candidate,
    ) -> (f64, [PairThroughput; WIDTH]) {
        let rep = |c: u32| cache.classes[c as usize].rep;
        let (a, b) = (rep(c.ca), rep(c.cb));
        let (score, row) = match cache.estimator() {
            Some(bridge) => pair_row(oracle, &a, &b, &|x: &JobSpec, y: &JobSpec, g| {
                bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
            }),
            None => pair_row(oracle, &a, &b, &|x: &JobSpec, y: &JobSpec, g| {
                oracle.colocated(x.config, y.config, g)
            }),
        };
        (score, if b.id < a.id { swapped(row) } else { row })
    }

    /// A class emptied and its handle taken over by a new configuration
    /// before the next snapshot: the handle is dirty then, so the purge
    /// drops the old class's candidates and their rows, and nothing stale
    /// is scored, selected or served.
    #[test]
    fn a_reused_class_handle_leaves_no_stale_candidate_or_row() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        // Six jobs of six configurations: each class has one member.
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let victim = (0..cache.len() as u32)
            .find(|&j| cache.selected.iter().any(|p| p.i == j || p.k == j))
            .expect("some selected pair") as usize;
        let c = cache.class_of[victim];
        let old = cache.specs()[victim].config;

        cache.remove(victim);
        let s = spec_nth(100, 20);
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        let last = cache.len() - 1;
        assert_eq!(cache.class_of[last], c, "the freed handle is reused");
        assert_ne!(s.config, old);
        let evals = cache.stats().pair_evals;
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        // The new class is scored against the five others and itself, and
        // every candidate on its handle carries the new configuration's
        // score and row.
        assert_eq!(cache.stats().pair_evals, evals + 6);
        let rep = |c: u32| cache.classes[c as usize].rep;
        let mut held = 0;
        for x in cache.store.cands.iter().filter(|x| x.ca == c || x.cb == c) {
            assert_eq!(x.cb, c, "the class scored last is the candidate's second");
            assert_eq!((x.score, x.row), fresh_candidate(&cache, &oracle, x));
            assert_ne!(rep(x.cb).config, old);
            held += 1;
        }
        assert!(held > 0, "the new class pairs with nothing");
        // No row the old class scored is left anywhere in the store.
        for x in &cache.store.cands {
            assert_eq!((x.score, x.row), fresh_candidate(&cache, &oracle, x));
        }
    }

    /// Under the oracle an arrival whose configuration is resident joins
    /// its class: nothing is scored, and the next snapshot still equals
    /// the fresh build.
    #[test]
    fn an_arrival_of_a_resident_configuration_scores_nothing() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for i in 0..12u64 {
            let s = spec_nth(i, i as usize % 4 * 5);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        // Four classes, each scored against the earlier ones and itself.
        assert_eq!(cache.stats().pair_evals, 4 * 5 / 2);
        let classes = cache.class_pair_count();
        for (step, &i) in [3usize, 0, 7, 5].iter().enumerate() {
            cache.remove(i);
            let s = spec_nth(100 + step as u64, step * 5);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_matches_fresh(&mut cache, &oracle, Some(opts));
        }
        assert_eq!(cache.stats().pair_evals, 10);
        assert_eq!(cache.class_pair_count(), classes);
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
        // Five configurations: each class meets the others and itself.
        assert_eq!(cache.stats().pair_evals, 5 * 6 / 2);

        // Admit A, remove resident R, snapshot: A's class meets the four
        // classes left besides its own and itself, and (A, R) is never
        // scored.
        let a = spec_nth(5, 16);
        cache.admit(&oracle, a, PolicyJob::simple(a.id, 100.0));
        cache.remove(1);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, 15 + 5);
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
    /// the lowest-scoring tie group. Walking every tie group selects
    /// exactly what `rank_and_cap` selects (crosschecked) and the fresh
    /// builder keeps.
    #[test]
    fn walking_past_the_last_selectable_tie_group_selects_nothing_more() {
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
            .map(|p| store.cands[p.slot as usize].score)
            .fold(f64::INFINITY, f64::min);
        let mut scores: Vec<f64> = store.cands.iter().map(|c| c.score).collect();
        scores.dedup();
        let below = scores.iter().filter(|&&s| s < lowest_selected).count();
        assert!(below >= 3, "{below} tie groups below the last selection");
        assert_eq!(cache.stats().buckets_walked, scores.len());
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

    /// Asserts that `store`'s selection over jobs of classes `class_of`
    /// (handles below `classes`) equals the flat ranking of the expanded
    /// job pairs at every cap from 1 to 5; returns the pairs selected at
    /// cap 1.
    fn assert_selects_flat(store: &mut PairStore, class_of: &[u32], classes: usize) -> usize {
        let mut out = Vec::new();
        let mut selected_at_one = 0;
        for cap in 1..=5 {
            let mut stats = SnapshotStats::default();
            store.select(class_of, classes, cap, &mut stats, &mut out);
            let walked: Vec<_> = out.iter().map(|p| (p.i, p.k, p.slot)).collect();
            assert_eq!(
                walked,
                store.flat_selection(class_of, classes, cap),
                "cap {cap}, classes {class_of:?}"
            );
            if cap == 1 {
                selected_at_one = out.len();
            }
        }
        selected_at_one
    }

    /// Ties across class pairs: the oracle's class-pair scores are all
    /// distinct, and the estimator's one-job classes tie only where two
    /// estimates coincide, so this builds them by hand. Classes of one and
    /// of many members, a class paired with itself, and `swap_remove`
    /// churn that moves members between positions all select what the
    /// flat ranking of the job pairs does.
    #[test]
    fn tie_groups_select_what_the_flat_ranking_selects() {
        let mut store = PairStore::default();
        // Class 0 has four members, 1 and 2 two each, 3 and 4 one each.
        let mut class_of = vec![0, 1, 0, 2, 0, 1, 3, NONE32, 0, 2, 4];
        for (a, b, score) in [
            (0, 1, 1.5),
            (0, 0, 1.5),
            (2, 3, 1.5),
            (1, 4, 1.5),
            (0, 2, 1.5),
            (1, 1, 1.25),
            (3, 4, 1.25),
            (0, 3, 1.25),
            (2, 4, 2.0),
            (2, 2, 1.5 + f64::EPSILON),
        ] {
            store.push(a, b, score, [PairThroughput::zero(); WIDTH]);
        }
        store.merge();
        assert!(assert_selects_flat(&mut store, &class_of, 5) > 0);
        // Completions move the last job into the freed position.
        for i in [1, 0, 4] {
            class_of.swap_remove(i);
            assert_selects_flat(&mut store, &class_of, 5);
        }
        // Arrivals join classes at the end of the job vector.
        class_of.extend([3, 1, 0, 4, 4]);
        assert_selects_flat(&mut store, &class_of, 5);

        // Random class assignments, few distinct scores and churn: the
        // tie group shapes the hand-built case does not reach.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..200 {
            let classes = rng.gen_range(1..6u32);
            let mut store = PairStore::default();
            for a in 0..classes {
                for b in a..classes {
                    if rng.gen_bool(0.7) {
                        let score = [1.0, 1.25, 1.5][rng.gen_range(0..3usize)];
                        let (x, y) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                        store.push(x, y, score, [PairThroughput::zero(); WIDTH]);
                    }
                }
            }
            store.merge();
            let n = rng.gen_range(0..14);
            let mut class_of: Vec<u32> = (0..n)
                .map(|_| match rng.gen_bool(0.1) {
                    true => NONE32,
                    false => rng.gen_range(0..classes),
                })
                .collect();
            for _ in 0..3 {
                assert_selects_flat(&mut store, &class_of, classes as usize);
                if !class_of.is_empty() {
                    class_of.swap_remove(rng.gen_range(0..class_of.len()));
                }
            }
        }
    }

    /// Random admit, remove and drift steps under both pair sources:
    /// every row is derived with its score, so the rows derived equal the
    /// candidates merged, every candidate's row is its class pair's, and a
    /// snapshot that merges nothing derives nothing, whatever its
    /// selection pass picks.
    #[test]
    fn a_candidate_carries_the_row_of_its_score() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let oracle = Oracle::new();
        // A tight cap: pairs drop out of the selection and come back.
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 3,
        };
        for estimated in [false, true] {
            let mut cache = match estimated {
                true => estimated_cache(&oracle, opts, 21),
                false => SnapshotCache::new(true, Some(opts)),
            };
            let mut rng = StdRng::seed_from_u64(46);
            let mut reselected_without_merge = 0;
            for step in 0..600u64 {
                let n = cache.len();
                if n < 2 || (n < 40 && rng.gen_bool(0.55)) {
                    let s = spec_nth(step, rng.gen_range(0..26));
                    cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
                } else if estimated && rng.gen_bool(0.3) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b {
                        observe(&mut cache, &oracle, a, b);
                    }
                } else {
                    cache.remove(rng.gen_range(0..n));
                }
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let before = cache.stats();
                if step % 16 == 0 {
                    match estimated {
                        true => assert_bridged_matches_fresh(&mut cache, &oracle, opts),
                        false => assert_matches_fresh(&mut cache, &oracle, Some(opts)),
                    }
                } else {
                    cache.snapshot(&oracle);
                }
                let after = cache.stats();
                assert_eq!(
                    after.pair_rows_materialized, after.candidates_sorted,
                    "step {step}"
                );
                if after.candidates_sorted == before.candidates_sorted
                    && after.bucketed_selections > before.bucketed_selections
                {
                    reselected_without_merge += 1;
                    assert_eq!(after.pair_rows_materialized, before.pair_rows_materialized);
                }
                for c in &cache.store.cands {
                    assert_eq!((c.score, c.row), fresh_candidate(&cache, &oracle, c));
                }
            }
            assert!(reselected_without_merge > 0, "estimated: {estimated}");
        }
    }

    /// Two configurations whose first members give `ca` the lower id,
    /// then a job pair in which the member of `cb` holds it: the served
    /// row is the stored one with its cells swapped, and equals the fresh
    /// build's.
    #[test]
    fn a_swapped_pair_serves_swapped_cells() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let all = JobConfig::all();
        let at = |id: u64, config: JobConfig| JobSpec {
            id: JobId(id),
            config,
            scale_factor: 1,
        };
        // A pair that is kept and whose two cells differ somewhere, so a
        // missed swap shows.
        let colocated = |x: &JobSpec, y: &JobSpec, g| oracle.colocated(x.config, y.config, g);
        let (x, y) = (all.iter())
            .flat_map(|&x| all.iter().map(move |&y| (x, y)))
            .find(|&(x, y)| {
                let (score, row) = pair_row(&oracle, &at(1, x), &at(2, y), &colocated);
                x != y && score >= opts.min_aggregate && row.iter().any(|c| c.a != c.b)
            })
            .expect("an asymmetric pair above the threshold");
        let mut cache = SnapshotCache::new(true, Some(opts));
        cache.set_crosscheck(true);
        for s in [at(1, x), at(2, y)] {
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let c = cache.store.cands[cache.selected[0].slot as usize];
        assert_eq!(
            (c.ca, c.cb),
            (cache.class_of[0], cache.class_of[1]),
            "the first member of `ca` holds the lower id"
        );
        // Job 3 of `x` replaces job 1: now `cb`'s member, job 2, holds the
        // lower id. Nothing is re-scored.
        cache.admit(&oracle, at(3, x), PolicyJob::simple(JobId(3), 100.0));
        cache.remove(0);
        let merged = cache.stats().candidates_sorted;
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().candidates_sorted, merged);
        assert_eq!(cache.specs()[0].id, JobId(3));
        let p = cache.selected[0];
        assert_eq!(cache.store.cands[p.slot as usize].row, c.row);
        assert_eq!(cache.served_row(&p), swapped(c.row));
        let (_, tensor) = cache.snapshot(&oracle);
        let fresh = build_tensor_with_pairs(&oracle, cache.specs(), true, &opts).1;
        assert_eq!(tensor.row(2), fresh.row(2));
        assert_ne!(tensor.row(2), &c.row[..]);
    }

    /// A refined job's candidates are purged before the snapshot that
    /// follows, and their rows go with them: what that snapshot serves
    /// for the job is derived from the refined estimates, and the only
    /// rows it derives are the refined jobs' re-scored candidates'.
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
        cache.snapshot(&oracle);
        let stale = cache.store.cands.clone();

        let refined = observe(&mut cache, &oracle, 2, 7);
        let refined_classes = [2, 7].map(|j| cache.class_of[j]);
        let touches = |c: &Candidate| refined_classes.iter().any(|&r| r == c.ca || r == c.cb);

        let materialized = cache.stats().pair_rows_materialized;
        let (after, _) = cache.snapshot(&oracle);
        let served = (after.combos().iter())
            .filter(|c| c.is_pair() && refined.iter().any(|&j| c.contains(j)))
            .count();
        assert!(served > 0, "the refined jobs are in no selected pair");
        // The rows derived are exactly the refined jobs' re-scored
        // candidates, each with its score; the others keep theirs.
        let rescored = cache.store.cands.iter().filter(|c| touches(c)).count();
        assert!(rescored > 0);
        assert_eq!(
            cache.stats().pair_rows_materialized - materialized,
            rescored
        );
        for c in cache.store.cands.iter().filter(|c| touches(c)) {
            assert_eq!((c.score, c.row), fresh_candidate(&cache, &oracle, c));
        }
        let kept = |c: &Candidate| (c.ca, c.cb, c.score.to_bits(), c.row);
        let untouched: Vec<_> = stale.iter().filter(|c| !touches(c)).map(kept).collect();
        let now: Vec<_> = cache
            .store
            .cands
            .iter()
            .filter(|c| !touches(c))
            .map(kept)
            .collect();
        assert_eq!(untouched, now);
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
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
        // A clean recompute (no drift, no churn) evaluates no pair and
        // derives no row: it is one selection pass and the assembly, and
        // must also match.
        let before = cache.stats();
        assert_bridged_matches_fresh(&mut cache, &oracle, opts);
        let after = cache.stats();
        assert_eq!(
            after,
            SnapshotStats {
                bridged_snapshots: before.bridged_snapshots + 1,
                bucketed_selections: before.bucketed_selections + 1,
                flat_reranks: before.flat_reranks + 1,
                buckets_walked: after.buckets_walked,
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
