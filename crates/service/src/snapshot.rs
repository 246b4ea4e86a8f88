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
//! selecting pair rows through the score-bucketed store below. Pair
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
//! [`SnapshotCache::snapshot`] scores the classes the events since the
//! last one dirtied.
//!
//! 1. *Dirty classes.* A class is dirty when `admit` creates it — an
//!    arrival whose configuration is already resident under the oracle
//!    joins its class and dirties nothing. A class whose last member
//!    leaves before the next snapshot is freed and never scored. Oracle
//!    throughputs never change, so an oracle-backed cache's dirty classes
//!    are new ones only. Estimates drift as the estimator refines
//!    ([`SnapshotCache::observe`]), so an estimator-backed snapshot first
//!    flags the classes of the jobs the estimator lists as refined since
//!    the last drain ([`EstimatorBridge::take_dirty`]).
//! 2. *Unlink.* Every candidate touching a dirty class leaves the store
//!    through the per-class reverse index (O(degree)). A candidate that
//!    had materialized rows gives them back to the row slab as it is
//!    unlinked, so a row never outlives the score it was derived with —
//!    the same path frees an emptied class's rows in `remove`. A
//!    completion that leaves its class non-empty unlinks nothing, so under
//!    the oracle `admit` and `remove` are O(1).
//! 3. *Re-score.* Each dirty class is scored once against every live
//!    class — itself included when a class can hold more than one job —
//!    O(|dirty| · K) evaluations over K live classes, and the pairs that
//!    clear `min_aggregate` are inserted ([`SnapshotStats::pair_evals`]).
//! 4. *Reselect.* If anything was admitted, removed or re-scored since
//!    the last pass, the bucketed selection runs again; otherwise the
//!    memoized selection stands and the snapshot is a pure assembly.
//! 5. *Lazy rows.* The store keeps only scores; rows are derived from the
//!    pair source just for the class pairs the selection picks, into a
//!    free-listed slab inside the store — one row per class pair and
//!    *orientation*, which class holds the lower `JobId` of the job pair
//!    (`Combo::pair` orders a pair by id, so the two orientations' rows
//!    hold the same throughputs in swapped cells; the store keeps both
//!    rather than assume it). A selected job pair copies its class pair's
//!    row of its orientation. A candidate's slot addresses its rows
//!    directly (`Slot::row`, no map), so a class pair that stays selected
//!    and clean is never derived twice. Two things free a row: unlinking
//!    its slot (step 2), and a selection pass that picked that class pair
//!    and orientation last time and does not pick it now — one that later
//!    returns to the selection is derived again
//!    ([`SnapshotStats::pair_rows_materialized`] counts derivations). A
//!    slot taken from the free list starts without rows.
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
//! admit/complete/refine interleavings. That rests on a class pair's
//! score not depending on which of its jobs holds the lower id, which
//! `gavel-workloads` pins for every pair of Table 2 configurations. Debug
//! builds also re-derive every score and row a snapshot serves and assert
//! they equal the cached ones, so drift the dirty classes failed to
//! report cannot go unnoticed.
//!
//! # The score-bucketed candidate store
//!
//! [`PairStore`] keeps its class-pair candidates in coarse *score
//! buckets*: every candidate lives in the bucket named by the top
//! [`BUCKET_SHIFT`]-truncated bits of its score's IEEE-754 pattern (an
//! exponent-plus-leading-mantissa bin), so bucket order *is* score order
//! and a candidate's bucket never depends on any other candidate. Churn
//! is local: a scored class pair is inserted into its bucket in O(1), and
//! an emptied or drifted class's candidates are unlinked in O(degree),
//! without invalidating a global order. Under the oracle the store holds
//! at most K(K+1)/2 candidates for K resident configurations; with
//! one-job classes (the estimator) it holds one per above-threshold job
//! pair, ~n²/2.
//!
//! **Selection.** A pass first lists each class's members in position
//! order (one O(n) pass over the jobs) and keeps, per class, a linked
//! list of the members still under the per-job pair cap. It then walks
//! the buckets in descending score order. Inside each bucket it *filters*
//! the class pairs down to those whose classes still have uncapped
//! members — cap counts only grow during a pass, so a pair filtered out
//! here could never be selected later — and sorts the survivors by exact
//! score. Each run of exactly equal scores is one *tie group*, usually a
//! single class pair. Inside a tie group the pass enumerates job pairs
//! `(i, k)`, `i < k`, in position order over the uncapped members of the
//! group's classes: the lower member `i` in position order, then its
//! partners above it in position order. A member that reaches the cap
//! leaves its class's list at once, so every pair the enumeration reaches
//! has both endpoints uncapped and is selected. A pass reads O(class
//! pairs + uncapped members + selections), not O(job pairs); it has no
//! early exit across buckets (ROADMAP, "Measured and rejected").
//!
//! **Tie-break contract.** The fresh builder ranks job-pair candidates
//! through [`rank_and_cap`]: score descending, then the pair's (i, k)
//! positions *in the current job vector* — positions change as
//! completions `swap_remove` jobs — and the greedy per-job cap applied in
//! that order. The key depends on scores and positions only — never on
//! slot ids or insertion order — which is why unlinking and re-inserting
//! a drifted class's candidates selects exactly what a fresh enumeration
//! would. Bucket ids are a prefix of the score bits, so the descending
//! bucket walk refines into descending score; a tie group holds every job
//! pair of that score, and its enumeration is the (i, k) order. In debug
//! builds, or wherever [`SnapshotCache::set_crosscheck`] turns it on,
//! every selection pass expands the live class pairs into their job pairs,
//! re-ranks them through [`rank_and_cap`] and asserts the two selections
//! equal, set and order.

use crate::estimate::EstimatorBridge;
use gavel_core::{Combo, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
use gavel_workloads::{
    pair_row, rank_and_cap, singleton_row, GpuKind, JobConfig, JobSpec, Oracle, PairOptions,
};
use std::collections::{BTreeMap, HashMap};

/// Right-shift applied to a score's IEEE-754 bits to name its bucket.
/// Keeping the top 24 bits (sign, exponent, 12 mantissa bits) yields a
/// few hundred buckets over the realistic score range — few enough to
/// walk cheaply, fine enough that contested buckets stay small.
const BUCKET_SHIFT: u32 = 40;

/// Sentinel for "no position / no class / no row / end of list".
const NONE32: u32 = u32::MAX;

/// Entries per throughput row.
const WIDTH: usize = GpuKind::COUNT;

/// A class-pair candidate slot in the bucketed store. Endpoints are class
/// handles (a class paired with itself has `ca == cb`); `la`/`lb`/
/// `bucket_pos` are backpointers into the two per-class slot lists (one
/// list, `la`, for a self pair) and the bucket vector, so unlinking is
/// O(1) per reference.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ca: u32,
    cb: u32,
    /// Index of this slot in `class_slots[ca]` / `class_slots[cb]`.
    la: u32,
    lb: u32,
    /// Index of this slot in its bucket's vector.
    bucket_pos: u32,
    /// This class pair's row in `PairStore::rows` per orientation: index
    /// 0 when the job of `ca` holds the lower `JobId`, 1 when the job of
    /// `cb` does ([`NONE32`]: not materialized).
    row: [u32; 2],
    score: f64,
}

// The estimator's one-job classes still store a slot per above-threshold
// job pair, ~n²/2 of them, so anything added here is paid that often.
const _: () = assert!(std::mem::size_of::<Slot>() == 40);

/// A bucket-resident copy of a slot's selection-relevant fields. The
/// selection pass streams entire buckets; carrying the endpoints and
/// score inline keeps that scan sequential (the slot slab is only
/// touched for backpointer fixups on unlink).
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    slot: u32,
    ca: u32,
    cb: u32,
    /// Mirrors `Slot::score`.
    score: f64,
}

/// One selected job pair: positions `i < k` in the job vector, the slot
/// of their class pair and the orientation of the row it copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    i: u32,
    k: u32,
    slot: u32,
    orient: u32,
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
    /// The contested class pairs of the bucket being walked: (score key,
    /// slot, ca, cb).
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
                    orient: 0,
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

/// The score-bucketed class-pair store (see the module docs), and the
/// slab of rows materialized for the selected class pairs.
#[derive(Debug, Clone, Default)]
struct PairStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Bucket id (top score bits) → entries; iterated high-to-low so
    /// bucket order is descending score order.
    buckets: BTreeMap<u32, Vec<BucketEntry>>,
    /// Per-class slot lists — the reverse index that makes an emptied or
    /// drifted class's unlinking O(degree).
    class_slots: Vec<Vec<u32>>,
    live: usize,
    /// Materialized pair rows, [`WIDTH`] entries each, addressed by
    /// [`Slot::row`]. A slot's rows go back to `free_rows` when the slot
    /// is unlinked or a selection pass does not pick them again.
    rows: Vec<PairThroughput>,
    free_rows: Vec<u32>,
    /// Per slab row, the selection pass that last picked it.
    picked_in: Vec<u32>,
    pass: u32,
    walk: Walk,
}

impl PairStore {
    fn bucket_of(score: f64) -> u32 {
        (score.to_bits() >> BUCKET_SHIFT) as u32
    }

    /// Grows the per-class lists to cover `n` class handles.
    fn ensure_classes(&mut self, n: usize) {
        if self.class_slots.len() < n {
            self.class_slots.resize_with(n, Vec::new);
        }
    }

    fn insert(&mut self, ca: u32, cb: u32, score: f64) -> u32 {
        debug_assert!(
            score >= 0.0 && score.is_finite(),
            "bucketed candidate scores must be nonnegative finite, got {score}"
        );
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    ca: NONE32,
                    cb: NONE32,
                    la: 0,
                    lb: 0,
                    bucket_pos: 0,
                    row: [NONE32; 2],
                    score: 0.0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let bvec = self.buckets.entry(Self::bucket_of(score)).or_default();
        let bucket_pos = bvec.len() as u32;
        bvec.push(BucketEntry {
            slot: s,
            ca,
            cb,
            score,
        });
        let la = self.class_slots[ca as usize].len() as u32;
        self.class_slots[ca as usize].push(s);
        let lb = match ca == cb {
            true => la,
            false => {
                self.class_slots[cb as usize].push(s);
                self.class_slots[cb as usize].len() as u32 - 1
            }
        };
        self.slots[s as usize] = Slot {
            ca,
            cb,
            la,
            lb,
            bucket_pos,
            row: [NONE32; 2],
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

    /// Unlinks `s` from class `c`'s slot list.
    fn unlink_class(&mut self, c: u32, list_pos: u32, s: u32) {
        let list = &mut self.class_slots[c as usize];
        let p = list_pos as usize;
        debug_assert_eq!(list[p], s);
        list.swap_remove(p);
        if p < list.len() {
            let msl = &mut self.slots[list[p] as usize];
            debug_assert!(msl.ca == c || msl.cb == c);
            if msl.ca == c {
                msl.la = p as u32;
            }
            if msl.cb == c {
                msl.lb = p as u32;
            }
        }
    }

    fn remove_slot(&mut self, s: u32) {
        let sl = self.slots[s as usize];
        debug_assert_ne!(sl.ca, NONE32, "double free of slot {s}");
        self.unlink_bucket(s);
        self.unlink_class(sl.ca, sl.la, s);
        if sl.cb != sl.ca {
            self.unlink_class(sl.cb, sl.lb, s);
        }
        self.release_row(s, 0);
        self.release_row(s, 1);
        self.slots[s as usize].ca = NONE32;
        self.free.push(s);
        self.live -= 1;
    }

    /// Drops every candidate touching class `c` — O(degree).
    fn remove_class(&mut self, c: u32) {
        while let Some(&s) = self.class_slots[c as usize].last() {
            self.remove_slot(s);
        }
    }

    /// Slot `s`'s materialized row of orientation `orient`.
    fn row(&self, s: u32, orient: u32) -> &[PairThroughput] {
        let r = self.slots[s as usize].row[orient as usize];
        debug_assert_ne!(r, NONE32, "slot {s} has no row of orientation {orient}");
        &self.rows[r as usize * WIDTH..][..WIDTH]
    }

    /// Opens a selection pass: rows the pass does not [`Self::pick`] are
    /// up for [`Self::release_unpicked`].
    fn begin_pass(&mut self) {
        self.pass = self.pass.wrapping_add(1);
    }

    /// Marks slot `s`'s row of orientation `orient` picked by the current
    /// pass, giving it a slab row filled by `materialize` unless it still
    /// holds one from an earlier pass.
    fn pick(&mut self, s: u32, orient: u32, materialize: impl FnOnce() -> [PairThroughput; WIDTH]) {
        let mut r = self.slots[s as usize].row[orient as usize];
        if r == NONE32 {
            r = self.free_rows.pop().unwrap_or_else(|| {
                self.rows
                    .resize(self.rows.len() + WIDTH, PairThroughput::zero());
                self.picked_in.push(0);
                (self.picked_in.len() - 1) as u32
            });
            self.rows[r as usize * WIDTH..][..WIDTH].copy_from_slice(&materialize());
            self.slots[s as usize].row[orient as usize] = r;
        }
        self.picked_in[r as usize] = self.pass;
    }

    /// Frees the rows of slot `s` an earlier pass picked and the current
    /// one did not. `s` may since have been unlinked, or unlinked and
    /// reused: either way it lost its rows then, and holds one now only if
    /// this pass picked it.
    fn release_unpicked(&mut self, s: u32) {
        for orient in 0..2 {
            let r = self.slots[s as usize].row[orient];
            if r != NONE32 && self.picked_in[r as usize] != self.pass {
                self.release_row(s, orient);
            }
        }
    }

    /// Returns slot `s`'s row of orientation `orient`, if it has one, to
    /// the free list.
    fn release_row(&mut self, s: u32, orient: usize) {
        let r = std::mem::replace(&mut self.slots[s as usize].row[orient], NONE32);
        if r != NONE32 {
            self.free_rows.push(r);
        }
    }

    fn live_slots(&self) -> impl Iterator<Item = (u32, &Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, sl)| sl.ca != NONE32)
            .map(|(s, sl)| (s as u32, sl))
    }

    /// The bucketed selection pass (see the module docs): leaves the
    /// selected job pairs in `selected`, in emission order —
    /// bit-identical to the flat [`rank_and_cap`] over the job-level
    /// candidates of the same store.
    fn select(
        &mut self,
        class_of: &[u32],
        cap: usize,
        stats: &mut SnapshotStats,
        selected: &mut Vec<Pick>,
    ) {
        selected.clear();
        if cap == 0 || self.live == 0 {
            return;
        }
        let cap = cap.min(u32::MAX as usize) as u32;
        let walk = &mut self.walk;
        walk.index(class_of, self.class_slots.len());
        let mut survivors = std::mem::take(&mut walk.survivors);
        for bucket in self.buckets.values().rev() {
            stats.buckets_walked += 1;
            survivors.clear();
            // Cap counts only grow within a pass, so a class pair without
            // an uncapped member on each side here can never be selected:
            // filtering it out before the sort is exact.
            for e in bucket {
                let (a, b) = (walk.uncapped[e.ca as usize], walk.uncapped[e.cb as usize]);
                if a > (e.ca == e.cb) as u32 && b > 0 {
                    survivors.push((!e.score.to_bits(), e.slot, e.ca, e.cb));
                }
            }
            stats.candidates_sorted += survivors.len();
            survivors.sort_unstable();
            for group in survivors.chunk_by(|x, y| x.0 == y.0) {
                walk.select_group(group, cap, selected);
            }
        }
        walk.survivors = survivors;
    }

    /// What [`Self::select`] must select: the flat [`rank_and_cap`] over
    /// the job pairs of every live class pair, given each job's class
    /// (`class_of`), as (i, k, slot).
    fn flat_selection(&self, class_of: &[u32], cap: usize) -> Vec<(u32, u32, u32)> {
        let mut members = vec![Vec::new(); self.class_slots.len()];
        for (p, &c) in class_of.iter().enumerate().filter(|&(_, &c)| c != NONE32) {
            members[c as usize].push(p as u32);
        }
        let mut job_pairs = Vec::new();
        for (s, sl) in self.live_slots() {
            let (a, b) = (&members[sl.ca as usize], &members[sl.cb as usize]);
            for (x, &i) in a.iter().enumerate() {
                // A class paired with itself: each two members once.
                let partners = if sl.ca == sl.cb { &b[x + 1..] } else { &b[..] };
                job_pairs.extend(partners.iter().map(|&k| {
                    let (i, k) = (i.min(k), i.max(k));
                    (i, k, sl.score, (i, k, s))
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
    /// Bucketed selection passes.
    pub bucketed_selections: usize,
    /// Buckets visited across all bucketed selection passes.
    pub buckets_walked: usize,
    /// Class pairs sorted by exact score inside contested buckets, across
    /// all passes.
    pub candidates_sorted: usize,
    /// Crosscheck re-ranks: bucketed selections re-run through the flat
    /// [`rank_and_cap`] over the store's job-level candidates, whatever
    /// the pair source. Zero unless crosschecking is on; Figure 12 gates
    /// on that.
    pub flat_reranks: usize,
    /// Pair rows materialized for newly selected class pairs and
    /// orientations.
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
    /// Classes flagged dirty since the last snapshot; an entry whose flag
    /// is clear was freed (or listed twice) and is skipped.
    dirty: Vec<u32>,
    store: PairStore,
    /// Memoized selection (job pairs in emission order), valid while no
    /// admit/remove/drift has happened since it was computed — so
    /// cadence-driven recomputes over an unchanged job set skip the
    /// selection pass entirely.
    selected: Vec<Pick>,
    selection_dirty: bool,
    /// The selection before `selected`; its slot ids may be stale. Read
    /// once per reselection, to release the rows that dropped out.
    deselected: Vec<Pick>,
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
            class_of: Vec::new(),
            classes: Vec::new(),
            free_classes: Vec::new(),
            by_config: HashMap::new(),
            dirty: Vec::new(),
            store: PairStore::default(),
            selected: Vec::new(),
            selection_dirty: true,
            deselected: Vec::new(),
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

    /// Enables (or disables) crosschecking every bucketed selection
    /// against the flat [`rank_and_cap`] differential oracle, which a new
    /// cache does in debug builds only.
    pub fn set_crosscheck(&mut self, on: bool) {
        self.crosscheck = on;
    }

    /// Number of live job-pair candidates: every job pair of every class
    /// pair in the store, counted from the class sizes.
    pub fn candidate_count(&self) -> usize {
        let size = |c: u32| self.classes[c as usize].size as usize;
        (self.store.live_slots())
            .map(|(_, sl)| match sl.ca == sl.cb {
                true => size(sl.ca) * size(sl.ca).saturating_sub(1) / 2,
                false => size(sl.ca) * size(sl.cb),
            })
            .sum()
    }

    /// Number of class-pair candidates the store holds: under the oracle
    /// at most K(K+1)/2 for K resident single-worker configurations.
    pub fn class_pair_count(&self) -> usize {
        self.store.live
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
                self.store.ensure_classes(self.classes.len());
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
    /// engine's active vector). If it was the last member of its class,
    /// the class's candidates — and with them their materialized rows —
    /// leave through the per-class reverse index: O(degree), not
    /// O(|candidates|); otherwise nothing is unlinked. The estimator
    /// forgets the job.
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
                self.store.remove_class(c);
                if self.estimator.is_none() {
                    self.by_config.remove(&spec.config);
                }
                self.free_classes.push(c);
            }
        }
        self.selection_dirty = true;
        self.stats.rows_dropped += 1;
    }

    /// Drains the dirty classes: unlinks each one's candidates and scores
    /// it once against every live class — the clean ones, the dirty ones
    /// already re-scored and, where a class can hold several jobs
    /// (`self_pairs`), itself; the dirty ones still to come score against
    /// it in their turn — inserting the pairs that clear `min_aggregate`.
    /// The one place candidates are born.
    fn rescore(
        &mut self,
        oracle: &Oracle,
        min_aggregate: f64,
        self_pairs: bool,
        pair_fn: &impl Fn(&JobSpec, &JobSpec, GpuKind) -> Option<(f64, f64)>,
    ) {
        for t in 0..self.dirty.len() {
            let c = self.dirty[t];
            if !self.classes[c as usize].dirty {
                continue;
            }
            self.classes[c as usize].dirty = false;
            self.store.remove_class(c);
            let rep = self.classes[c as usize].rep;
            for (d, other) in self.classes.iter().enumerate() {
                if other.size == 0 || other.dirty || (d == c as usize && !self_pairs) {
                    continue;
                }
                let score = pair_row(oracle, &other.rep, &rep, pair_fn).0;
                self.stats.pair_evals += 1;
                if score >= min_aggregate {
                    self.store.insert(d as u32, c, score);
                }
            }
            self.selection_dirty = true;
        }
        self.dirty.clear();
    }

    /// Brings the selection up to date: if anything was admitted, removed
    /// or re-scored since the last pass, runs the selection pass — the
    /// bucketed walk, re-run through the flat [`rank_and_cap`] and
    /// asserted identical when crosschecking — then brings the row slab
    /// in line with it: a picked class pair and orientation without a row
    /// gets one from `pair_fn`, one the previous pass picked and this one
    /// did not gives its row back.
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
            .select(&self.class_of, cap, &mut self.stats, &mut self.selected);
        if self.crosscheck {
            self.stats.flat_reranks += 1;
            let bucketed: Vec<_> = (self.selected.iter()).map(|p| (p.i, p.k, p.slot)).collect();
            assert_eq!(
                bucketed,
                self.store.flat_selection(&self.class_of, cap),
                "bucketed selection diverged from the flat rank_and_cap oracle"
            );
        }
        self.store.begin_pass();
        for p in &mut self.selected {
            let (a, b) = (self.specs[p.i as usize], self.specs[p.k as usize]);
            let sl = &self.store.slots[p.slot as usize];
            // Orientation 1: the job of `cb` holds the lower id.
            let a_in_ca = self.class_of[p.i as usize] == sl.ca;
            p.orient = (sl.ca != sl.cb && (a.id < b.id) != a_in_ca) as u32;
            let materialized = &mut self.stats.pair_rows_materialized;
            self.store.pick(p.slot, p.orient, || {
                *materialized += 1;
                pair_row(oracle, &a, &b, pair_fn).1
            });
        }
        for p in &self.deselected {
            self.store.release_unpicked(p.slot);
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
        for p in &self.selected {
            let (a, b) = (self.specs[p.i as usize], self.specs[p.k as usize]);
            combos.push(Combo::pair(a.id, b.id));
            entries.extend_from_slice(self.store.row(p.slot, p.orient));
        }
        (
            ComboSet::new(combos),
            ThroughputTensor::from_flat(WIDTH, entries),
        )
    }

    /// Assembles the current snapshot: drains the dirty classes — with an
    /// estimator, after adding the classes of the jobs it refined since
    /// the last call — and reselects if anything changed (see the module
    /// docs for the invalidation protocol).
    ///
    /// Row-for-row identical to `build_tensor_with_pairs(oracle, specs,
    /// consolidated, opts)`, to `build_tensor_with_pairs_by(.., |a, b, g|
    /// bridge.pair_throughput(..))` at the estimator's current state, or
    /// to `build_singleton_tensor` without pairs, over the current job
    /// vector; the pair source is consulted only to score dirty classes
    /// and to materialize rows for newly selected class pairs.
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
            self.reselect(oracle, opts.max_pairs_per_job, &pair_fn);
            // A score or row the dirty classes failed to invalidate must
            // not be served silently.
            debug_assert!(
                self.selected.iter().all(|p| {
                    let (a, b) = (self.specs[p.i as usize], self.specs[p.k as usize]);
                    let (score, row) = pair_row(oracle, &a, &b, &pair_fn);
                    let cached = self.store.slots[p.slot as usize].score;
                    (cached, self.store.row(p.slot, p.orient)) == (score, &row[..])
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
        // Six mutually pairable jobs of one configuration: one class
        // paired with itself stands for their 15 job pairs.
        let degree = |cache: &SnapshotCache, i: usize| {
            cache.store.class_slots[cache.class_of[i] as usize].len()
        };
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 15));
        assert_eq!(cache.stats().pair_evals, 1);
        // A completion that leaves its class non-empty unlinks nothing.
        cache.remove(0);
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 10));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));

        // A job of a new configuration: its class meets the A3C class
        // and itself. Its completion empties the class, whose candidates
        // leave through the reverse index.
        let other = spec(9, ModelFamily::ResNet18, 16);
        cache.admit(&oracle, other, PolicyJob::simple(other.id, 100.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, 1 + 2);
        let last = cache.len() - 1;
        let with_other = degree(&cache, last);
        assert!(with_other >= 1, "ResNet-18 pairs with nothing");
        assert_eq!(cache.candidate_count(), 10 + 5);
        cache.remove(last);
        assert_eq!((cache.class_pair_count(), cache.candidate_count()), (1, 10));
        assert_eq!(degree(&cache, 0), 1);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
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
            .map(|p| PairStore::bucket_of(store.slots[p.slot as usize].score))
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

    /// The row slab's bookkeeping: a slot holds a row of an orientation
    /// only while it is linked and the last selection pass picked a job
    /// pair of that class pair and orientation, no two slots share a row,
    /// and every slab row is either held or on the free list. Holds between
    /// a churn step and the next snapshot too, when `selected` still names
    /// slots that have since been unlinked. Returns the rows held.
    fn assert_slab_consistent(cache: &SnapshotCache) -> usize {
        let store = &cache.store;
        let slab_rows = store.rows.len() / WIDTH;
        assert_eq!(store.picked_in.len(), slab_rows);
        let mut accounted = vec![false; slab_rows];
        let mut held = 0;
        for (s, sl) in store.slots.iter().enumerate() {
            for (orient, &r) in sl.row.iter().enumerate() {
                if r == NONE32 {
                    continue;
                }
                assert_ne!(sl.ca, NONE32, "unlinked slot {s} kept its row");
                assert!(
                    (cache.selected.iter())
                        .any(|p| (p.slot, p.orient) == (s as u32, orient as u32)),
                    "slot {s} holds a row no selection gave it"
                );
                assert!(!accounted[r as usize], "row {r} held twice");
                accounted[r as usize] = true;
                held += 1;
            }
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
        store.ensure_classes(3);
        let row = [PairThroughput::pair(1.0, 2.0); WIDTH];
        let s = store.insert(0, 1, 1.5);
        store.begin_pass();
        store.pick(s, 1, || row);
        assert_eq!(store.row(s, 1), row);
        store.remove_slot(s);
        assert_eq!(store.free_rows, [0]);

        let t = store.insert(1, 2, 1.25);
        assert_eq!(t, s, "the free list hands the slot back");
        assert_eq!(store.slots[t as usize].row, [NONE32; 2]);
        // A pass that does not pick it leaves it without one; a pass that
        // does reuses the released slab row.
        store.begin_pass();
        store.release_unpicked(t);
        assert_eq!(store.slots[t as usize].row, [NONE32; 2]);
        store.pick(t, 0, || [PairThroughput::zero(); WIDTH]);
        assert!(store.free_rows.is_empty());
        assert_eq!(store.rows.len(), WIDTH);
        // The other orientation gets a row of its own; a pass that picks
        // only one of them releases the other.
        store.pick(t, 1, || row);
        assert_eq!(store.rows.len(), 2 * WIDTH);
        store.begin_pass();
        store.pick(t, 1, || unreachable!("orientation 1 still holds its row"));
        store.release_unpicked(t);
        assert_eq!(store.slots[t as usize].row[0], NONE32);
        assert_eq!(store.row(t, 1), row);
        assert_eq!(store.free_rows, [0]);
    }

    /// Asserts that `store`'s bucketed selection over jobs of classes
    /// `class_of` equals the flat ranking of the expanded job pairs at
    /// every cap from 1 to 5; returns the pairs selected at cap 1.
    fn assert_selects_flat(store: &mut PairStore, class_of: &[u32]) -> usize {
        let mut out = Vec::new();
        let mut selected_at_one = 0;
        for cap in 1..=5 {
            let mut stats = SnapshotStats::default();
            store.select(class_of, cap, &mut stats, &mut out);
            let bucketed: Vec<_> = out.iter().map(|p| (p.i, p.k, p.slot)).collect();
            assert_eq!(
                bucketed,
                store.flat_selection(class_of, cap),
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
        store.ensure_classes(5);
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
            store.insert(a, b, score);
        }
        assert!(assert_selects_flat(&mut store, &class_of) > 0);
        // Completions move the last job into the freed position.
        for i in [1, 0, 4] {
            class_of.swap_remove(i);
            assert_selects_flat(&mut store, &class_of);
        }
        // Arrivals join classes at the end of the job vector.
        class_of.extend([3, 1, 0, 4, 4]);
        assert_selects_flat(&mut store, &class_of);

        // Random class assignments, few distinct scores and churn: the
        // tie group shapes the hand-built case does not reach.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..200 {
            let classes = rng.gen_range(1..6u32);
            let mut store = PairStore::default();
            store.ensure_classes(classes as usize);
            for a in 0..classes {
                for b in a..classes {
                    if rng.gen_bool(0.7) {
                        let score = [1.0, 1.25, 1.5][rng.gen_range(0..3usize)];
                        let (x, y) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                        store.insert(x, y, score);
                    }
                }
            }
            let n = rng.gen_range(0..14);
            let mut class_of: Vec<u32> = (0..n)
                .map(|_| match rng.gen_bool(0.1) {
                    true => NONE32,
                    false => rng.gen_range(0..classes),
                })
                .collect();
            for _ in 0..3 {
                assert_selects_flat(&mut store, &class_of);
                if !class_of.is_empty() {
                    class_of.swap_remove(rng.gen_range(0..class_of.len()));
                }
            }
        }
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
                let mut rows: Vec<_> = (cache.selected.iter())
                    .map(|p| (p.slot, p.orient))
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(held, rows.len(), "step {step}");
                assert_eq!(cache.selected.len(), combos.len() - cache.len());
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
