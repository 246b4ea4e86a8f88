//! Job combinations — the rows of the allocation matrix.
//!
//! Without space sharing every row of `X` is a single job. With space
//! sharing, rows for pairs of jobs are added (the paper limits combinations
//! to two jobs: larger groups "rarely increase net throughput", §3.1).

use crate::JobId;
use std::sync::Arc;

/// A schedulable unit: one job running alone, or two jobs space-sharing the
/// same accelerator(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    /// First (or only) job.
    pub a: JobId,
    /// Second job when this combo space-shares.
    pub b: Option<JobId>,
}

impl Combo {
    /// A singleton combo for `job`.
    pub fn single(job: JobId) -> Self {
        Combo { a: job, b: None }
    }

    /// A space-sharing pair. The pair is stored in canonical (sorted) order
    /// so `(x, y)` and `(y, x)` compare equal.
    ///
    /// # Panics
    ///
    /// Panics if `x == y`: a job cannot space-share with itself.
    pub fn pair(x: JobId, y: JobId) -> Self {
        assert_ne!(x, y, "a job cannot be paired with itself");
        if x < y {
            Combo { a: x, b: Some(y) }
        } else {
            Combo { a: y, b: Some(x) }
        }
    }

    /// Whether this combo contains `job`.
    pub fn contains(&self, job: JobId) -> bool {
        self.a == job || self.b == Some(job)
    }

    /// Whether this combo is a space-sharing pair.
    pub fn is_pair(&self) -> bool {
        self.b.is_some()
    }

    /// Iterator over the jobs in this combo (one or two).
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        std::iter::once(self.a).chain(self.b)
    }
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.b {
            None => write!(f, "{}", self.a),
            Some(b) => write!(f, "({}, {})", self.a, b),
        }
    }
}

/// An ordered set of combos together with a reverse index from jobs to the
/// combo rows containing them (the paper's `C_m`), built once when the set
/// is and shared by clones. A job's *slot* is its position among the
/// distinct jobs, ascending ([`ComboSet::jobs`]); the index holds each
/// slot's rows, ascending, and each row's member slots.
///
/// Two constructors build it. [`ComboSet::with_pairs`] takes what every
/// producer of policy inputs emits — one singleton per job, then pairs of
/// those jobs by position — and sorts only the job ids. [`ComboSet::new`]
/// takes combos in any order, pair-only sets included, for sets built by
/// hand.
#[derive(Debug, Clone, Default)]
pub struct ComboSet(Arc<Index>);

#[derive(Debug, Default)]
struct Index {
    combos: Vec<Combo>,
    /// The distinct jobs, ascending; a job's slot is its position.
    jobs: Vec<JobId>,
    /// Slot `s`'s rows are `rows[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Each slot's rows, ascending, slot after slot.
    rows: Vec<u32>,
    /// Per row, its members' slots, ascending; a singleton repeats its
    /// one slot.
    members: Vec<[u32; 2]>,
}

impl ComboSet {
    /// Builds a combo set and its job index from combos in any order;
    /// duplicates (after pair canonicalization) are rejected. Sets whose
    /// rows are one singleton per job followed by pairs of those jobs
    /// come from [`ComboSet::with_pairs`], which sorts fewer keys.
    ///
    /// # Panics
    ///
    /// Panics on duplicate combos — duplicated rows would silently double a
    /// job's allocation budget.
    pub fn new(combos: Vec<Combo>) -> Self {
        let mut jobs: Vec<JobId> = combos.iter().flat_map(|c| c.jobs()).collect();
        jobs.sort_unstable();
        jobs.dedup();
        let slot = |job| jobs.partition_point(|&j| j < job) as u32;
        let members = (combos.iter())
            .map(|c| {
                let (x, y) = (slot(c.a), slot(c.b.unwrap_or(c.a)));
                [x.min(y), x.max(y)]
            })
            .collect();
        Self::index(combos, jobs, members)
    }

    /// Builds the combo set a policy input uses: one singleton row per job
    /// of `jobs`, in order, then one pair row per `(i, k)` of `pairs` — the
    /// jobs at positions `i` and `k`, in either orientation — in order.
    /// Only the job ids are sorted; each slot's rows come out ascending
    /// without a sort, its singleton first.
    ///
    /// # Panics
    ///
    /// Panics on a job listed twice, a pair listed twice (in either
    /// orientation), a position paired with itself, or a position out of
    /// range.
    pub fn with_pairs(jobs: &[JobId], pairs: &[(u32, u32)]) -> Self {
        let mut sorted = jobs.to_vec();
        sorted.sort_unstable();
        let rows = jobs.len() + pairs.len();
        let mut combos = Vec::with_capacity(rows);
        let mut members = Vec::with_capacity(rows);
        for &job in jobs {
            combos.push(Combo::single(job));
            // A job listed twice takes its first slot both times, so the
            // index's duplicate check finds its two singletons.
            let slot = sorted.partition_point(|&j| j < job) as u32;
            members.push([slot; 2]);
        }
        for &(i, k) in pairs {
            let (i, k) = (i as usize, k as usize);
            combos.push(Combo::pair(jobs[i], jobs[k]));
            let (x, y) = (members[i][0], members[k][0]);
            members.push([x.min(y), x.max(y)]);
        }
        Self::index(combos, sorted, members)
    }

    /// Builds the singleton-only combo set for `jobs`:
    /// [`ComboSet::with_pairs`] without pairs, so it panics on a job
    /// listed twice.
    pub fn singletons(jobs: &[JobId]) -> Self {
        Self::with_pairs(jobs, &[])
    }

    /// Indexes `combos`, whose row `r` has member slots `members[r]` into
    /// the distinct ascending `jobs`, in O(rows + jobs): a counting pass
    /// sizes each slot's run of rows and a placement pass fills it.
    fn index(combos: Vec<Combo>, jobs: Vec<JobId>, members: Vec<[u32; 2]>) -> Self {
        // Each slot's count, then its end: `starts[s]` sums the counts of
        // slots up to and including `s`.
        let mut starts = vec![0u32; jobs.len() + 1];
        for &[lo, hi] in &members {
            starts[lo as usize] += 1;
            starts[hi as usize] += u32::from(hi != lo);
        }
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        // Rows placed last to first, each just below its slot's end, come
        // out ascending per slot and leave each `starts[s]` at its start.
        let mut rows = vec![0u32; end as usize];
        for (row, &[lo, hi]) in members.iter().enumerate().rev() {
            starts[hi as usize] -= 1;
            rows[starts[hi as usize] as usize] = row as u32;
            if lo != hi {
                starts[lo as usize] -= 1;
                rows[starts[lo as usize] as usize] = row as u32;
            }
        }
        // A combo repeats when its lower member lists the same higher one
        // twice: per slot, the lower slot (plus one) that last listed it.
        let mut listed_by = vec![0u32; jobs.len()];
        for lo in 0..jobs.len() {
            let stamp = lo as u32 + 1;
            for &row in &rows[starts[lo] as usize..starts[lo + 1] as usize] {
                let [low, hi] = members[row as usize];
                if low as usize == lo
                    && std::mem::replace(&mut listed_by[hi as usize], stamp) == stamp
                {
                    panic!("duplicate combo {}", combos[row as usize]);
                }
            }
        }
        ComboSet(Arc::new(Index {
            combos,
            jobs,
            starts,
            rows,
            members,
        }))
    }

    /// All combos, in row order.
    pub fn combos(&self) -> &[Combo] {
        &self.0.combos
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.0.combos.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.combos.is_empty()
    }

    /// The distinct jobs appearing in any combo, ascending: a job's slot
    /// is its index here.
    pub fn jobs(&self) -> &[JobId] {
        &self.0.jobs
    }

    /// The slot of `job`, or `None` when no combo contains it.
    pub fn slot(&self, job: JobId) -> Option<usize> {
        self.0.jobs.binary_search(&job).ok()
    }

    /// The rows containing the job in `slot` (the paper's `C_m`),
    /// ascending.
    pub fn rows_of(&self, slot: usize) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        let (start, end) = (
            self.0.starts[slot] as usize,
            self.0.starts[slot + 1] as usize,
        );
        self.0.rows[start..end].iter().map(|&row| row as usize)
    }

    /// The slots of row `row`'s members, ascending; a singleton repeats its
    /// one slot.
    pub fn members(&self, row: usize) -> [usize; 2] {
        self.0.members[row].map(|slot| slot as usize)
    }

    /// The row running the job in `slot` alone, if the set has one.
    pub fn singleton_row(&self, slot: usize) -> Option<usize> {
        self.rows_of(slot)
            .find(|&row| !self.0.combos[row].is_pair())
    }

    /// The rows containing `job` (the paper's `C_m`), ascending; none for
    /// a job no combo names.
    pub fn job_rows(&self, job: JobId) -> impl Iterator<Item = usize> + '_ {
        self.slot(job)
            .into_iter()
            .flat_map(|slot| self.rows_of(slot))
    }

    /// [`ComboSet::job_rows`], collected.
    pub fn rows_containing(&self, job: JobId) -> Vec<usize> {
        self.job_rows(job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_canonicalization() {
        let p1 = Combo::pair(JobId(3), JobId(1));
        let p2 = Combo::pair(JobId(1), JobId(3));
        assert_eq!(p1, p2);
        assert_eq!(p1.a, JobId(1));
    }

    #[test]
    #[should_panic(expected = "cannot be paired")]
    fn self_pair_panics() {
        Combo::pair(JobId(1), JobId(1));
    }

    #[test]
    fn contains() {
        let s = Combo::single(JobId(1));
        let p = Combo::pair(JobId(1), JobId(2));
        assert!(s.contains(JobId(1)));
        assert!(!s.contains(JobId(2)));
        assert!(p.contains(JobId(1)) && p.contains(JobId(2)) && !p.contains(JobId(3)));
    }

    #[test]
    fn rows_containing() {
        let set = ComboSet::new(vec![
            Combo::single(JobId(1)),
            Combo::single(JobId(2)),
            Combo::pair(JobId(1), JobId(2)),
        ]);
        assert_eq!(set.rows_containing(JobId(1)), vec![0, 2]);
        assert_eq!(set.rows_containing(JobId(2)), vec![1, 2]);
        assert_eq!(set.jobs(), vec![JobId(1), JobId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate combo")]
    fn duplicates_rejected() {
        ComboSet::new(vec![
            Combo::pair(JobId(1), JobId(2)),
            Combo::pair(JobId(2), JobId(1)),
        ]);
    }

    /// A xorshift generator: this crate has no dependencies to draw from.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    /// Random combo sets against linear scans: sparse ids (some near
    /// `u64::MAX`) in random order, pair rows before and between their
    /// singletons, and jobs that appear only in pairs.
    #[test]
    fn the_job_index_matches_linear_scans() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        for case in 0..300 {
            let n = 1 + rng.below(12) as usize;
            let mut ids: Vec<JobId> = Vec::new();
            while ids.len() < n {
                let id = match rng.below(4) {
                    0 => JobId(u64::MAX - rng.below(50)),
                    _ => JobId(rng.below(1_000) * 97),
                };
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            let mut combos: Vec<Combo> = Vec::new();
            for &id in &ids {
                if rng.below(4) != 0 {
                    combos.push(Combo::single(id));
                }
            }
            for _ in 0..rng.below(3 * n as u64) {
                let (x, y) = (
                    ids[rng.below(n as u64) as usize],
                    ids[rng.below(n as u64) as usize],
                );
                if x != y && !combos.contains(&Combo::pair(x, y)) {
                    combos.push(Combo::pair(x, y));
                }
            }
            rng.shuffle(&mut combos);
            let set = ComboSet::new(combos.clone());
            assert_eq!(set.combos(), &combos[..], "case {case}");

            let mut named: Vec<JobId> = combos.iter().flat_map(|c| c.jobs()).collect();
            named.sort_unstable();
            named.dedup();
            assert_eq!(set.jobs(), &named[..], "case {case}: distinct jobs");
            for (slot, &job) in set.jobs().iter().enumerate() {
                let scanned: Vec<usize> = (0..combos.len())
                    .filter(|&k| combos[k].contains(job))
                    .collect();
                assert_eq!(set.slot(job), Some(slot), "case {case}: slot of {job}");
                assert_eq!(set.rows_containing(job), scanned, "case {case}: {job}");
                assert!(set.rows_of(slot).eq(scanned.iter().copied()));
                let single = combos.iter().position(|c| *c == Combo::single(job));
                assert_eq!(set.singleton_row(slot), single, "case {case}: {job} alone");
            }
            for (k, c) in combos.iter().enumerate() {
                let slot = |job| set.slot(job).unwrap();
                let expected = [slot(c.a), slot(c.b.unwrap_or(c.a))];
                assert_eq!(set.members(k), expected, "case {case}: row {k}");
            }
            let absent = JobId(1);
            assert_eq!(
                (set.slot(absent), set.rows_containing(absent)),
                (None, vec![])
            );

            // Any combo repeated, pairs in either order, still panics.
            if let Some(&c) = combos.get(rng.below(combos.len() as u64 + 1) as usize) {
                let mut twice = combos.clone();
                twice.push(match c.b {
                    Some(b) => Combo::pair(b, c.a),
                    None => c,
                });
                rng.shuffle(&mut twice);
                let built = std::panic::catch_unwind(|| ComboSet::new(twice));
                assert!(built.is_err(), "case {case}: {c} repeated");
            }
        }
    }

    /// `with_pairs` against `new` over the same rows: 0–300 jobs with
    /// sparse ids in random order, pairs in both orientations, and sets
    /// without pairs.
    #[test]
    fn with_pairs_indexes_what_new_indexes() {
        let mut rng = Xorshift(0x2545_f491_4f6c_dd1d);
        for case in 0..120 {
            let n = match case % 4 {
                0 => rng.below(4) as usize,
                1 => 300,
                _ => rng.below(301) as usize,
            };
            let mut ids: Vec<JobId> = Vec::with_capacity(n);
            while ids.len() < n {
                let id = match rng.below(8) {
                    0 => JobId(u64::MAX - rng.below(1_000)),
                    _ => JobId(rng.below(1 << 40)),
                };
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            rng.shuffle(&mut ids);
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            if n >= 2 && case % 3 != 0 {
                for _ in 0..rng.below(3 * n as u64) {
                    let (i, k) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
                    if i != k && !pairs.contains(&(i, k)) && !pairs.contains(&(k, i)) {
                        pairs.push((i, k));
                    }
                }
            }
            let set = ComboSet::with_pairs(&ids, &pairs);
            let combos: Vec<Combo> = (ids.iter().map(|&j| Combo::single(j)))
                .chain(
                    pairs
                        .iter()
                        .map(|&(i, k)| Combo::pair(ids[i as usize], ids[k as usize])),
                )
                .collect();
            let reference = ComboSet::new(combos.clone());
            assert_eq!(set.combos(), &combos[..], "case {case}");
            assert_eq!(set.jobs(), reference.jobs(), "case {case}: jobs");
            for slot in 0..set.jobs().len() {
                assert!(
                    set.rows_of(slot).eq(reference.rows_of(slot)),
                    "case {case}: slot {slot}"
                );
                assert_eq!(set.singleton_row(slot), reference.singleton_row(slot));
            }
            for row in 0..combos.len() {
                assert_eq!(
                    set.members(row),
                    reference.members(row),
                    "case {case}: row {row}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate combo job7")]
    fn with_pairs_rejects_a_repeated_job() {
        ComboSet::with_pairs(&[JobId(3), JobId(7), JobId(5), JobId(7)], &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate combo (job3, job5)")]
    fn with_pairs_rejects_a_repeated_pair() {
        ComboSet::with_pairs(&[JobId(3), JobId(7), JobId(5)], &[(0, 2), (1, 2), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate combo (job3, job5)")]
    fn with_pairs_rejects_a_pair_repeated_in_the_other_orientation() {
        ComboSet::with_pairs(&[JobId(3), JobId(7), JobId(5)], &[(2, 0), (1, 0), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot be paired")]
    fn with_pairs_rejects_a_self_pair() {
        ComboSet::with_pairs(&[JobId(3), JobId(7)], &[(1, 1)]);
    }

    #[test]
    fn singletons_builder() {
        let set = ComboSet::singletons(&[JobId(5), JobId(7)]);
        assert_eq!(set.len(), 2);
        assert!(!set.combos()[0].is_pair());
    }
}
