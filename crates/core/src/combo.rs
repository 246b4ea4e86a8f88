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
/// combo rows containing them (the paper's `C_m`), built once by
/// [`ComboSet::new`] and shared by clones. A job's *slot* is its position
/// among the distinct jobs, ascending ([`ComboSet::jobs`]); the index
/// holds each slot's rows, ascending, and each row's member slots.
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
    /// Builds a combo set and its job index; duplicates (after pair
    /// canonicalization) are rejected.
    ///
    /// # Panics
    ///
    /// Panics on duplicate combos — duplicated rows would silently double a
    /// job's allocation budget.
    pub fn new(combos: Vec<Combo>) -> Self {
        // One sort of the member occurrences, keyed (job, row, role) —
        // role 0 for a singleton's job, 1 and 2 for a pair's lower and
        // higher — groups each job's rows in ascending order: the groups
        // are the slots, in job order.
        let key = |job: JobId, row, role| u128::from(job.0) << 34 | (row as u128) << 2 | role;
        let mut keys = Vec::with_capacity(2 * combos.len());
        for (row, c) in combos.iter().enumerate() {
            match c.b {
                None => keys.push(key(c.a, row, 0)),
                Some(b) => keys.extend([key(c.a.min(b), row, 1), key(c.a.max(b), row, 2)]),
            }
        }
        keys.sort_unstable();
        let job = |k: &u128| (k >> 34) as u64;
        let same_job = |x: &u128, y: &u128| job(x) == job(y);
        let distinct = keys.chunk_by(same_job).count();
        let mut jobs = Vec::with_capacity(distinct);
        let mut starts = Vec::with_capacity(distinct + 1);
        let mut rows = Vec::with_capacity(keys.len());
        let mut members = vec![[0; 2]; combos.len()];
        // Per slot, the slot (plus one) of the group that last completed a
        // combo it is the lower member of.
        let mut completed = vec![0; distinct];
        for (slot, group) in keys.chunk_by(same_job).enumerate() {
            jobs.push(JobId(job(&group[0])));
            starts.push(rows.len() as u32);
            for &k in group {
                let row = (k >> 2) as u32;
                rows.push(row);
                let m = &mut members[row as usize];
                match k & 3 {
                    0 => *m = [slot as u32; 2],
                    1 => m[0] = slot as u32,
                    _ => m[1] = slot as u32,
                }
                // A combo completes at its higher member, after its lower
                // one: two completing here with one lower member are equal.
                let stamp = slot as u32 + 1;
                if k & 3 != 1 && std::mem::replace(&mut completed[m[0] as usize], stamp) == stamp {
                    panic!("duplicate combo {}", combos[row as usize]);
                }
            }
        }
        starts.push(rows.len() as u32);
        ComboSet(Arc::new(Index {
            combos,
            jobs,
            starts,
            rows,
            members,
        }))
    }

    /// Builds the singleton-only combo set for `jobs`; like
    /// [`ComboSet::new`], panics on a job listed twice.
    pub fn singletons(jobs: &[JobId]) -> Self {
        Self::new(jobs.iter().map(|&j| Combo::single(j)).collect())
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

    #[test]
    fn singletons_builder() {
        let set = ComboSet::singletons(&[JobId(5), JobId(7)]);
        assert_eq!(set.len(), 2);
        assert!(!set.combos()[0].is_pair());
    }
}
