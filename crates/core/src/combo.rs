//! Job combinations — the rows of the allocation matrix.
//!
//! Without space sharing every row of `X` is a single job. With space
//! sharing, rows for pairs of jobs are added (the paper limits combinations
//! to two jobs: larger groups "rarely increase net throughput", §3.1).

use crate::JobId;

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
/// combo rows containing them (the paper's `C_m`).
#[derive(Debug, Clone, Default)]
pub struct ComboSet {
    combos: Vec<Combo>,
}

impl ComboSet {
    /// Builds a combo set; duplicates (after pair canonicalization) are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics on duplicate combos — duplicated rows would silently double a
    /// job's allocation budget.
    pub fn new(combos: Vec<Combo>) -> Self {
        // Duplicates are adjacent once sorted: one copy, no hashing.
        let mut sorted = combos.clone();
        sorted.sort_unstable_by_key(|c| (c.a, c.b));
        for w in sorted.windows(2) {
            assert!(w[0] != w[1], "duplicate combo {}", w[1]);
        }
        ComboSet { combos }
    }

    /// Builds the singleton-only combo set for `jobs`.
    pub fn singletons(jobs: &[JobId]) -> Self {
        ComboSet {
            combos: jobs.iter().map(|&j| Combo::single(j)).collect(),
        }
    }

    /// All combos, in row order.
    pub fn combos(&self) -> &[Combo] {
        &self.combos
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// Row indices of combos containing `job` (the paper's `C_m`).
    pub fn rows_containing(&self, job: JobId) -> Vec<usize> {
        self.combos
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(job))
            .map(|(i, _)| i)
            .collect()
    }

    /// The distinct jobs appearing in any combo, in first-appearance order.
    pub fn jobs(&self) -> Vec<JobId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for c in &self.combos {
            for j in c.jobs() {
                if seen.insert(j) {
                    out.push(j);
                }
            }
        }
        out
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

    #[test]
    fn singletons_builder() {
        let set = ComboSet::singletons(&[JobId(5), JobId(7)]);
        assert_eq!(set.len(), 2);
        assert!(!set.combos()[0].is_pair());
    }
}
