//! Low-rank matrix completion by alternating least squares (ALS).
//!
//! Reconstructs a matrix from a subset of observed entries under a
//! low-rank assumption (Candès & Plan; used by Quasar and Gavel for
//! colocation fingerprints). Factorizes `R ~ U V^T` with ridge
//! regularization, alternating exact least-squares solves for `U` and `V`
//! over the observed entries only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of alternating sweeps.
const ITERATIONS: usize = 60;
/// Ridge regularization strength.
const REGULARIZATION: f64 = 1e-3;
/// RNG seed for factor initialization.
const SEED: u64 = 0;

/// Alternating-least-squares matrix completion.
#[derive(Debug, Clone)]
pub struct MatrixCompletion {
    /// Factorization rank.
    pub rank: usize,
}

impl Default for MatrixCompletion {
    fn default() -> Self {
        // Low rank on purpose: colocation matrices are near rank-2 in
        // practice (contention is dominated by one "demand" factor per
        // job), and overshooting the rank overfits the missing entries.
        MatrixCompletion { rank: 2 }
    }
}

impl MatrixCompletion {
    /// Creates a completion solver with the given rank.
    pub fn with_rank(rank: usize) -> Self {
        MatrixCompletion { rank }
    }

    /// Completes `observed`, where `None` marks missing entries.
    ///
    /// Returns the dense reconstruction. Observed entries are reproduced
    /// (up to the regularized least-squares fit); missing entries are
    /// predicted from the learned factors.
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty or ragged.
    pub fn complete(&self, observed: &[Vec<Option<f64>>]) -> Vec<Vec<f64>> {
        let nrows = observed.len();
        assert!(nrows > 0, "empty matrix");
        let ncols = observed[0].len();
        assert!(
            observed.iter().all(|r| r.len() == ncols),
            "ragged observation matrix"
        );
        let k = self.rank.min(nrows).min(ncols).max(1);

        let mut rng = StdRng::seed_from_u64(SEED);
        let scale = {
            // Initialize around the mean observed magnitude for stability.
            let (mut sum, mut count) = (0.0, 0usize);
            for row in observed {
                for v in row.iter().flatten() {
                    sum += v.abs();
                    count += 1;
                }
            }
            if count == 0 {
                return vec![vec![0.0; ncols]; nrows];
            }
            (sum / count as f64 / k as f64).sqrt().max(1e-3)
        };
        let mut u: Vec<Vec<f64>> = (0..nrows)
            .map(|_| (0..k).map(|_| rng.gen_range(0.5..1.5) * scale).collect())
            .collect();
        let mut v: Vec<Vec<f64>> = (0..ncols)
            .map(|_| (0..k).map(|_| rng.gen_range(0.5..1.5) * scale).collect())
            .collect();

        for _ in 0..ITERATIONS {
            // Fix V, solve each row of U by ridge regression over its
            // observed columns.
            for (i, urow) in u.iter_mut().enumerate() {
                let obs: Vec<(usize, f64)> = (0..ncols)
                    .filter_map(|j| observed[i][j].map(|val| (j, val)))
                    .collect();
                if !obs.is_empty() {
                    *urow = ridge_solve(&obs, &v, k, REGULARIZATION);
                }
            }
            // Fix U, solve each row of V.
            for (j, vrow) in v.iter_mut().enumerate() {
                let obs: Vec<(usize, f64)> = (0..nrows)
                    .filter_map(|i| observed[i][j].map(|val| (i, val)))
                    .collect();
                if !obs.is_empty() {
                    *vrow = ridge_solve(&obs, &u, k, REGULARIZATION);
                }
            }
        }

        (0..nrows)
            .map(|i| (0..ncols).map(|j| dot(&u[i], &v[j])).collect())
            .collect()
    }

    /// Root-mean-square error of `predicted` against the observed entries.
    pub fn observed_rmse(observed: &[Vec<Option<f64>>], predicted: &[Vec<f64>]) -> f64 {
        let (mut se, mut n) = (0.0, 0usize);
        for (orow, prow) in observed.iter().zip(predicted) {
            for (o, p) in orow.iter().zip(prow) {
                if let Some(o) = o {
                    se += (o - p) * (o - p);
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            (se / n as f64).sqrt()
        }
    }
}

/// Solves `min_w sum_(idx,val) (w . factors[idx] - val)^2 + reg ||w||^2`.
fn ridge_solve(obs: &[(usize, f64)], factors: &[Vec<f64>], k: usize, reg: f64) -> Vec<f64> {
    // Normal equations: (F^T F + reg I) w = F^T y.
    let mut a = vec![vec![0.0; k]; k];
    let mut b = vec![0.0; k];
    for &(idx, val) in obs {
        let f = &factors[idx];
        for r in 0..k {
            b[r] += f[r] * val;
            for c in 0..k {
                a[r][c] += f[r] * f[c];
            }
        }
    }
    for (r, row) in a.iter_mut().enumerate() {
        row[r] += reg;
    }
    solve_spd(&mut a, &mut b);
    b
}

/// In-place Gaussian elimination with partial pivoting for the small SPD
/// systems of [`ridge_solve`]; the solution lands in `b`.
fn solve_spd(a: &mut [Vec<f64>], b: &mut [f64]) {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-12 {
            continue;
        }
        for r in 0..n {
            if r != col {
                let f = a[r][col] / p;
                for c in col..n {
                    let v = a[col][c];
                    a[r][c] -= f * v;
                }
                b[r] -= f * b[col];
            }
        }
    }
    for i in 0..n {
        if a[i][i].abs() > 1e-12 {
            b[i] /= a[i][i];
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a random rank-`k` matrix and masks a fraction of entries.
    fn masked_low_rank(
        nrows: usize,
        ncols: usize,
        k: usize,
        keep: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<Vec<Option<f64>>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<Vec<f64>> = (0..nrows)
            .map(|_| (0..k).map(|_| rng.gen_range(0.2..1.0)).collect())
            .collect();
        let v: Vec<Vec<f64>> = (0..ncols)
            .map(|_| (0..k).map(|_| rng.gen_range(0.2..1.0)).collect())
            .collect();
        let full: Vec<Vec<f64>> = (0..nrows)
            .map(|i| (0..ncols).map(|j| dot(&u[i], &v[j])).collect())
            .collect();
        let masked = full
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&x| if rng.gen_bool(keep) { Some(x) } else { None })
                    .collect()
            })
            .collect();
        (full, masked)
    }

    #[test]
    fn recovers_low_rank_matrix() {
        let (full, masked) = masked_low_rank(12, 12, 2, 0.7, 3);
        let mc = MatrixCompletion::with_rank(2);
        let pred = mc.complete(&masked);
        let mut max_err = 0.0f64;
        for i in 0..12 {
            for j in 0..12 {
                max_err = max_err.max((pred[i][j] - full[i][j]).abs() / full[i][j].abs());
            }
        }
        assert!(max_err < 0.15, "max relative error {max_err}");
    }

    #[test]
    fn reproduces_observed_entries() {
        let (_, masked) = masked_low_rank(10, 10, 2, 0.6, 7);
        let mc = MatrixCompletion::with_rank(2);
        let pred = mc.complete(&masked);
        let rmse = MatrixCompletion::observed_rmse(&masked, &pred);
        assert!(rmse < 0.05, "observed RMSE {rmse}");
    }

    #[test]
    fn all_missing_returns_zeros() {
        let masked = vec![vec![None; 4]; 4];
        let pred = MatrixCompletion::default().complete(&masked);
        assert!(pred.iter().flatten().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let (_, masked) = masked_low_rank(8, 8, 2, 0.5, 11);
        let mc = MatrixCompletion::with_rank(2);
        let a = mc.complete(&masked);
        let b = mc.complete(&masked);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn empty_rejected() {
        MatrixCompletion::default().complete(&[]);
    }

    #[test]
    fn rank_one_exact_with_dense_observations() {
        // Fully observed rank-1 matrix: completion should be near-exact.
        let row = [1.0, 2.0, 3.0, 4.0];
        let col = [2.0, 1.0, 0.5];
        let observed: Vec<Vec<Option<f64>>> = col
            .iter()
            .map(|&c| row.iter().map(|&r| Some(r * c)).collect())
            .collect();
        let pred = MatrixCompletion::with_rank(1).complete(&observed);
        for (i, &c) in col.iter().enumerate() {
            for (j, &r) in row.iter().enumerate() {
                assert!(
                    (pred[i][j] - r * c).abs() < 0.05 * (r * c),
                    "entry ({i},{j}): {} vs {}",
                    pred[i][j],
                    r * c
                );
            }
        }
    }
}
