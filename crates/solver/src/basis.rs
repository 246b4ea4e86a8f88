//! Factorized simplex basis: sparse LU with product-form (eta) updates.
//!
//! The revised simplex needs two linear solves per pivot against the
//! current basis matrix `B` (one column of `A` per constraint row):
//!
//! - FTRAN: `B w = a_q` — the entering column in basis coordinates,
//! - BTRAN: `Bᵀ y = c_B` — the dual prices used to compute reduced costs.
//!
//! [`Basis`] keeps an LU factorization of `B` (Gaussian elimination with
//! partial pivoting, columns processed in basis order, sparse `L`/`U`
//! columns) plus an *eta file*: each pivot appends the product-form update
//! `B' = B · E`, where `E` is the identity with one column replaced by the
//! FTRAN image of the entering column. FTRAN/BTRAN apply the eta file
//! around the LU solves, and the factorization is rebuilt from scratch
//! ("refactorized") once the file grows past a threshold or a pivot looks
//! numerically degenerate — exactly the classic revised-simplex scheme.

use crate::sparse::CscMatrix;

/// Eta-file length at which the factorization is rebuilt: pivots between
/// refactorizations.
const REFACTOR_EVERY: usize = 64;

/// Product-form update: basis slot `slot` was replaced by a column whose
/// FTRAN image was `w` (`diag = w[slot]`, `off` the other nonzeros).
#[derive(Debug, Clone)]
struct Eta {
    slot: usize,
    diag: f64,
    off: Vec<(usize, f64)>,
}

/// Sparse LU factors of a basis matrix, `P B = L U` with row permutation
/// `P`, unit lower-triangular `L`, and upper-triangular `U`.
#[derive(Debug, Clone, Default)]
struct LuFactors {
    /// `l_cols[k]`: strictly-below-diagonal entries of `L`'s `k`-th column,
    /// keyed by *original* row index.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `u_cols[j]`: above-diagonal entries of `U`'s `j`-th column, keyed by
    /// pivot position (`< j`).
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    /// `p[k]` = original row pivotal at elimination step `k`.
    p: Vec<usize>,
    /// Inverse permutation: `pinv[row]` = elimination step, or `usize::MAX`.
    pinv: Vec<usize>,
    /// Column permutation: factor column `k` holds basis slot `q[k]`.
    /// Columns are factored sparsest-first to limit fill-in.
    q: Vec<usize>,
}

/// A factorized, incrementally-updatable basis.
#[derive(Debug, Clone)]
pub struct Basis {
    m: usize,
    lu: LuFactors,
    etas: Vec<Eta>,
    /// Pivots below this magnitude make the factorization refuse a column.
    pivot_tol: f64,
}

impl Basis {
    /// Factorizes `B`, the submatrix of `a` selected by `basis_cols` (one
    /// column per row of `a`, in slot order). Returns `None` when the
    /// selection is (numerically) singular.
    pub fn factorize(a: &CscMatrix, basis_cols: &[usize], pivot_tol: f64) -> Option<Basis> {
        let m = a.nrows();
        debug_assert_eq!(basis_cols.len(), m);
        // Factor sparsest columns first: unit slack/artificial columns
        // pivot with zero fill-in, which keeps `L`/`U` near the density of
        // the basis itself instead of exploding on a poor ordering.
        let mut q: Vec<usize> = (0..m).collect();
        q.sort_by_key(|&slot| a.col_nnz(basis_cols[slot]));
        let mut lu = LuFactors {
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            u_diag: Vec::with_capacity(m),
            p: Vec::with_capacity(m),
            pinv: vec![usize::MAX; m],
            q,
        };
        let mut work = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::new();
        for k in 0..m {
            let col = basis_cols[lu.q[k]];
            // Scatter the basis column and eliminate with the L columns
            // computed so far (in pivot order).
            a.scatter_col(col, &mut work, &mut touched);
            for k in 0..lu.p.len() {
                let t = work[lu.p[k]];
                if t != 0.0 {
                    for &(r, v) in &lu.l_cols[k] {
                        if work[r] == 0.0 {
                            touched.push(r);
                        }
                        work[r] -= t * v;
                    }
                }
            }
            // Partial pivoting over not-yet-pivotal rows.
            let mut piv_row = usize::MAX;
            let mut piv_abs = 0.0f64;
            for &r in &touched {
                if lu.pinv[r] == usize::MAX && work[r].abs() > piv_abs {
                    piv_abs = work[r].abs();
                    piv_row = r;
                }
            }
            if piv_abs <= pivot_tol {
                for &r in &touched {
                    work[r] = 0.0;
                }
                return None; // Singular (dependent basis columns).
            }
            let pivot = work[piv_row];
            let step = lu.p.len();
            let mut ucol = Vec::new();
            let mut lcol = Vec::new();
            for &r in &touched {
                let v = work[r];
                work[r] = 0.0;
                if v == 0.0 || r == piv_row {
                    continue;
                }
                if lu.pinv[r] != usize::MAX {
                    ucol.push((lu.pinv[r], v));
                } else {
                    lcol.push((r, v / pivot));
                }
            }
            touched.clear();
            lu.u_diag.push(pivot);
            lu.u_cols.push(ucol);
            lu.l_cols.push(lcol);
            lu.p.push(piv_row);
            lu.pinv[piv_row] = step;
        }
        Some(Basis {
            m,
            lu,
            etas: Vec::new(),
            pivot_tol,
        })
    }

    /// Whether the eta file is due for a refactorization.
    pub fn needs_refactor(&self) -> bool {
        self.etas.len() >= REFACTOR_EVERY
    }

    /// Whether any eta updates have accumulated since the last
    /// factorization (i.e. a refactorization would improve accuracy).
    pub fn has_updates(&self) -> bool {
        !self.etas.is_empty()
    }

    /// Records the pivot that replaced `slot`'s basis column, given the
    /// entering column's FTRAN image `w`. Returns `false` (update refused,
    /// caller must refactorize) when the pivot element is too small.
    pub fn update(&mut self, slot: usize, w: &[f64]) -> bool {
        let diag = w[slot];
        if diag.abs() <= self.pivot_tol {
            return false;
        }
        let off: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != slot && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { slot, diag, off });
        true
    }

    /// FTRAN: solves `B x = rhs` in place. `rhs` is indexed by constraint
    /// row on input and by basis slot on output.
    pub fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        let lu = &self.lu;
        // Forward elimination (L), in original row coordinates.
        for k in 0..self.m {
            let t = x[lu.p[k]];
            if t != 0.0 {
                for &(r, v) in &lu.l_cols[k] {
                    x[r] -= t * v;
                }
            }
        }
        // Gather into pivot coordinates and back-substitute (U).
        let mut y: Vec<f64> = lu.p.iter().map(|&r| x[r]).collect();
        for j in (0..self.m).rev() {
            let xj = y[j] / lu.u_diag[j];
            y[j] = xj;
            if xj != 0.0 {
                for &(k, v) in &lu.u_cols[j] {
                    y[k] -= xj * v;
                }
            }
        }
        // Undo the sparsity-driven column permutation: factor column k is
        // basis slot q[k].
        for (k, &slot) in lu.q.iter().enumerate() {
            x[slot] = y[k];
        }
        // Apply the eta file: x <- E_k^{-1} ... E_1^{-1} x.
        for eta in &self.etas {
            let t = x[eta.slot] / eta.diag;
            if t != 0.0 {
                for &(i, v) in &eta.off {
                    x[i] -= t * v;
                }
            }
            x[eta.slot] = t;
        }
    }

    /// BTRAN: solves `Bᵀ y = rhs` in place. `rhs` is indexed by basis slot
    /// on input and by constraint row on output.
    pub fn btran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Undo the eta file transposed, newest first.
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.slot];
            for &(i, v) in &eta.off {
                acc -= v * x[i];
            }
            x[eta.slot] = acc / eta.diag;
        }
        let lu = &self.lu;
        // Solve Uᵀ w = x in pivot coordinates (forward), permuting the
        // slot-indexed input into factor-column order.
        let mut w = vec![0.0f64; self.m];
        for j in 0..self.m {
            let mut acc = x[lu.q[j]];
            for &(k, v) in &lu.u_cols[j] {
                acc -= v * w[k];
            }
            w[j] = acc / lu.u_diag[j];
        }
        // Solve Lᵀ z = w (backward), then scatter through the permutation.
        for k in (0..self.m).rev() {
            let mut acc = w[k];
            for &(r, v) in &lu.l_cols[k] {
                acc -= v * w[lu.pinv[r]];
            }
            w[k] = acc;
        }
        for k in 0..self.m {
            x[lu.p[k]] = w[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(cols: &[Vec<f64>]) -> CscMatrix {
        let nrows = cols[0].len();
        let sparse: Vec<Vec<(usize, f64)>> = cols
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(r, &v)| (r, v))
                    .collect()
            })
            .collect();
        CscMatrix::from_columns(nrows, &sparse)
    }

    #[test]
    fn ftran_btran_identity() {
        let a = dense_cols(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let b = Basis::factorize(&a, &[0, 1, 2], 1e-11).unwrap();
        let mut x = vec![3.0, -1.0, 2.0];
        b.ftran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
        b.btran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn ftran_solves_permuted_system() {
        // B = [[0, 2], [3, 1]] needs row pivoting.
        let a = dense_cols(&[vec![0.0, 3.0], vec![2.0, 1.0]]);
        let b = Basis::factorize(&a, &[0, 1], 1e-11).unwrap();
        // Solve B x = [4, 7] => x = [ (7 - 4/2) / 3? ] check: 2*x1 = 4 ->
        // x1 = 2; 3*x0 + x1 = 7 -> x0 = 5/3.
        let mut x = vec![4.0, 7.0];
        b.ftran(&mut x);
        assert!((x[0] - 5.0 / 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn btran_solves_transpose() {
        let a = dense_cols(&[vec![2.0, 1.0], vec![0.0, 4.0]]);
        let b = Basis::factorize(&a, &[0, 1], 1e-11).unwrap();
        // Solve Bᵀ y = [6, 8]: 2 y0 + 1 y1 = 6, 4 y1 = 8 => y1 = 2, y0 = 2.
        let mut y = vec![6.0, 8.0];
        b.btran(&mut y);
        assert!((y[0] - 2.0).abs() < 1e-12);
        assert!((y[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_basis_rejected() {
        let a = dense_cols(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(Basis::factorize(&a, &[0, 1], 1e-11).is_none());
    }

    #[test]
    fn eta_update_tracks_column_replacement() {
        // Start from identity, replace slot 0 by column [3, 1].
        let a = dense_cols(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![3.0, 1.0], // the entering column
        ]);
        let mut basis = Basis::factorize(&a, &[0, 1], 1e-11).unwrap();
        let mut w = vec![0.0; 2];
        let mut touched = Vec::new();
        a.scatter_col(2, &mut w, &mut touched);
        basis.ftran(&mut w);
        assert!(basis.update(0, &w));
        // New B = [[3, 0], [1, 1]]. Solve B x = [6, 4] => x0 = 2, x1 = 2.
        let mut x = vec![6.0, 4.0];
        basis.ftran(&mut x);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Bᵀ y = [5, 1]: 3 y0 + 1 y1 = 5, y1 = 1 => y0 = 4/3.
        let mut y = vec![5.0, 1.0];
        basis.btran(&mut y);
        assert!((y[0] - 4.0 / 3.0).abs() < 1e-12);
        assert!((y[1] - 1.0).abs() < 1e-12);
        // Against the from-scratch factorization of the same basis.
        let fresh = Basis::factorize(&a, &[2, 1], 1e-11).unwrap();
        let mut x2 = vec![6.0, 4.0];
        fresh.ftran(&mut x2);
        assert!((x2[0] - 2.0).abs() < 1e-12);
        assert!((x2[1] - 2.0).abs() < 1e-12);
    }
}
