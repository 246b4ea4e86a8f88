//! Factorized simplex basis: sparse LU with product-form (eta) updates.
//!
//! The revised simplex needs two linear solves per pivot against the
//! current basis matrix `B` (one column of `A` per constraint row):
//!
//! - FTRAN: `B w = a_q` — the entering column in basis coordinates,
//! - BTRAN: `Bᵀ y = c_B` — the dual prices used to compute reduced costs.
//!
//! [`Basis`] keeps an LU factorization of `B` (Gaussian elimination with
//! partial pivoting, columns processed sparsest first) plus an *eta file*:
//! each pivot appends the product-form update `B' = B · E`, where `E` is
//! the identity with one column replaced by the FTRAN image of the
//! entering column. FTRAN/BTRAN apply the eta file around the LU solves,
//! and the factorization is rebuilt from scratch ("refactorized") once the
//! file grows past a threshold or a pivot looks numerically degenerate —
//! exactly the classic revised-simplex scheme.
//!
//! # Flat storage, reused in place
//!
//! `L`, `U` and the eta file are each one entry slab addressed by start
//! offsets, and the dense vector the elimination scatters into doubles as
//! the solves' permuted work vector. [`Basis::refactor`] rebuilds all of
//! it inside the buffers it already has, so after its first factorization
//! a basis allocates only when a slab outgrows its high-water mark.
//!
//! # Reach-ordered elimination
//!
//! Column `k` is eliminated by the `L` columns of the earlier steps whose
//! pivot row it holds a nonzero in. A step only writes rows that were not
//! yet pivotal when it was taken — rows that are still free or that
//! became pivotal at a *later* step — so applying step `s` can only make
//! later steps reachable. The elimination therefore keeps the reachable
//! steps in a bitset, seeded from the scattered column's pivotal rows, and
//! scans it forward: every step it visits is visited in increasing order,
//! exactly once, after every step that can write its pivot row. A step it
//! never visits has an exact zero at its pivot row.
//!
//! That is the same sequence of operations the textbook loop over *all*
//! earlier steps performs — it skips exactly the steps whose multiplier is
//! zero, applies the others in the same order under the same `t != 0.0`
//! test, and so touches rows in the same order — at a cost proportional to
//! the steps reached instead of `O(m)` per column. The factors, and every
//! solve against them, are bit-identical to that loop's (a unit test keeps
//! the full scan as the reference and compares FTRAN/BTRAN bit patterns).
//!
//! # Completing a hint
//!
//! A warm start names a basis, but it may name too few columns or columns
//! that depend on one another. `Basis::complete` repairs such a hint in
//! the same elimination pass: it skips each column with no pivot left and
//! then puts a logical column (a slack, surplus or artificial: a unit
//! column) in every row still without a pivot. A unit column in a row no
//! step has pivoted on eliminates to itself, so it always pivots there.

use crate::sparse::CscMatrix;

/// Eta-file length at which the factorization is rebuilt: pivots between
/// refactorizations.
const REFACTOR_EVERY: usize = 64;

/// A slot of the selection given to [`Basis::complete`] that names no
/// column.
pub(crate) const NO_COLUMN: usize = usize::MAX;

/// Product-form update: basis slot `slot` was replaced by a column whose
/// FTRAN image was `w` (`diag = w[slot]`, the other nonzeros in
/// `eta_ent[start..end]`).
#[derive(Debug, Clone, Copy)]
struct Eta {
    slot: usize,
    diag: f64,
    start: usize,
    end: usize,
}

/// Sparse LU factors of a basis matrix, `P B = L U` with row permutation
/// `P`, unit lower-triangular `L`, and upper-triangular `U`.
#[derive(Debug, Clone, Default)]
struct LuFactors {
    /// `l_ent[l_start[k]..l_start[k + 1]]`: strictly-below-diagonal
    /// entries of `L`'s `k`-th column, keyed by *original* row index.
    l_start: Vec<usize>,
    l_ent: Vec<(usize, f64)>,
    /// `u_ent[u_start[j]..u_start[j + 1]]`: above-diagonal entries of
    /// `U`'s `j`-th column, keyed by pivot position (`< j`).
    u_start: Vec<usize>,
    u_ent: Vec<(usize, f64)>,
    u_diag: Vec<f64>,
    /// `p[k]` = original row pivotal at elimination step `k`.
    p: Vec<usize>,
    /// Inverse permutation: `pinv[row]` = elimination step, or `usize::MAX`.
    pinv: Vec<usize>,
    /// Column permutation: factor column `k` holds basis slot `q[k]`.
    /// Columns are factored sparsest-first to limit fill-in.
    q: Vec<usize>,
}

impl LuFactors {
    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_ent[self.l_start[k]..self.l_start[k + 1]]
    }

    fn u_col(&self, j: usize) -> &[(usize, f64)] {
        &self.u_ent[self.u_start[j]..self.u_start[j + 1]]
    }
}

/// Marks elimination step `s` reachable.
fn mark(pending: &mut [u64], s: usize) {
    pending[s / 64] |= 1 << (s % 64);
}

/// Eliminates the scattered column in `work` with the `L` columns of the
/// steps it reaches, in step order (see the module docs); rows that turn
/// nonzero are appended to `touched`. `pending` is all clear on entry and
/// on return.
fn eliminate(lu: &LuFactors, work: &mut [f64], touched: &mut Vec<usize>, pending: &mut [u64]) {
    let mut hi = 0;
    let mut word = usize::MAX;
    for &r in touched.iter() {
        let s = lu.pinv[r];
        if s != usize::MAX {
            mark(pending, s);
            word = word.min(s / 64);
            hi = hi.max(s / 64);
        }
    }
    while word <= hi {
        let bits = pending[word];
        if bits == 0 {
            word += 1;
            continue;
        }
        pending[word] = bits & (bits - 1);
        let s = word * 64 + bits.trailing_zeros() as usize;
        let t = work[lu.p[s]];
        if t != 0.0 {
            for &(r, v) in lu.l_col(s) {
                if work[r] == 0.0 {
                    touched.push(r);
                }
                work[r] -= t * v;
                let later = lu.pinv[r];
                if later != usize::MAX {
                    mark(pending, later);
                    hi = hi.max(later / 64);
                }
            }
        }
    }
}

/// A factorized, incrementally-updatable basis.
#[derive(Debug, Clone, Default)]
pub struct Basis {
    m: usize,
    lu: LuFactors,
    etas: Vec<Eta>,
    eta_ent: Vec<(usize, f64)>,
    /// Pivots below this magnitude make the factorization refuse a column.
    pivot_tol: f64,
    /// Dense length-`m` work vector: the column being eliminated (zero
    /// between columns), then the permuted vector inside FTRAN/BTRAN.
    scratch: Vec<f64>,
    touched: Vec<usize>,
    /// One bit per elimination step, set while the step is reachable.
    pending: Vec<u64>,
}

impl Basis {
    /// Factorizes `B`, the submatrix of `a` selected by `basis_cols` (one
    /// column per row of `a`, in slot order). Returns `None` when the
    /// selection is (numerically) singular.
    pub fn factorize(a: &CscMatrix, basis_cols: &[usize], pivot_tol: f64) -> Option<Basis> {
        let mut basis = Basis {
            etas: Vec::with_capacity(REFACTOR_EVERY),
            ..Basis::default()
        };
        basis.refactor(a, basis_cols, pivot_tol).then_some(basis)
    }

    /// [`Basis::factorize`] in place: rebuilds the factors for
    /// `basis_cols` inside this basis's buffers and empties the eta file.
    /// Returns `false` when the selection is singular; the factors are then
    /// unusable until a refactorization succeeds.
    pub fn refactor(&mut self, a: &CscMatrix, basis_cols: &[usize], pivot_tol: f64) -> bool {
        self.refactor_with(a, basis_cols, pivot_tol, false, eliminate)
    }

    /// Factorizes a warm-start hint that may name fewer columns than `a`
    /// has rows, or columns that depend on one another. `cols` has one slot
    /// per row; a slot holding [`NO_COLUMN`] names nothing. The named
    /// columns are factorized sparsest first, as in [`Basis::factorize`],
    /// except that a column dependent on the ones before it is skipped.
    /// Then every row left without a pivot gets its logical column
    /// `logical(row)` — a unit column in that row, so it pivots there — in
    /// a free slot, a skipped column's first. Never fails.
    ///
    /// Returns the factors, with `cols` rewritten to the completed basis,
    /// and the number of logical columns put in. Zero means `cols` was a
    /// nonsingular basis already, and the factors are bit for bit
    /// [`Basis::factorize`]'s. Otherwise the factor columns are not in the
    /// order a factorization of the completed basis would use.
    pub(crate) fn complete(
        a: &CscMatrix,
        cols: &mut [usize],
        logical: impl Fn(usize) -> usize,
        pivot_tol: f64,
    ) -> (Basis, usize) {
        let mut basis = Basis {
            etas: Vec::with_capacity(REFACTOR_EVERY),
            ..Basis::default()
        };
        basis.refactor_with(a, cols, pivot_tol, true, eliminate);
        // `q` lists the pivoted slots, then the skipped ones.
        let pivoted = basis.lu.p.len();
        let skipped_end = basis.lu.q.len();
        let mut empty = 0;
        for row in 0..basis.m {
            if basis.lu.pinv[row] != usize::MAX {
                continue;
            }
            let k = basis.lu.p.len();
            let slot = if k < skipped_end {
                basis.lu.q[k]
            } else {
                while cols[empty] != NO_COLUMN {
                    empty += 1;
                }
                basis.lu.q.push(empty);
                empty
            };
            cols[slot] = logical(row);
            let ok = basis.push_column(a, cols[slot], &eliminate);
            debug_assert!(ok && basis.lu.p[k] == row, "logical column off its row");
        }
        let added = basis.m - pivoted;
        (basis, added)
    }

    /// Rebuilds the factors from the columns `basis_cols` names. A column
    /// dependent on the ones before it ends the factorization with `false`,
    /// or with `skip_dependent` is left out; `q` then lists the pivoted
    /// slots, in factor order, before the skipped ones.
    fn refactor_with(
        &mut self,
        a: &CscMatrix,
        basis_cols: &[usize],
        pivot_tol: f64,
        skip_dependent: bool,
        eliminate: impl Fn(&LuFactors, &mut [f64], &mut Vec<usize>, &mut [u64]),
    ) -> bool {
        let m = a.nrows();
        debug_assert_eq!(basis_cols.len(), m);
        self.m = m;
        self.pivot_tol = pivot_tol;
        self.etas.clear();
        self.eta_ent.clear();
        let Basis {
            lu,
            scratch: work,
            touched,
            pending,
            ..
        } = self;
        // Factor sparsest columns first: unit slack/artificial columns
        // pivot with zero fill-in, which keeps `L`/`U` near the density of
        // the basis itself instead of exploding on a poor ordering. Ties
        // keep slot order.
        lu.q.clear();
        lu.q.reserve(m);
        lu.q.extend((0..m).filter(|&slot| basis_cols[slot] != NO_COLUMN));
        lu.q.sort_unstable_by_key(|&slot| (a.col_nnz(basis_cols[slot]), slot));
        // Without fill-in, `L` and `U` together hold the basis's
        // off-diagonal nonzeros, so either slab fits its share whole.
        let named = basis_cols.iter().filter(|&&c| c != NO_COLUMN);
        let nnz: usize = named.map(|&c| a.col_nnz(c)).sum();
        for (start, ent) in [
            (&mut lu.l_start, &mut lu.l_ent),
            (&mut lu.u_start, &mut lu.u_ent),
        ] {
            start.clear();
            start.reserve(m + 1);
            start.push(0);
            ent.clear();
            ent.reserve(nnz);
        }
        lu.u_diag.clear();
        lu.u_diag.reserve(m);
        lu.p.clear();
        lu.p.reserve(m);
        lu.pinv.clear();
        lu.pinv.resize(m, usize::MAX);
        work.clear();
        work.resize(m, 0.0);
        pending.clear();
        pending.resize(m.div_ceil(64), 0);
        touched.clear();
        touched.reserve(m);
        let mut k = 0;
        for next in 0..self.lu.q.len() {
            if self.push_column(a, basis_cols[self.lu.q[next]], &eliminate) {
                self.lu.q.swap(k, next);
                k += 1;
            } else if !skip_dependent {
                return false;
            }
        }
        true
    }

    /// Eliminates column `col` of `a` as the next factor column and pivots
    /// it on its largest entry in a row not yet pivotal. Returns `false`,
    /// leaving the factors as they were, when no such entry is above the
    /// pivot tolerance: the column depends on the ones before it.
    fn push_column(
        &mut self,
        a: &CscMatrix,
        col: usize,
        eliminate: &impl Fn(&LuFactors, &mut [f64], &mut Vec<usize>, &mut [u64]),
    ) -> bool {
        let Basis {
            lu,
            scratch: work,
            touched,
            pending,
            pivot_tol,
            ..
        } = self;
        a.scatter_col(col, work, touched);
        eliminate(lu, work, touched, pending);
        // Partial pivoting over not-yet-pivotal rows.
        let mut piv_row = usize::MAX;
        let mut piv_abs = 0.0f64;
        for &r in touched.iter() {
            if lu.pinv[r] == usize::MAX && work[r].abs() > piv_abs {
                piv_abs = work[r].abs();
                piv_row = r;
            }
        }
        if piv_abs <= *pivot_tol {
            for &r in touched.iter() {
                work[r] = 0.0;
            }
            touched.clear();
            return false;
        }
        let pivot = work[piv_row];
        for &r in touched.iter() {
            let v = work[r];
            work[r] = 0.0;
            if v == 0.0 || r == piv_row {
                continue;
            }
            if lu.pinv[r] != usize::MAX {
                lu.u_ent.push((lu.pinv[r], v));
            } else {
                lu.l_ent.push((r, v / pivot));
            }
        }
        touched.clear();
        lu.pinv[piv_row] = lu.p.len();
        lu.l_start.push(lu.l_ent.len());
        lu.u_start.push(lu.u_ent.len());
        lu.u_diag.push(pivot);
        lu.p.push(piv_row);
        true
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
        let start = self.eta_ent.len();
        let off = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != slot && v != 0.0);
        self.eta_ent.extend(off.map(|(i, &v)| (i, v)));
        self.etas.push(Eta {
            slot,
            diag,
            start,
            end: self.eta_ent.len(),
        });
        true
    }

    /// FTRAN: solves `B x = rhs` in place. `rhs` is indexed by constraint
    /// row on input and by basis slot on output.
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        let lu = &self.lu;
        // Forward elimination (L), in original row coordinates.
        for k in 0..self.m {
            let t = x[lu.p[k]];
            if t != 0.0 {
                for &(r, v) in lu.l_col(k) {
                    x[r] -= t * v;
                }
            }
        }
        // Gather into pivot coordinates and back-substitute (U).
        let y = &mut self.scratch;
        for (yk, &r) in y.iter_mut().zip(&lu.p) {
            *yk = x[r];
        }
        for j in (0..self.m).rev() {
            let xj = y[j] / lu.u_diag[j];
            y[j] = xj;
            if xj != 0.0 {
                for &(k, v) in lu.u_col(j) {
                    y[k] -= xj * v;
                }
            }
        }
        // Undo the sparsity-driven column permutation: factor column k is
        // basis slot q[k].
        for (&slot, &yk) in lu.q.iter().zip(y.iter()) {
            x[slot] = yk;
        }
        // Apply the eta file: x <- E_k^{-1} ... E_1^{-1} x.
        for eta in &self.etas {
            let t = x[eta.slot] / eta.diag;
            if t != 0.0 {
                for &(i, v) in &self.eta_ent[eta.start..eta.end] {
                    x[i] -= t * v;
                }
            }
            x[eta.slot] = t;
        }
    }

    /// BTRAN: solves `Bᵀ y = rhs` in place. `rhs` is indexed by basis slot
    /// on input and by constraint row on output.
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Undo the eta file transposed, newest first.
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.slot];
            for &(i, v) in &self.eta_ent[eta.start..eta.end] {
                acc -= v * x[i];
            }
            x[eta.slot] = acc / eta.diag;
        }
        let lu = &self.lu;
        // Solve Uᵀ w = x in pivot coordinates (forward), permuting the
        // slot-indexed input into factor-column order.
        let w = &mut self.scratch;
        for j in 0..self.m {
            let mut acc = x[lu.q[j]];
            for &(k, v) in lu.u_col(j) {
                acc -= v * w[k];
            }
            w[j] = acc / lu.u_diag[j];
        }
        // Solve Lᵀ z = w (backward), then scatter through the permutation.
        for k in (0..self.m).rev() {
            let mut acc = w[k];
            for &(r, v) in lu.l_col(k) {
                acc -= v * w[lu.pinv[r]];
            }
            w[k] = acc;
        }
        for (&r, &wk) in lu.p.iter().zip(w.iter()) {
            x[r] = wk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let mut b = Basis::factorize(&a, &[0, 1, 2], 1e-11).unwrap();
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
        let mut b = Basis::factorize(&a, &[0, 1], 1e-11).unwrap();
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
        let mut b = Basis::factorize(&a, &[0, 1], 1e-11).unwrap();
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
        let mut fresh = Basis::factorize(&a, &[2, 1], 1e-11).unwrap();
        let mut x2 = vec![6.0, 4.0];
        fresh.ftran(&mut x2);
        assert!((x2[0] - 2.0).abs() < 1e-12);
        assert!((x2[1] - 2.0).abs() < 1e-12);
    }

    /// The elimination before reach ordering: every earlier step, in step
    /// order, under the same `t != 0.0` test.
    fn eliminate_full_scan(
        lu: &LuFactors,
        work: &mut [f64],
        touched: &mut Vec<usize>,
        _pending: &mut [u64],
    ) {
        for k in 0..lu.p.len() {
            let t = work[lu.p[k]];
            if t != 0.0 {
                for &(r, v) in lu.l_col(k) {
                    if work[r] == 0.0 {
                        touched.push(r);
                    }
                    work[r] -= t * v;
                }
            }
        }
    }

    /// splitmix64: the test's own generator, seeded by the proptest case.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A value in `[-2, 2)` with an exact zero one time in four.
        fn value(&mut self) -> f64 {
            if self.below(4) == 0 {
                0.0
            } else {
                (self.next() >> 11) as f64 / (1u64 << 51) as f64 - 2.0
            }
        }
    }

    /// A random `m`-row matrix and a basis selection from it. Columns
    /// `0..m` are unit columns; column `m + i` is dense or holds a few
    /// nonzeros, one of them in row `perm[i]`; columns `2m..3m` are
    /// multiples of selected columns. Slot `i` selects `e_perm[i]` or
    /// column `m + i`, so the selection is structurally nonsingular, except
    /// that one case in eight puts a multiple of a selected column in
    /// some slot, which makes it (numerically) singular.
    fn random_case(m: usize, rng: &mut Rng) -> (CscMatrix, Vec<usize>) {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in 0..m {
            perm.swap(i, i + rng.below(m - i));
        }
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|r| vec![(r, 1.0)]).collect();
        for &row in &perm {
            let mut col: Vec<(usize, f64)> = if rng.below(2) == 0 {
                (0..m).map(|r| (r, rng.value())).collect()
            } else {
                (0..rng.below(4))
                    .map(|_| (rng.below(m), rng.value()))
                    .collect()
            };
            col.retain(|e| e.0 != row && e.1 != 0.0);
            col.push((row, 1.0 + rng.value().abs()));
            cols.push(col);
        }
        let mut basis: Vec<usize> = (0..m)
            .map(|i| if rng.below(3) == 0 { perm[i] } else { m + i })
            .collect();
        for _ in 0..m {
            let scale = 1.0 + rng.value().abs();
            let src = &cols[basis[rng.below(m)]];
            cols.push(src.iter().map(|&(r, v)| (r, scale * v)).collect());
        }
        if rng.below(8) == 0 {
            basis[rng.below(m)] = 2 * m + rng.below(m);
        }
        (CscMatrix::from_columns(m, &cols), basis)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// FTRAN and BTRAN of the same random right-hand side through both
    /// bases, compared bit for bit.
    fn same_solves(fast: &mut Basis, full: &mut Basis, rng: &mut Rng) -> Result<(), TestCaseError> {
        let rhs: Vec<f64> = (0..fast.m).map(|_| rng.value()).collect();
        for transpose in [false, true] {
            let (mut x, mut y) = (rhs.clone(), rhs.clone());
            if transpose {
                fast.btran(&mut x);
                full.btran(&mut y);
            } else {
                fast.ftran(&mut x);
                full.ftran(&mut y);
            }
            prop_assert_eq!(
                bits(&x),
                bits(&y),
                "transpose {}: {:?} vs {:?}",
                transpose,
                x,
                y
            );
        }
        Ok(())
    }

    /// One case: a [`random_case`] factorized both ways, then `updates`
    /// random pivots through the eta file, refactorizing in place whenever
    /// it is full.
    fn check_case(m: usize, seed: u64, updates: usize) -> Result<(), TestCaseError> {
        let mut rng = Rng(seed);
        let (a, basis) = random_case(m, &mut rng);
        // `cols[..m]` is the basis, the rest the nonbasic columns.
        let mut cols = basis.clone();
        cols.extend((0..a.ncols()).filter(|c| !basis.contains(c)));
        let tol = 1e-11;
        let fast = Basis::factorize(&a, &cols[..m], tol);
        let mut full = Basis::default();
        let full_ok = full.refactor_with(&a, &cols[..m], tol, false, eliminate_full_scan);
        prop_assert_eq!(fast.is_some(), full_ok, "singular verdict");
        let Some(mut fast) = fast else {
            return Ok(());
        };
        same_solves(&mut fast, &mut full, &mut rng)?;
        for _ in 0..updates {
            let enter = m + rng.below(cols.len() - m);
            let mut w = vec![0.0; m];
            a.scatter_col(cols[enter], &mut w, &mut Vec::new());
            let mut w_full = w.clone();
            fast.ftran(&mut w);
            full.ftran(&mut w_full);
            prop_assert_eq!(bits(&w), bits(&w_full));
            let slot = (0..m)
                .max_by(|&i, &j| w[i].abs().total_cmp(&w[j].abs()))
                .unwrap_or(0);
            let accepted = fast.update(slot, &w);
            prop_assert_eq!(accepted, full.update(slot, &w_full));
            if !accepted {
                continue;
            }
            cols.swap(slot, enter);
            if fast.needs_refactor() {
                let ok = fast.refactor(&a, &cols[..m], tol);
                let full_ok = full.refactor_with(&a, &cols[..m], tol, false, eliminate_full_scan);
                prop_assert_eq!(ok, full_ok, "singular verdict on refactorization");
                if !ok {
                    return Ok(());
                }
            }
            same_solves(&mut fast, &mut full, &mut rng)?;
        }
        Ok(())
    }

    /// One completion: a [`random_case`] selection with about a quarter of
    /// its slots emptied, completed with the unit columns `0..m` as the
    /// logical ones.
    fn check_completion(m: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = Rng(seed);
        let (a, named) = random_case(m, &mut rng);
        let named: Vec<usize> = (named.iter())
            .map(|&c| if rng.below(4) == 0 { NO_COLUMN } else { c })
            .collect();
        let mut cols = named.clone();
        let (mut fac, added) = Basis::complete(&a, &mut cols, |row| row, 1e-11);
        // One column per slot, none twice; every named column it kept
        // stays in its slot.
        let mut distinct = cols.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), m);
        prop_assert!(distinct.iter().all(|&c| c < a.ncols()));
        let kept = (named.iter().zip(&cols)).filter(|(n, c)| n == c).count();
        prop_assert_eq!(kept + added, m);
        // The factors solve the completed basis: `B x = rhs`.
        let rhs: Vec<f64> = (0..m).map(|_| rng.value()).collect();
        let mut x = rhs.clone();
        fac.ftran(&mut x);
        let mut back = vec![0.0; m];
        for (&c, &xs) in cols.iter().zip(&x) {
            for (r, v) in a.col(c) {
                back[r] += v * xs;
            }
        }
        let scale = 1.0 + x.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        for (b, r) in back.iter().zip(&rhs) {
            prop_assert!((b - r).abs() <= 1e-9 * scale, "{:?} vs {:?}", back, rhs);
        }
        // With nothing to add, the factors are the plain factorization's.
        if added == 0 {
            let mut plain = Basis::factorize(&a, &cols, 1e-11).expect("nonsingular");
            same_solves(&mut fac, &mut plain, &mut rng)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`Basis::complete`] skips dependent columns, fills every row
        /// left without a pivot with its logical column, and factorizes
        /// the completed basis; a complete nonsingular selection gets
        /// exactly [`Basis::factorize`]'s factors.
        #[test]
        fn completion_factorizes_a_full_basis(m in 2usize..40, seed in any::<u64>()) {
            check_completion(m, seed)?;
        }

        /// Reach-ordered elimination against the full scan: the same
        /// singular verdicts and bit-identical solves, through up to 70
        /// eta updates (crossing the in-place refactorization at
        /// `REFACTOR_EVERY`).
        #[test]
        fn reach_ordered_elimination_matches_the_full_scan(
            m in 2usize..40,
            seed in any::<u64>(),
            updates in 0usize..=70,
        ) {
            check_case(m, seed, updates)?;
        }
    }
}
