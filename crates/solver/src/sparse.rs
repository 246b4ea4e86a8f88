//! Compressed sparse column (CSC) storage for the revised simplex.
//!
//! The constraint matrices Gavel's policies produce are extremely sparse:
//! an allocation variable `x[k][j]` appears in one or two per-job rows, one
//! per-type capacity row, and a handful of floor rows — a few nonzeros per
//! column regardless of problem size. [`CscMatrix`] stores exactly those
//! nonzeros, column-major, so the revised simplex ([`crate::revised`]) can
//! price columns and assemble basis matrices in time proportional to the
//! nonzero count instead of the dense `rows x cols` product.

/// A sparse matrix in compressed-sparse-column form. The shape is fixed at
/// construction; [`CscMatrix::set_col`] may rewrite one column's nonzeros
/// within the room the column was built with.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` is the room column `j` was built with
    /// in `row_idx` / `values`; its stored nonzeros are the first
    /// `col_len[j]` of those.
    col_ptr: Vec<usize>,
    col_len: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a matrix from its compressed columns: column `j`'s nonzeros
    /// are `row_idx[col_ptr[j]..col_ptr[j + 1]]` with the matching
    /// `values`, rows strictly ascending, no exact zeros.
    pub(crate) fn from_parts(
        nrows: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> CscMatrix {
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert!(col_ptr.windows(2).all(|w| {
            let rows = &row_idx[w[0]..w[1]];
            rows.windows(2).all(|r| r[0] < r[1]) && rows.iter().all(|&r| r < nrows)
        }));
        debug_assert!(values.iter().all(|&v| v != 0.0));
        let col_len = col_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        CscMatrix {
            nrows,
            ncols: col_ptr.len() - 1,
            col_ptr,
            col_len,
            row_idx,
            values,
        }
    }

    /// Replaces the nonzeros of column `j` by `entries` (strictly
    /// ascending rows; exact zeros are dropped, none being stored).
    /// Returns `false`, leaving the column untouched, when they do not fit
    /// the room the column was built with.
    pub fn set_col(&mut self, j: usize, entries: &[(usize, f64)]) -> bool {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let start = self.col_ptr[j];
        let room = self.col_ptr[j + 1] - start;
        if entries.iter().filter(|e| e.1 != 0.0).count() > room {
            return false;
        }
        let mut len = 0;
        for &(r, v) in entries {
            debug_assert!(r < self.nrows, "row index out of range");
            if v != 0.0 {
                self.row_idx[start + len] = r;
                self.values[start + len] = v;
                len += 1;
            }
        }
        self.col_len[j] = len;
        true
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_len.iter().sum()
    }

    /// Iterates the `(row, value)` nonzeros of column `j`.
    // Inlined, like the dot products below: the simplex calls them once
    // per column per pivot on columns of one to three entries, and a call
    // left out of line cost more than the entries it read.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j] + self.col_len[j];
        self.row_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&r, &v)| (r, v))
    }

    /// Number of nonzeros in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_len[j]
    }

    /// Sparse dot product `y . column_j` against a dense vector.
    #[inline(always)]
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.col(j) {
            acc += y[r] * v;
        }
        acc
    }

    /// Two sparse dot products of column `j` against two dense vectors in
    /// one pass over the column's nonzeros — the dual simplex prices every
    /// candidate column against both the dual prices and a row of `B⁻¹`,
    /// and the fused loop halves that scan.
    #[inline(always)]
    pub fn col_dot2(&self, j: usize, y: &[f64], z: &[f64]) -> (f64, f64) {
        let mut acc_y = 0.0;
        let mut acc_z = 0.0;
        for (r, v) in self.col(j) {
            acc_y += y[r] * v;
            acc_z += z[r] * v;
        }
        (acc_y, acc_z)
    }

    /// Scatters column `j` into a dense work vector, returning the touched
    /// row indices (for sparse resets).
    pub fn scatter_col(&self, j: usize, work: &mut [f64], touched: &mut Vec<usize>) {
        for (r, v) in self.col(j) {
            if work[r] == 0.0 {
                touched.push(r);
            }
            work[r] += v;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A matrix from per-column `(row, value)` lists in any order:
    /// repeated rows are summed and exact zeros dropped.
    pub(crate) fn csc(nrows: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let (mut col_ptr, mut row_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for col in columns {
            let mut merged = std::collections::BTreeMap::new();
            for &(r, v) in col {
                *merged.entry(r).or_insert(0.0) += v;
            }
            for (r, v) in merged.into_iter().filter(|e| e.1 != 0.0) {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix::from_parts(nrows, col_ptr, row_idx, values)
    }

    #[test]
    fn build_and_read() {
        let m = CscMatrix::from_parts(
            3,
            vec![0, 2, 3, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 2.0, -1.0, 3.0, 0.5],
        );
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.col(2).count(), 0);
        assert_eq!(m.col(3).collect::<Vec<_>>(), vec![(0, 3.0), (2, 0.5)]);
    }

    #[test]
    fn set_col_rewrites_within_room() {
        let mut m = csc(3, &[vec![(0, 1.0), (1, 2.0), (2, 3.0)], vec![(1, 5.0)]]);
        assert!(m.set_col(0, &[(2, -4.0)]));
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(2, -4.0)]);
        assert_eq!(m.col_nnz(0), 1);
        assert_eq!(m.nnz(), 2);
        // Zeros are dropped and the neighbouring column is untouched.
        assert!(m.set_col(0, &[(0, 0.0), (1, 7.0)]));
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(1, 7.0)]);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 5.0)]);
        // Growing back to the built size fits; beyond it does not.
        assert!(m.set_col(0, &[(0, 1.0), (1, 1.0), (2, 1.0)]));
        assert!(!m.set_col(1, &[(0, 1.0), (2, 1.0)]));
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 5.0)]);
    }

    #[test]
    fn col_dot_matches_dense() {
        let m = csc(3, &[vec![(0, 2.0), (2, -1.0)]]);
        assert_eq!(m.col_dot(0, &[1.0, 10.0, 4.0]), 2.0 - 4.0);
    }
}
