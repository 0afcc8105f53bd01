//! Compressed-sparse-row (CSR) matrices with a dense/sparse **bit-equivalence
//! contract**.
//!
//! The crime tensors this system learns from are mostly zeros (the paper's
//! Fig. 1 density profile), and the dense [`Tensor::matmul`] kernel already
//! skips zero lhs entries while accumulating contributions in ascending-`k`
//! order per output element. A CSR kernel that walks each row's stored
//! entries in ascending column order, skips stored values that compare equal
//! to `0.0`, and assigns every output row to exactly one thread therefore
//! reproduces the dense result **bit-for-bit** — at every thread count — while
//! touching only the stored entries. `tests/sparse_equivalence.rs` pins this
//! contract the same way `tests/parallel_equivalence.rs` pins serial/parallel.
//!
//! # Representation
//!
//! - Strictly 2-D, row-major logical shape `[rows, cols]`.
//! - `row_ptr[r]..row_ptr[r + 1]` indexes the entries of row `r`; within a
//!   row, column indices are strictly increasing.
//! - [`SparseTensor::from_dense`] stores every element whose **bit pattern**
//!   is non-zero: `-0.0` and NaN payloads survive a dense→sparse→dense round
//!   trip losslessly, while `+0.0` stays implicit. Compute kernels still skip
//!   stored values comparing `== 0.0` (which `-0.0` does), matching the dense
//!   kernel's skip exactly.

use crate::{Result, Tensor, TensorError};

/// Minimum multiply-add flops a row band must carry before it is worth a
/// thread (mirrors the dense matmul threshold).
const MIN_FLOPS_PER_BAND: usize = 1 << 16;

/// A 2-D CSR sparse matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx` / `values`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, strictly increasing within a row.
    col_idx: Vec<usize>,
    /// Stored entry values (may include explicit `-0.0` and NaN).
    values: Vec<f32>,
}

impl SparseTensor {
    /// Build from a rank-2 dense tensor, storing every element whose bit
    /// pattern is non-zero (so `-0.0` and NaN round-trip losslessly).
    pub fn from_dense(dense: &Tensor) -> Result<SparseTensor> {
        if dense.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "SparseTensor::from_dense",
                expected: 2,
                got: dense.ndim(),
                shape: dense.shape().to_vec(),
            });
        }
        let (rows, cols) = (dense.shape()[0], dense.shape()[1]);
        let data = dense.data();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v.to_bits() != 0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(SparseTensor { rows, cols, row_ptr, col_idx, values })
    }

    /// Materialise the dense `[rows, cols]` tensor. Bitwise-lossless for any
    /// matrix built with [`SparseTensor::from_dense`]: stored `-0.0`/NaN bits
    /// are written back verbatim and implicit entries are `+0.0`.
    pub fn to_dense(&self) -> Result<Tensor> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                out[r * self.cols + self.col_idx[e]] = self.values[e];
            }
        }
        Tensor::from_vec(out, &[self.rows, self.cols])
    }

    /// Logical shape `[rows, cols]`.
    pub fn shape(&self) -> [usize; 2] {
        [self.rows, self.cols]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored-entry fraction `nnz / (rows · cols)` (0 for an empty shape).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        usize_to_f64(self.nnz()) / usize_to_f64(total)
    }

    /// CSR transpose via a counting sort: within each output row, entries are
    /// produced in ascending (old-row) column order, so kernels over the
    /// transpose keep the dense ascending-`k` accumulation order.
    pub fn transpose(&self) -> SparseTensor {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[e];
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = r;
                values[slot] = self.values[e];
            }
        }
        SparseTensor { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Sparse × dense product: `[m, k] · [k, n] → [m, n]`, **bit-identical**
    /// to `self.to_dense().matmul(b)` at every thread count.
    ///
    /// Each output row is produced by one thread; a row's contributions are
    /// accumulated in ascending stored-column order, and stored values
    /// comparing `== 0.0` (explicit `-0.0`) are skipped — exactly the dense
    /// kernel's `av == 0.0` skip.
    pub fn matmul_dense(&self, b: &Tensor) -> Result<Tensor> {
        if b.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sparse_matmul rhs",
                expected: 2,
                got: b.ndim(),
                shape: b.shape().to_vec(),
            });
        }
        let (k, n) = (b.shape()[0], b.shape()[1]);
        if self.cols != k {
            return Err(TensorError::ShapeMismatch {
                op: "sparse_matmul",
                lhs: vec![self.rows, self.cols],
                rhs: b.shape().to_vec(),
            });
        }
        let (m, bd) = (self.rows, b.data());
        let mut out = vec![0.0f32; m * n];
        let avg_nnz = self.nnz() / m.max(1);
        let min_rows = (MIN_FLOPS_PER_BAND / (2 * avg_nnz * n).max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut out, m, n, min_rows, |rows, band| {
            for (local, r) in rows.enumerate() {
                let orow = &mut band[local * n..(local + 1) * n];
                for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let av = self.values[e];
                    // Matches the dense kernel's `av == 0.0` zero-lhs skip:
                    // true for ±0.0 (a stored -0.0), false for NaN.
                    if av.abs().to_bits() == 0 {
                        continue;
                    }
                    let brow = &bd[self.col_idx[e] * n..self.col_idx[e] * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Dense gradient of `self · b` w.r.t. the sparse operand, **scattered
    /// through the sparse pattern**: `out[r, c] = Σ_j g[r, j] · b[c, j]` at
    /// stored `(r, c)` positions, `0` elsewhere.
    ///
    /// At pattern positions the value is bit-identical to the dense backward
    /// `g.matmul(b.transpose2d())` — same ascending-`j` accumulation, same
    /// zero-lhs (`g[r, j] == 0.0`) skip.
    pub fn pattern_grad(&self, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        let gs = g.shape();
        let bs = b.shape();
        if g.ndim() != 2
            || b.ndim() != 2
            || gs[0] != self.rows
            || bs[0] != self.cols
            || gs[1] != bs[1]
        {
            return Err(TensorError::ShapeMismatch {
                op: "sparse pattern_grad",
                lhs: gs.to_vec(),
                rhs: bs.to_vec(),
            });
        }
        let n = gs[1];
        let (m, k) = (self.rows, self.cols);
        let (gd, bd) = (g.data(), b.data());
        let mut out = vec![0.0f32; m * k];
        let avg_nnz = self.nnz() / m.max(1);
        let min_rows = (MIN_FLOPS_PER_BAND / (2 * avg_nnz * n).max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut out, m, k, min_rows, |rows, band| {
            for (local, r) in rows.enumerate() {
                let grow = &gd[r * n..(r + 1) * n];
                let orow = &mut band[local * k..(local + 1) * k];
                for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let c = self.col_idx[e];
                    let brow = &bd[c * n..(c + 1) * n];
                    let slot = &mut orow[c];
                    for (&gv, &bv) in grow.iter().zip(brow) {
                        // The dense backward's `gv == 0.0` skip, bitwise
                        // (±0.0 skipped, NaN kept — identical semantics).
                        if gv.abs().to_bits() == 0 {
                            continue;
                        }
                        *slot += gv * bv;
                    }
                }
            }
        });
        Tensor::from_vec(out, &[m, k])
    }
}

/// `usize → f64` without an `as` cast (R7 bans numeric `as` in kernel
/// crates): `u32` covers every tensor this system builds; larger values
/// saturate so the helper stays total.
fn usize_to_f64(x: usize) -> f64 {
    u32::try_from(x).map_or(f64::from(u32::MAX), f64::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[r, c]).unwrap()
    }

    #[test]
    fn from_dense_round_trip_preserves_bits() {
        let d = dense(vec![1.5, 0.0, -0.0, f32::NAN, 0.0, -3.25], 2, 3);
        let s = SparseTensor::from_dense(&d).unwrap();
        // +0.0 stays implicit; -0.0 and NaN are stored explicitly.
        assert_eq!(s.nnz(), 4);
        let back = s.to_dense().unwrap();
        for (a, b) in d.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn spmm_matches_dense_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (7, 300, 9);
        let mut a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        // ~90% zeros, like a crime tensor.
        for v in a.data_mut() {
            if rng.gen_range(0.0f32..1.0) < 0.9 {
                *v = 0.0;
            }
        }
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let s = SparseTensor::from_dense(&a).unwrap();
        let got = s.matmul_dense(&b).unwrap();
        let want = a.matmul(&b).unwrap();
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transpose_round_trips_and_sorts() {
        let d = dense(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0], 2, 3);
        let s = SparseTensor::from_dense(&d).unwrap();
        let t = s.transpose();
        assert_eq!(t.shape(), [3, 2]);
        assert_eq!(t.to_dense().unwrap().data(), d.transpose2d().unwrap().data());
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn density_and_shape_accessors() {
        let mut d = Tensor::zeros(&[4, 5]);
        d.data_mut()[0] = 1.0;
        d.data_mut()[19] = 2.0;
        let s = SparseTensor::from_dense(&d).unwrap();
        assert_eq!(s.shape(), [4, 5]);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (4, 5, 2));
        assert!((s.density() - 0.1).abs() < 1e-12);
    }
}
