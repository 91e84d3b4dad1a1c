//! Dense row-major `f64` matrix, plus the `f32` batched GEMM kernels
//! backing the classifier MLPs.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Grouped "NT" GEMM over `f32` slices: `groups.len()` independent
/// `(rows_g × cols_g)` weight blocks, stacked row-major in `w`, each
/// multiplying its own `cols_g`-vector stacked in `x`, with stacked
/// biases — one contiguous sweep over one weight buffer instead of
/// `groups.len()` separate strided matmuls.
///
/// `groups[g] = (rows_g, cols_g)`. Expected lengths: `x` is
/// `Σ cols_g`, `w` is `Σ rows_g·cols_g`, `bias` is `Σ rows_g`; `out`
/// is resized to `Σ rows_g`. Each output element accumulates from its
/// bias seed sequentially over the columns — the operation order of a
/// one-sample matrix–vector product — so grouped inference is
/// bit-identical to per-group inference.
///
/// # Panics
///
/// Panics if any slice length disagrees with the group dimensions.
pub fn sgemm_grouped_nt(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    groups: &[(usize, usize)],
    out: &mut Vec<f32>,
) {
    let total_rows: usize = groups.iter().map(|&(r, _)| r).sum();
    let total_cols: usize = groups.iter().map(|&(_, c)| c).sum();
    let total_w: usize = groups.iter().map(|&(r, c)| r * c).sum();
    assert_eq!(x.len(), total_cols, "stacked input length mismatch");
    assert_eq!(w.len(), total_w, "stacked weight length mismatch");
    assert_eq!(bias.len(), total_rows, "stacked bias length mismatch");
    out.clear();
    out.resize(total_rows, 0.0);
    let (mut xo, mut wo, mut ro) = (0usize, 0usize, 0usize);
    for &(rows, cols) in groups {
        let xg = &x[xo..xo + cols];
        for r in 0..rows {
            let row = &w[wo + r * cols..wo + (r + 1) * cols];
            let mut acc = bias[ro + r];
            for (wv, xv) in row.iter().zip(xg) {
                acc += wv * xv;
            }
            out[ro + r] = acc;
        }
        xo += cols;
        wo += rows * cols;
        ro += rows;
    }
}

/// A dense, row-major matrix of `f64` values.
///
/// All control-design and perception matrices in this workspace are tiny
/// (≤ 12×12), so `Mat` keeps its storage in a plain `Vec<f64>` and performs
/// straightforward O(n³) arithmetic.
///
/// # Example
///
/// ```
/// use lkas_linalg::Mat;
///
/// let a = Mat::identity(2);
/// let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let c = (&a * &b).unwrap();
/// assert_eq!(c, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        assert!(cols > 0, "at least one column required");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Mat { rows: rows.len(), cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols || rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidInput("data length must equal rows*cols"));
        }
        Ok(Mat { rows, cols, data })
    }

    /// Creates a column vector from a slice.
    pub fn col_vec(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "vector must be nonempty");
        Mat { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(values: &[f64]) -> Self {
        let mut m = Mat::zeros(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes disagree.
    pub fn add_mat(&self, rhs: &Mat) -> Result<Mat> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        Ok(out)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes disagree.
    pub fn sub_mat(&self, rhs: &Mat) -> Result<Mat> {
        self.add_mat(&rhs.scale(-1.0))
    }

    /// Copies `block` into `self` with its top-left corner at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Mat) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "block out of range"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(row + i, col + j)] = block[(i, j)];
            }
        }
    }

    /// Extracts the `nrows × ncols` sub-matrix whose top-left corner is at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Mat {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols, "block out of range");
        let mut out = Mat::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                out[(i, j)] = self[(row + i, col + j)];
            }
        }
        out
    }

    /// Maximum absolute entry (∞-"entrywise" norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn norm_1(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// `true` if every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Symmetrizes the matrix in place: `self = (self + selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Checks symmetric positive definiteness via a Cholesky attempt.
    ///
    /// Returns `false` for non-square or non-finite matrices.
    pub fn is_positive_definite(&self) -> bool {
        if !self.is_square() || !self.is_finite() {
            return false;
        }
        // In-place Cholesky on a copy; fails iff a pivot is <= 0.
        let n = self.rows;
        let mut a = self.clone();
        for k in 0..n {
            let mut d = a[(k, k)];
            for j in 0..k {
                d -= a[(k, j)] * a[(k, j)];
            }
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let d = d.sqrt();
            a[(k, k)] = d;
            for i in (k + 1)..n {
                let mut s = a[(i, k)];
                for j in 0..k {
                    s -= a[(i, j)] * a[(k, j)];
                }
                a[(i, k)] = s / d;
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Mat {
    type Output = Result<Mat>;

    fn add(self, rhs: &Mat) -> Result<Mat> {
        self.add_mat(rhs)
    }
}

impl Sub for &Mat {
    type Output = Result<Mat>;

    fn sub(self, rhs: &Mat) -> Result<Mat> {
        self.sub_mat(rhs)
    }
}

impl Mul for &Mat {
    type Output = Result<Mat>;

    fn mul(self, rhs: &Mat) -> Result<Mat> {
        self.matmul(rhs)
    }
}

impl Neg for &Mat {
    type Output = Mat;

    fn neg(self) -> Mat {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let b = Mat::from_rows(&[&[3.0, 3.0], &[3.0, 3.0]]);
        let s = a.add_mat(&b).unwrap().sub_mat(&b).unwrap();
        assert!(s.approx_eq(&a, 1e-12));
    }

    #[test]
    fn block_roundtrip() {
        let mut big = Mat::zeros(4, 4);
        let small = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        big.set_block(1, 2, &small);
        assert_eq!(big.block(1, 2, 2, 2), small);
        assert_eq!(big[(0, 0)], 0.0);
        assert_eq!(big[(1, 2)], 1.0);
    }

    #[test]
    fn diag() {
        let d = Mat::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(2, 2)], 3.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn positive_definite_detection() {
        let pd = Mat::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        assert!(pd.is_positive_definite());
        let indef = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(!indef.is_positive_definite());
        let rect = Mat::zeros(2, 3);
        assert!(!rect.is_positive_definite());
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.norm_1(), 4.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], a[(1, 0)]);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_bounds_panics() {
        let a = Mat::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    /// The scalar reference: one matvec, bias-seeded sequential dot.
    fn matvec_ref(x: &[f32], w: &[f32], rows: usize, dim: usize, bias: &[f32]) -> Vec<f32> {
        (0..rows)
            .map(|r| {
                let mut acc = bias[r];
                for (wv, xv) in w[r * dim..(r + 1) * dim].iter().zip(x) {
                    acc += wv * xv;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn sgemm_grouped_nt_is_bit_identical_to_per_group_matvecs() {
        let groups = [(3usize, 4usize), (2, 6), (5, 4)];
        let total_cols: usize = groups.iter().map(|&(_, c)| c).sum();
        let total_w: usize = groups.iter().map(|&(r, c)| r * c).sum();
        let total_rows: usize = groups.iter().map(|&(r, _)| r).sum();
        let x: Vec<f32> = (0..total_cols).map(|i| ((i * 29 % 13) as f32 - 6.0) * 0.11).collect();
        let w: Vec<f32> = (0..total_w).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.09).collect();
        let bias: Vec<f32> = (0..total_rows).map(|i| i as f32 * 0.17 - 0.5).collect();
        let mut out = Vec::new();
        sgemm_grouped_nt(&x, &w, &bias, &groups, &mut out);
        let (mut xo, mut wo, mut ro) = (0usize, 0usize, 0usize);
        for (g, &(rows, cols)) in groups.iter().enumerate() {
            let expect = matvec_ref(
                &x[xo..xo + cols],
                &w[wo..wo + rows * cols],
                rows,
                cols,
                &bias[ro..ro + rows],
            );
            assert_eq!(&out[ro..ro + rows], expect.as_slice(), "group {g}");
            xo += cols;
            wo += rows * cols;
            ro += rows;
        }
    }

    #[test]
    #[should_panic]
    fn sgemm_grouped_nt_rejects_bad_lengths() {
        let mut out = Vec::new();
        sgemm_grouped_nt(&[1.0; 5], &[0.0; 12], &[0.0; 2], &[(2, 6)], &mut out);
    }
}
