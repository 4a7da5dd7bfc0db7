//! Dense row-major 2-D f32 tensor.
//!
//! Kept deliberately small: the inference engine only needs construction,
//! element/row access, slicing by row ranges, and a handful of in-place
//! element-wise operations. All shape violations panic — shapes are static
//! properties of the model architecture, so a mismatch is a programming
//! error, not a runtime condition to recover from.

use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// `rows` is typically the token axis and `cols` the feature axis, matching
/// the layout used by LLM inference engines (tokens-major activations).
#[derive(Clone, PartialEq)]
pub struct Tensor2 {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor2 {
    /// Creates a `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Number of rows (token axis).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature axis).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads one element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The whole backing buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies rows `[start, end)` into a new tensor.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor2 {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Tensor2 {
            data,
            rows: end - start,
            cols: self.cols,
        }
    }

    /// Vertically concatenates `self` on top of `other`.
    ///
    /// # Panics
    /// Panics when column counts differ.
    pub fn vcat(&self, other: &Tensor2) -> Tensor2 {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor2 {
            data,
            rows: self.rows + other.rows,
            cols: self.cols,
        }
    }

    /// Appends the rows of `other` in place.
    pub fn append_rows(&mut self, other: &Tensor2) {
        assert_eq!(self.cols, other.cols, "append_rows column mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Drops every row after the first `n` in place (no-op when the tensor
    /// already holds `n` rows or fewer); the allocation is kept.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.rows {
            self.data.truncate(n * self.cols);
            self.rows = n;
        }
    }

    /// Returns the transpose as a new tensor. Copies in square tiles read
    /// through row slices, so both the source rows and the destination
    /// rows of a tile stay cache-resident while it is written.
    pub fn transpose(&self) -> Tensor2 {
        const TILE: usize = 32;
        let (rows, cols) = self.shape();
        let mut out = Tensor2::zeros(cols, rows);
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(cols);
                for r in r0..r1 {
                    let src = &self.data[r * cols + c0..r * cols + c1];
                    for (c, &v) in (c0..c1).zip(src) {
                        out.data[c * rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor2) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element; 0 for empty tensors.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// The row-major backing buffer, as [`Tensor2::as_slice`].
impl AsRef<[f32]> for Tensor2 {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Debug for Tensor2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor2({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let t = Tensor2::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let t = Tensor2::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(0, 2), 2.0);
        assert_eq!(t.get(1, 0), 10.0);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor2::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn row_access_and_mutation() {
        let mut t = Tensor2::from_fn(3, 2, |r, _| r as f32);
        assert_eq!(t.row(1), &[1.0, 1.0]);
        t.row_mut(1)[0] = 9.0;
        assert_eq!(t.get(1, 0), 9.0);
    }

    #[test]
    fn slice_rows_copies_range() {
        let t = Tensor2::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn vcat_and_append_rows_agree() {
        let a = Tensor2::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Tensor2::from_fn(1, 2, |_, c| (10 + c) as f32);
        let cat = a.vcat(&b);
        let mut app = a.clone();
        app.append_rows(&b);
        assert_eq!(cat, app);
        assert_eq!(cat.rows(), 3);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor2::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(4, 2), t.get(2, 4));
    }

    #[test]
    fn transpose_matches_elementwise_definition_across_tile_edges() {
        for (rows, cols) in [(1, 1), (1, 70), (33, 32), (65, 31), (64, 96), (0, 5)] {
            let t = Tensor2::from_fn(rows, cols, |r, c| (r * 131 + c) as f32);
            let tt = t.transpose();
            assert_eq!(tt.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(tt.get(c, r), t.get(r, c), "{rows}x{cols} at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn truncate_rows_keeps_the_prefix_in_place() {
        let mut t = Tensor2::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let expect = t.slice_rows(0, 2);
        t.truncate_rows(9); // longer than the tensor: no-op
        assert_eq!(t.rows(), 4);
        t.truncate_rows(2);
        assert_eq!(t, expect);
        t.append_rows(&expect);
        assert_eq!(t.shape(), (4, 3));
        t.truncate_rows(0);
        assert!(t.is_empty());
        assert_eq!(t.shape(), (0, 3));
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor2::from_fn(2, 2, |_, _| 1.0);
        let b = Tensor2::from_fn(2, 2, |_, _| 2.0);
        a.add_assign(&b);
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn norms() {
        let t = Tensor2::from_vec(1, 2, vec![3.0, -4.0]);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.frob_norm() - 5.0).abs() < 1e-6);
    }
}
