use crate::{AxisBox, FmError, Result, Shape};
use serde::{Deserialize, Serialize};

/// Scalar types storable in a [`DenseMatrix`].
///
/// Raw frequency matrices use `u64`; sanitized (noisy) matrices use `f64`.
pub trait Element: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// Lossy conversion used by summary statistics and the query evaluator.
    fn to_f64(self) -> f64;
}

impl Element for u64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}
impl Element for u32 {
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}
impl Element for i64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}
impl Element for f64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

/// A dense, row-major `d`-dimensional frequency matrix.
///
/// This is the central data structure of the paper: entry
/// `F[c₁, …, c_d]` counts the individuals whose (origin, stops…,
/// destination) trajectory maps to cell `(c₁, …, c_d)`.
///
/// ```
/// use dpod_fmatrix::{DenseMatrix, Shape};
/// let mut m = DenseMatrix::<u64>::zeros(Shape::new(vec![3, 2]).unwrap());
/// m.add_at(&[1, 0], 5).unwrap();
/// assert_eq!(m.get(&[1, 0]).unwrap(), 5);
/// assert_eq!(m.total(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Element> DenseMatrix<T> {
    /// An all-zero (default) matrix of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let data = vec![T::default(); shape.size()];
        DenseMatrix { shape, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// [`FmError::LengthMismatch`] when `data.len() != shape.size()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Result<Self> {
        if data.len() != shape.size() {
            return Err(FmError::LengthMismatch {
                expected: shape.size(),
                got: data.len(),
            });
        }
        Ok(DenseMatrix { shape, data })
    }

    /// The matrix shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` only for the degenerate case of a zero-size buffer (cannot be
    /// constructed through [`Shape`], which rejects zero dims).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `coords`.
    ///
    /// # Errors
    /// Propagates coordinate validation from [`Shape::flat_index`].
    #[inline]
    pub fn get(&self, coords: &[usize]) -> Result<T> {
        Ok(self.data[self.shape.flat_index(coords)?])
    }

    /// Entry at a flat row-major index.
    #[inline]
    pub fn get_flat(&self, index: usize) -> T {
        self.data[index]
    }

    /// Sets the entry at `coords`.
    ///
    /// # Errors
    /// Propagates coordinate validation from [`Shape::flat_index`].
    #[inline]
    pub fn set(&mut self, coords: &[usize], value: T) -> Result<()> {
        let idx = self.shape.flat_index(coords)?;
        self.data[idx] = value;
        Ok(())
    }

    /// Sets the entry at a flat row-major index.
    #[inline]
    pub fn set_flat(&mut self, index: usize, value: T) {
        self.data[index] = value;
    }

    /// Read-only view of the row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Sum of all entries as `f64` (the paper's `N` for count matrices).
    pub fn total(&self) -> f64 {
        self.data.iter().map(|v| v.to_f64()).sum()
    }

    /// Sum of the entries inside `b` by direct iteration: `O(volume)`.
    ///
    /// Mechanisms use [`crate::PrefixSum`] instead; this is the reference
    /// implementation used in tests and for small boxes.
    pub fn box_sum_naive(&self, b: &AxisBox) -> f64 {
        debug_assert!(b.fits(&self.shape), "box must fit the matrix domain");
        self.box_slices(b).fold(0.0, |total, run| {
            total + run.iter().map(|v| v.to_f64()).sum::<f64>()
        })
    }

    /// The cells of `b` as contiguous last-dimension slices, in row-major
    /// order (one slice per [`BoxRuns`] run; none for an empty box).
    pub fn box_slices<'a>(&'a self, b: &'a AxisBox) -> impl Iterator<Item = &'a [T]> + 'a {
        debug_assert!(b.fits(&self.shape));
        BoxRuns::new(&self.shape, b).map(move |(start, run)| &self.data[start..start + run])
    }

    /// Applies `f` to every value, producing a matrix of another element type.
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U) -> DenseMatrix<U> {
        DenseMatrix {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Fills every cell of `b` with `value`.
    pub fn fill_box(&mut self, b: &AxisBox, value: T) {
        debug_assert!(b.fits(&self.shape));
        for (start, run) in BoxRuns::new(&self.shape, b) {
            self.data[start..start + run].fill(value);
        }
    }

    /// Maximum entry converted to `f64`; `None` for empty buffers.
    pub fn max_f64(&self) -> Option<f64> {
        self.data.iter().map(|v| v.to_f64()).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

impl DenseMatrix<u64> {
    /// Adds `amount` to the entry at `coords` (saturating).
    ///
    /// # Errors
    /// Propagates coordinate validation from [`Shape::flat_index`].
    #[inline]
    pub fn add_at(&mut self, coords: &[usize], amount: u64) -> Result<()> {
        let idx = self.shape.flat_index(coords)?;
        self.data[idx] = self.data[idx].saturating_add(amount);
        Ok(())
    }

    /// Builds a count matrix from a stream of cell coordinates, one count
    /// per point. Coordinates outside the domain are clamped to the nearest
    /// boundary cell — matching how the paper's city grids absorb GPS points
    /// on the region boundary.
    pub fn from_points<I>(shape: Shape, points: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[usize]>,
    {
        let mut m = DenseMatrix::<u64>::zeros(shape);
        let mut clamped = Vec::with_capacity(m.ndim());
        for p in points {
            let p = p.as_ref();
            debug_assert_eq!(p.len(), m.ndim());
            clamped.clear();
            clamped.extend(p.iter().zip(m.shape.dims()).map(|(&c, &d)| c.min(d - 1)));
            let idx = m.shape.flat_index_unchecked(&clamped);
            m.data[idx] = m.data[idx].saturating_add(1);
        }
        m
    }

    /// Total count as an exact integer.
    pub fn total_u64(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Number of non-zero entries.
    pub fn nonzero_count(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }
}

/// The one run walker: iterates `(start_flat_index, run_length)` over
/// the contiguous last-dimension runs of a box, in row-major order.
///
/// Every dense scan over a box (filling, summing, slicing, partition
/// validation) walks these runs instead of single cells, so it steps
/// its odometer once per run and touches memory sequentially. An empty
/// box yields no run.
///
/// ```
/// use dpod_fmatrix::{AxisBox, BoxRuns, Shape};
/// let s = Shape::new(vec![3, 4]).unwrap();
/// let b = AxisBox::new(vec![1, 1], vec![3, 3]).unwrap();
/// let runs: Vec<_> = BoxRuns::new(&s, &b).collect();
/// assert_eq!(runs, vec![(5, 2), (9, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct BoxRuns<'a> {
    strides: &'a [usize],
    b: &'a AxisBox,
    /// Coordinates of the next run's first cell (the last one stays at
    /// `lo`).
    coords: Vec<usize>,
    /// Flat index of the next run's first cell; `None` once done.
    next: Option<usize>,
    run: usize,
}

impl<'a> BoxRuns<'a> {
    /// The runs of `b`, which must have `shape`'s dimensionality and fit
    /// its domain.
    pub fn new(shape: &'a Shape, b: &'a AxisBox) -> Self {
        debug_assert!(b.fits(shape), "box must fit the domain");
        let empty = b.is_empty();
        BoxRuns {
            strides: shape.strides(),
            b,
            coords: b.lo().to_vec(),
            next: (!empty).then(|| shape.flat_index_unchecked(b.lo())),
            run: if empty { 0 } else { b.extent(shape.ndim() - 1) },
        }
    }
}

impl Iterator for BoxRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next?;
        // Odometer over the leading dimensions, moving the flat index
        // with each step instead of recomputing it.
        let (lo, hi) = (self.b.lo(), self.b.hi());
        let mut at = start;
        let mut dim = self.coords.len() - 1;
        self.next = loop {
            if dim == 0 {
                break None;
            }
            dim -= 1;
            if self.coords[dim] + 1 < hi[dim] {
                self.coords[dim] += 1;
                break Some(at + self.strides[dim]);
            }
            at -= (self.coords[dim] - lo[dim]) * self.strides[dim];
            self.coords[dim] = lo[dim];
        };
        Some((start, self.run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::<u64>::zeros(shape(&[2, 3]));
        assert_eq!(m.total(), 0.0);
        m.set(&[1, 2], 7).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap(), 7);
        assert_eq!(m.get_flat(5), 7);
        assert!(m.get(&[2, 0]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![1, 2, 3]).is_err());
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![1, 2, 3, 4]).unwrap();
        assert_eq!(m.total(), 10.0);
        assert_eq!(m.total_u64(), 10);
    }

    #[test]
    fn from_points_clamps_to_domain() {
        let m = DenseMatrix::<u64>::from_points(
            shape(&[3, 3]),
            [[0usize, 0], [2, 2], [9, 9], [1, 5]].iter(),
        );
        assert_eq!(m.total_u64(), 4);
        assert_eq!(m.get(&[2, 2]).unwrap(), 2, "out-of-range point clamps");
        assert_eq!(m.get(&[1, 2]).unwrap(), 1);
    }

    #[test]
    fn box_sum_naive_matches_manual() {
        let m = DenseMatrix::<u64>::from_vec(
            shape(&[3, 4]),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        )
        .unwrap();
        let b = AxisBox::new(vec![1, 1], vec![3, 3]).unwrap();
        // rows 1..3, cols 1..3 => 6+7 + 10+11
        assert_eq!(m.box_sum_naive(&b), 34.0);
        assert_eq!(m.box_sum_naive(&AxisBox::full(m.shape())), 78.0);
        let empty = AxisBox::new(vec![1, 2], vec![1, 4]).unwrap();
        assert_eq!(m.box_sum_naive(&empty), 0.0);
    }

    #[test]
    fn box_sum_naive_3d() {
        let s = shape(&[2, 3, 2]);
        let m = DenseMatrix::<u64>::from_vec(s.clone(), (1..=12).collect::<Vec<u64>>()).unwrap();
        let b = AxisBox::new(vec![0, 1, 0], vec![2, 3, 2]).unwrap();
        let expected: f64 = b.iter_points().map(|c| m.get(&c).unwrap() as f64).sum();
        assert_eq!(m.box_sum_naive(&b), expected);
    }

    #[test]
    fn box_slices_yield_all_cells() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 3]), vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = AxisBox::new(vec![0, 1], vec![2, 3]).unwrap();
        let runs: Vec<&[u64]> = m.box_slices(&b).collect();
        assert_eq!(runs, vec![&[2, 3][..], &[5, 6][..]]);
        let empty = AxisBox::new(vec![1, 1], vec![1, 3]).unwrap();
        assert_eq!(m.box_slices(&empty).count(), 0);
    }

    #[test]
    fn fill_box_only_touches_box() {
        let mut m = DenseMatrix::<f64>::zeros(shape(&[3, 3]));
        let b = AxisBox::new(vec![0, 0], vec![2, 2]).unwrap();
        m.fill_box(&b, 1.5);
        assert_eq!(m.total(), 6.0);
        assert_eq!(m.get(&[2, 2]).unwrap(), 0.0);
        assert_eq!(m.get(&[1, 1]).unwrap(), 1.5);
    }

    #[test]
    fn map_converts_element_type() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![1, 2, 3, 4]).unwrap();
        let f = m.map(|v| v as f64 * 0.5);
        assert_eq!(f.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn nonzero_and_max() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![0, 2, 0, 9]).unwrap();
        assert_eq!(m.nonzero_count(), 2);
        assert_eq!(m.max_f64(), Some(9.0));
    }

    #[test]
    fn saturating_add() {
        let mut m = DenseMatrix::<u64>::zeros(shape(&[1]));
        m.set(&[0], u64::MAX - 1).unwrap();
        m.add_at(&[0], 5).unwrap();
        assert_eq!(m.get(&[0]).unwrap(), u64::MAX);
    }
}
