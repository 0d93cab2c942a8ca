//! # dpod-fmatrix
//!
//! The frequency-matrix substrate for the `dp-odmatrix` workspace.
//!
//! A *frequency matrix* (FM) is a `d`-dimensional array `F₁ × F₂ × … × F_d`
//! of counts, the data structure sanitized by every mechanism in
//! *"Differentially-Private Publication of Origin-Destination Matrices with
//! Intermediate Stops"* (EDBT 2022). This crate provides:
//!
//! * [`Shape`] — dimension cardinalities with row-major strides;
//! * [`AxisBox`] — half-open axis-aligned orthotopes (the paper's
//!   *d-orthotope*), used both as partitions and as range queries;
//! * [`DenseMatrix`] — a dense, strided FM over any [`Element`] type
//!   (`u64` raw counts, `f64` sanitized counts);
//! * [`BoxRuns`] — the contiguous last-dimension runs of a box, the one
//!   walker every dense box scan (fill, sum, partition validation) uses;
//! * [`SparseMatrix`] — a hash-based FM for building high-dimensional OD
//!   matrices from trajectory streams before densifying;
//! * [`PrefixSum`] — d-dimensional summed-area tables answering any box sum
//!   in `O(2^d)`;
//! * [`coarsen_to_level`]/[`coarsen_shape`]/[`pyramid_root_level`] —
//!   resolution pyramids: coarse views derived deterministically by
//!   per-axis child summation (pure post-processing over sanitized
//!   matrices);
//! * [`entropy`] — Shannon entropy of an FM and of an FM under a
//!   partitioning (Definition 4 of the paper).
//!
//! The crate is dependency-free (besides `serde`) and fully deterministic;
//! all randomness lives in the sibling crates.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod axisbox;
pub mod codec;
mod dense;
pub mod entropy;
mod error;
mod marginal;
mod prefix;
mod pyramid;
mod shape;
mod sparse;

pub use axisbox::AxisBox;
pub use dense::{BoxRuns, DenseMatrix, Element};
pub use error::FmError;
pub use marginal::marginal_shape;
pub use prefix::PrefixSum;
pub use pyramid::{coarsen_once, coarsen_shape, coarsen_to_level, pyramid_root_level};
pub use shape::{CoordIter, Shape};
pub use sparse::SparseMatrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FmError>;
