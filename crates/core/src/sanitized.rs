use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum, Shape};
use dpod_partition::Partitioning;
use std::sync::OnceLock;

/// How a [`SanitizedMatrix`] was structured, for introspection.
///
/// Query answering never consults this — the dense estimate plus its
/// prefix-sum table is the uniform interface — but the release artifact
/// is built from it, tests validate the `Boxes` variant and the
/// visualizer renders it.
#[derive(Debug, Clone)]
pub enum PartitionSummary {
    /// One released value per matrix entry with no grouping structure
    /// (IDENTITY, Privelet). Storing a per-cell box list for million-cell
    /// matrices would be pure overhead.
    PerEntry,
    /// Disjoint partitions, each released with one noisy total.
    Boxes {
        /// The partition geometry.
        partitioning: Partitioning,
        /// The noisy total published for each partition (same order).
        noisy_counts: Vec<f64>,
    },
}

/// The DP-sanitized output of a mechanism.
///
/// Per the paper's publication model (§2.2), the released object is the set
/// of partition boundaries with their noisy counts; queries are answered
/// under an intra-partition uniformity assumption. This struct holds that
/// object and applies the assumption on first read: the per-entry estimate
/// `matrix[c] = noisy_count(P) / |P|` for the partition `P ∋ c`, and the
/// prefix-sum table over it that makes any range query `O(2^d)`, are each
/// built once, by whichever read needs them first. Publishing
/// (sanitize → [`PublishedRelease`](crate::PublishedRelease)) reads
/// neither, so it never pays for them;
/// [`PublishedRelease::into_sanitized`](crate::PublishedRelease::into_sanitized)
/// builds both before it returns, so a served release's first query does
/// not either.
#[derive(Debug, Clone)]
pub struct SanitizedMatrix {
    mechanism: String,
    epsilon: f64,
    domain: Shape,
    summary: PartitionSummary,
    /// Given up front for [`PartitionSummary::PerEntry`]; spread from the
    /// partitions on first read otherwise.
    matrix: OnceLock<DenseMatrix<f64>>,
    prefix: OnceLock<PrefixSum<f64>>,
}

impl SanitizedMatrix {
    /// Wraps a per-entry estimate matrix (for mechanisms without partition
    /// structure).
    pub fn from_entries(mechanism: &str, epsilon: f64, matrix: DenseMatrix<f64>) -> Self {
        SanitizedMatrix {
            mechanism: mechanism.to_string(),
            epsilon,
            domain: matrix.shape().clone(),
            summary: PartitionSummary::PerEntry,
            matrix: OnceLock::from(matrix),
            prefix: OnceLock::new(),
        }
    }

    /// A release of one noisy count per partition. Reads spread each
    /// count uniformly over its cells (the paper's uniformity
    /// assumption).
    ///
    /// # Panics
    /// Debug-asserts that `noisy_counts` matches the partition count and
    /// that no partition is empty.
    pub fn from_partitions(
        mechanism: &str,
        epsilon: f64,
        domain: Shape,
        partitioning: Partitioning,
        noisy_counts: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(partitioning.len(), noisy_counts.len());
        debug_assert!(
            partitioning.boxes().iter().all(|b| b.volume() > 0),
            "empty partition released"
        );
        SanitizedMatrix {
            mechanism: mechanism.to_string(),
            epsilon,
            domain,
            summary: PartitionSummary::Boxes {
                partitioning,
                noisy_counts,
            },
            matrix: OnceLock::new(),
            prefix: OnceLock::new(),
        }
    }

    /// Supplies the per-entry estimate, built by the caller from the
    /// partitions with the uniformity formula, so the first read does not
    /// build it again.
    pub(crate) fn with_estimate(self, matrix: DenseMatrix<f64>) -> Self {
        debug_assert_eq!(matrix.shape(), &self.domain);
        SanitizedMatrix {
            matrix: OnceLock::from(matrix),
            ..self
        }
    }

    /// Builds the estimate and its prefix table now, so that no later read
    /// pays for them.
    pub(crate) fn built(self) -> Self {
        self.prefix();
        self
    }

    /// Whether the estimate, and its prefix table, are built.
    #[cfg(test)]
    pub(crate) fn built_parts(&self) -> (bool, bool) {
        (self.matrix.get().is_some(), self.prefix.get().is_some())
    }

    /// Name of the producing mechanism.
    pub fn mechanism(&self) -> &str {
        &self.mechanism
    }

    /// Total privacy budget the release consumed.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The matrix domain.
    pub fn domain(&self) -> &Shape {
        &self.domain
    }

    /// The dense per-entry estimate (uniformity applied), built on first
    /// read.
    pub fn matrix(&self) -> &DenseMatrix<f64> {
        self.matrix.get_or_init(|| {
            let mut matrix = DenseMatrix::<f64>::zeros(self.domain.clone());
            if let PartitionSummary::Boxes {
                partitioning,
                noisy_counts,
            } = &self.summary
            {
                for (b, &count) in partitioning.boxes().iter().zip(noisy_counts) {
                    matrix.fill_box(b, count / b.volume() as f64);
                }
            }
            matrix
        })
    }

    fn prefix(&self) -> &PrefixSum<f64> {
        self.prefix
            .get_or_init(|| PrefixSum::from_f64(self.matrix()))
    }

    /// The partition structure of the release.
    pub fn summary(&self) -> &PartitionSummary {
        &self.summary
    }

    /// Number of released partitions (= number of entries for
    /// [`PartitionSummary::PerEntry`]).
    pub fn num_partitions(&self) -> usize {
        match &self.summary {
            PartitionSummary::PerEntry => self.domain.size(),
            PartitionSummary::Boxes { partitioning, .. } => partitioning.len(),
        }
    }

    /// Estimated count inside the half-open range `q` — the private answer
    /// to the paper's range queries (Definition 3), `O(2^d)`.
    pub fn range_sum(&self, q: &AxisBox) -> f64 {
        self.prefix().box_sum(q)
    }

    /// Estimated count of a single entry.
    ///
    /// # Errors
    /// Propagates coordinate validation.
    pub fn entry(&self, coords: &[usize]) -> dpod_fmatrix::Result<f64> {
        self.matrix().get(coords)
    }

    /// Estimated total count of the matrix.
    pub fn total(&self) -> f64 {
        self.range_sum(&AxisBox::full(&self.domain))
    }

    /// DP post-processing: clamp negative per-entry estimates to zero.
    ///
    /// The paper publishes raw noisy counts (negative answers included);
    /// this opt-in variant exists for the ablation experiments and for
    /// downstream users that need physical counts.
    pub fn non_negative(&self) -> SanitizedMatrix {
        SanitizedMatrix {
            mechanism: format!("{}+nn", self.mechanism),
            epsilon: self.epsilon,
            domain: self.domain.clone(),
            summary: self.summary.clone(),
            matrix: OnceLock::from(self.matrix().map(|v| v.max(0.0))),
            prefix: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_partition::UniformGrid;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn from_partitions_spreads_uniformly() {
        let s = shape(&[4, 4]);
        let grid = UniformGrid::isotropic(&s, 2);
        let p = grid.to_partitioning();
        // Counts 8, 0, -4, 16 over the four 2x2 blocks.
        let out = SanitizedMatrix::from_partitions("test", 0.5, s, p, vec![8.0, 0.0, -4.0, 16.0]);
        assert_eq!(out.entry(&[0, 0]).unwrap(), 2.0);
        assert_eq!(out.entry(&[0, 2]).unwrap(), 0.0);
        assert_eq!(out.entry(&[2, 1]).unwrap(), -1.0);
        assert_eq!(out.entry(&[3, 3]).unwrap(), 4.0);
        assert_eq!(out.num_partitions(), 4);
        assert!((out.total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn range_sum_mixes_partition_fractions() {
        let s = shape(&[4]);
        let p = Partitioning::new_validated(
            s.clone(),
            vec![
                AxisBox::new(vec![0], vec![2]).unwrap(),
                AxisBox::new(vec![2], vec![4]).unwrap(),
            ],
        )
        .unwrap();
        let out = SanitizedMatrix::from_partitions("t", 1.0, s, p, vec![10.0, 2.0]);
        // Query [1, 3): half of partition 1 + half of partition 2.
        let q = AxisBox::new(vec![1], vec![3]).unwrap();
        assert!((out.range_sum(&q) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn per_entry_summary_counts_cells() {
        let m = DenseMatrix::<f64>::from_vec(shape(&[2, 3]), vec![1.0; 6]).unwrap();
        let out = SanitizedMatrix::from_entries("id", 0.1, m);
        assert_eq!(out.num_partitions(), 6);
        assert!(matches!(out.summary(), PartitionSummary::PerEntry));
    }

    #[test]
    fn non_negative_clamps_only_negatives() {
        let m = DenseMatrix::<f64>::from_vec(shape(&[3]), vec![-2.0, 0.5, 3.0]).unwrap();
        let out = SanitizedMatrix::from_entries("id", 0.1, m).non_negative();
        assert_eq!(out.entry(&[0]).unwrap(), 0.0);
        assert_eq!(out.entry(&[1]).unwrap(), 0.5);
        assert_eq!(out.entry(&[2]).unwrap(), 3.0);
        assert!(out.mechanism().ends_with("+nn"));
    }
}
