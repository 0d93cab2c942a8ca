use crate::daf::engine::{equal_cuts, DafPayload, DafRun, SplitPlanner};
use crate::daf::StopPolicy;
use crate::mechanism::with_noise;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::{DpError, Epsilon, Noise, Share};
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::tree::TreeNode;
use rand::RngCore;
use std::num::Wrapping;

/// DAF-Entropy (Algorithm 2, §4.2).
///
/// At every node the fanout comes from the entropy-balancing EBP rule
/// applied to the node's sanitized count, the remaining dimensions and the
/// remaining budget; splits are equal-width. Dense regions therefore get
/// recursively finer partitions while sparse regions prune early via the
/// [`StopPolicy`].
///
/// ```
/// use dpod_core::{daf::DafEntropy, Mechanism};
/// # use dpod_dp::Epsilon;
/// # use dpod_fmatrix::{DenseMatrix, Shape};
/// let mut input = DenseMatrix::<u64>::zeros(Shape::new(vec![64, 64]).unwrap());
/// input.add_at(&[10, 10], 10_000).unwrap();
/// let out = DafEntropy::default()
///     .sanitize(&input, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(3))
///     .unwrap();
/// assert_eq!(out.mechanism(), "DAF-Entropy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DafEntropy {
    /// When to prune a subtree into a leaf.
    pub stop: StopPolicy,
    /// Apply the constrained-inference post-processing of
    /// [`crate::daf::consistency`] before publishing (extension; costs no
    /// extra budget). Off by default — Algorithm 2 publishes raw leaves.
    pub consistency: bool,
}

impl DafEntropy {
    /// A variant that never prunes (ablation reference).
    pub fn without_stop() -> Self {
        DafEntropy {
            stop: StopPolicy::Never,
            ..DafEntropy::default()
        }
    }

    /// A variant with the consistency post-processing enabled.
    pub fn with_consistency() -> Self {
        DafEntropy {
            consistency: true,
            ..DafEntropy::default()
        }
    }

    /// Sanitizes and additionally returns the full decision tree with
    /// per-node budget bookkeeping (tests, visualization, ablations).
    ///
    /// # Errors
    /// Same contract as [`Mechanism::sanitize`].
    pub fn sanitize_with_tree(
        &self,
        input: &DenseMatrix<u64>,
        epsilon: Epsilon,
        rng: &mut dyn RngCore,
    ) -> Result<(SanitizedMatrix, TreeNode<DafPayload>), MechanismError> {
        with_noise(epsilon, rng, |noise| self.release_with_tree(input, noise))
    }

    fn release_with_tree(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<(SanitizedMatrix, TreeNode<DafPayload>), MechanismError> {
        let (sanitized, mut tree) =
            DafRun::execute(input, &EqualWidthPlanner, self.stop, self.name(), noise)?;
        if !self.consistency {
            return Ok((sanitized, tree));
        }
        crate::daf::consistency::enforce_consistency(&mut tree);
        let refined = crate::daf::engine::sanitized_from_tree(
            self.name(),
            noise.total(),
            input.shape(),
            &tree,
        );
        Ok((refined, tree))
    }
}

/// Equal-width, zero-budget split planning.
struct EqualWidthPlanner;

impl SplitPlanner for EqualWidthPlanner {
    fn partition_budget_fraction(&self) -> f64 {
        0.0
    }

    fn choose_cuts(
        &self,
        _input: &DenseMatrix<u64>,
        _prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        fanout: usize,
        _prt: Option<Share>,
        _noise: &mut Noise<'_>,
    ) -> Result<Vec<usize>, DpError> {
        Ok(equal_cuts(bounds.lo()[dim], bounds.hi()[dim], fanout))
    }
}

impl Mechanism for DafEntropy {
    fn name(&self) -> &'static str {
        "DAF-Entropy"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        Ok(self.release_with_tree(input, noise)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn clustered(dims: &[usize], hot: u64) -> DenseMatrix<u64> {
        let s = Shape::new(dims.to_vec()).unwrap();
        let mut m = DenseMatrix::zeros(s);
        let corner: Vec<usize> = dims.iter().map(|_| 1usize).collect();
        m.add_at(&corner, hot).unwrap();
        m
    }

    #[test]
    fn leaf_partitioning_is_valid() {
        let m = clustered(&[32, 32], 50_000);
        let (out, tree) = DafEntropy::default()
            .sanitize_with_tree(&m, eps(0.5), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        assert!(tree.check_split_invariant().is_ok());
        match out.summary() {
            crate::PartitionSummary::Boxes { partitioning, .. } => {
                assert!(partitioning.validate().is_ok());
            }
            other => panic!("expected boxes, got {other:?}"),
        }
    }

    #[test]
    fn budget_telescopes_on_every_path() {
        let m = clustered(&[16, 16, 16], 20_000);
        let (_, tree) = DafEntropy::default()
            .sanitize_with_tree(&m, eps(0.3), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        for leaf in tree.leaves() {
            assert!(
                (leaf.payload.acc_after - 0.3).abs() < 1e-9,
                "leaf at depth {} spent {}",
                leaf.depth,
                leaf.payload.acc_after
            );
            assert!(leaf.payload.published);
        }
        // Internal nodes must never exceed the budget either.
        tree.visit(&mut |n| assert!(n.payload.acc_after <= 0.3 + 1e-9));
    }

    #[test]
    fn max_depth_is_d() {
        let m = clustered(&[8, 8, 8, 8], 5_000);
        let (_, tree) = DafEntropy::without_stop()
            .sanitize_with_tree(&m, eps(1.0), &mut dpod_dp::seeded_rng(3))
            .unwrap();
        assert!(tree.max_depth() <= 4);
        // Without stop conditions, every leaf is at exactly depth d.
        for leaf in tree.leaves() {
            assert_eq!(leaf.depth, 4);
        }
    }

    #[test]
    fn stop_policy_prunes_sparse_regions() {
        // Empty matrix: everything is noise-dominated, so the default
        // policy prunes aggressively vs the Never policy.
        let m = DenseMatrix::<u64>::zeros(Shape::new(vec![64, 64]).unwrap());
        let (_, pruned) = DafEntropy::default()
            .sanitize_with_tree(&m, eps(0.1), &mut dpod_dp::seeded_rng(4))
            .unwrap();
        let (_, full) = DafEntropy::without_stop()
            .sanitize_with_tree(&m, eps(0.1), &mut dpod_dp::seeded_rng(4))
            .unwrap();
        assert!(
            pruned.num_nodes() < full.num_nodes(),
            "pruned {} vs full {}",
            pruned.num_nodes(),
            full.num_nodes()
        );
    }

    #[test]
    fn adapts_granularity_to_density() {
        // A dense cluster should receive finer partitions than empty space.
        let s = Shape::new(vec![64, 64]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for x in 0..8 {
            for y in 0..8 {
                m.set(&[x, y], 2_000).unwrap();
            }
        }
        let (out, _) = DafEntropy::default()
            .sanitize_with_tree(&m, eps(1.0), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        // Mean partition volume inside the cluster vs outside.
        let (mut vol_in, mut n_in, mut vol_out, mut n_out) = (0usize, 0usize, 0usize, 0usize);
        for b in partitioning.boxes() {
            if b.lo()[0] < 8 && b.lo()[1] < 8 {
                vol_in += b.volume();
                n_in += 1;
            } else {
                vol_out += b.volume();
                n_out += 1;
            }
        }
        let mean_in = vol_in as f64 / n_in.max(1) as f64;
        let mean_out = vol_out as f64 / n_out.max(1) as f64;
        assert!(
            mean_in < mean_out,
            "cluster partitions ({mean_in}) should be finer than sparse ({mean_out})"
        );
    }

    #[test]
    fn single_dimension_works() {
        let m = clustered(&[100], 10_000);
        let out = DafEntropy::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(6))
            .unwrap();
        assert!((out.total() - 10_000.0).abs() < 3_000.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = clustered(&[32, 32], 9_999);
        let a = DafEntropy::default()
            .sanitize(&m, eps(0.4), &mut dpod_dp::seeded_rng(7))
            .unwrap();
        let b = DafEntropy::default()
            .sanitize(&m, eps(0.4), &mut dpod_dp::seeded_rng(7))
            .unwrap();
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }
}
