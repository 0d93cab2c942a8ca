use crate::daf::engine::{equal_cuts, DafPayload, DafRun, SplitPlanner};
use crate::daf::StopPolicy;
use crate::mechanism::with_noise;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::{DpError, Epsilon, Noise, Share};
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::tree::TreeNode;
use rand::RngCore;
use std::num::Wrapping;

/// DAF-Homogeneity (Algorithm 3, §4.3).
///
/// Extends DAF-Entropy with data-aware split *positions*: each node
/// diverts a fraction `q` of its level budget to privately scoring `p`
/// random candidate cut sets by the intra-partition homogeneity objective
/// (Eq. 22; L1 distance of entries to their cluster mean), picking the
/// candidate with the lowest noisy objective. Lemma 4.1 bounds the
/// objective's sensitivity by 2; with `p` candidates evaluated on the same
/// node, sequential composition gives each a budget of `ε_prt/p`, i.e.
/// noise scale `2p/ε_prt`. The paper's line 14 inverts this ratio; we
/// implement the direction that sequential composition over the `p`
/// candidates requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DafHomogeneity {
    /// When to prune a subtree into a leaf.
    pub stop: StopPolicy,
    /// Fraction `q` of each level budget reserved for split selection
    /// (the paper sets 0.3 experimentally).
    pub q: f64,
    /// Number of candidate cut sets `p` per node.
    pub candidates: usize,
}

impl Default for DafHomogeneity {
    fn default() -> Self {
        DafHomogeneity {
            stop: StopPolicy::default(),
            q: 0.3,
            candidates: 6,
        }
    }
}

impl DafHomogeneity {
    /// Sanitizes and additionally returns the decision tree.
    ///
    /// # Errors
    /// Same contract as [`Mechanism::sanitize`]; also rejects invalid
    /// `q ∉ (0,1)` or `candidates == 0`.
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
        if !(self.q > 0.0 && self.q < 1.0) {
            return Err(MechanismError::Invalid(format!(
                "partition budget ratio q must be in (0,1), got {}",
                self.q
            )));
        }
        if self.candidates == 0 {
            return Err(MechanismError::Invalid(
                "need at least one candidate cut set".into(),
            ));
        }
        let planner = HomogeneityPlanner {
            q: self.q,
            p: self.candidates,
        };
        DafRun::execute(input, &planner, self.stop, self.name(), noise)
    }
}

impl Mechanism for DafHomogeneity {
    fn name(&self) -> &'static str {
        "DAF-Homogeneity"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        Ok(self.release_with_tree(input, noise)?.0)
    }
}

struct HomogeneityPlanner {
    q: f64,
    p: usize,
}

impl SplitPlanner for HomogeneityPlanner {
    fn partition_budget_fraction(&self) -> f64 {
        self.q
    }

    fn choose_cuts(
        &self,
        input: &DenseMatrix<u64>,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        fanout: usize,
        prt: Option<Share>,
        noise: &mut Noise<'_>,
    ) -> Result<Vec<usize>, DpError> {
        debug_assert!(fanout >= 2);
        // Segment skeleton: the equal-width boundaries delimit the segment
        // each candidate cut is drawn from (§4.3: "drawing uniformly random
        // split positions from every partition").
        let skeleton = equal_cuts(bounds.lo()[dim], bounds.hi()[dim], fanout);
        let Some(prt) = prt else {
            return Ok(skeleton); // no partitioning budget ⇒ equal width
        };
        // Each candidate's objective has sensitivity 2 at budget ε_prt/p:
        // the p of them are one sensitivity-2p query at ε_prt.
        let scored = prt.with_sensitivity(2.0 * self.p as f64, "candidate cuts")?;
        let mut best: Option<(f64, Vec<usize>)> = None;
        for _ in 0..self.p {
            let cuts = draw_candidate(bounds, dim, &skeleton, noise);
            let objective = homogeneity_objective(input, prefix, bounds, dim, &cuts);
            let noisy = noise.laplace(objective, scored);
            if best.as_ref().is_none_or(|(b, _)| noisy < *b) {
                best = Some((noisy, cuts));
            }
        }
        Ok(best.expect("p >= 1 candidates").1)
    }
}

/// Draws one candidate cut set: the j-th cut uniform over
/// `[skeleton[j−1]+1, skeleton[j]]` (with `skeleton[−1] = lo`), which keeps
/// cuts strictly increasing and strictly interior by construction.
fn draw_candidate(
    bounds: &AxisBox,
    dim: usize,
    skeleton: &[usize],
    noise: &mut Noise<'_>,
) -> Vec<usize> {
    let lo = bounds.lo()[dim];
    let mut cuts = Vec::with_capacity(skeleton.len());
    let mut seg_start = lo;
    for &seg_end in skeleton {
        // Integer-uniform over [seg_start+1, seg_end].
        let cut = noise.uniform(seg_start + 1..=seg_end);
        cuts.push(cut);
        seg_start = seg_end;
    }
    cuts
}

/// The homogeneity objective (Eq. 22): `Σ_clusters Σ_cells |f − μ_cluster|`
/// for the split of `bounds` along `dim` at `cuts`.
fn homogeneity_objective(
    input: &DenseMatrix<u64>,
    prefix: &PrefixSum<Wrapping<u64>>,
    bounds: &AxisBox,
    dim: usize,
    cuts: &[usize],
) -> f64 {
    let clusters = bounds
        .split_many(dim, cuts)
        .expect("candidate cuts are interior and increasing");
    let mut objective = 0.0;
    for cluster in &clusters {
        let vol = cluster.volume();
        if vol == 0 {
            continue;
        }
        let mean = prefix.box_count(cluster) as f64 / vol as f64;
        // One accumulator across the cluster's runs, cell by cell in
        // row-major order.
        objective += input.box_slices(cluster).fold(0.0, |acc, run| {
            run.iter()
                .fold(acc, |acc, &v| acc + (v as f64 - mean).abs())
        });
    }
    objective
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn objective_zero_for_homogeneous_clusters() {
        let s = Shape::new(vec![8]).unwrap();
        // Two perfectly homogeneous halves: [5,5,5,5 | 9,9,9,9].
        let m = DenseMatrix::from_vec(s, vec![5, 5, 5, 5, 9, 9, 9, 9]).unwrap();
        let prefix = PrefixSum::from_counts(&m);
        let b = AxisBox::full(m.shape());
        let at_boundary = homogeneity_objective(&m, &prefix, &b, 0, &[4]);
        assert_eq!(at_boundary, 0.0);
        // Any other cut mixes the two levels and scores worse.
        for cut in [1, 2, 3, 5, 6, 7] {
            let o = homogeneity_objective(&m, &prefix, &b, 0, &[cut]);
            assert!(o > 0.0, "cut {cut} scored {o}");
        }
    }

    #[test]
    fn objective_matches_hand_computation() {
        let s = Shape::new(vec![4]).unwrap();
        let m = DenseMatrix::from_vec(s, vec![0, 10, 0, 10]).unwrap();
        let prefix = PrefixSum::from_counts(&m);
        let b = AxisBox::full(m.shape());
        // Cut at 2: clusters [0,10] (μ=5 ⇒ 10) and [0,10] (μ=5 ⇒ 10).
        assert_eq!(homogeneity_objective(&m, &prefix, &b, 0, &[2]), 20.0);
    }

    #[test]
    fn candidates_are_strictly_increasing_and_interior() {
        let s = Shape::new(vec![100, 4]).unwrap();
        let b = AxisBox::full(&s);
        let skeleton = equal_cuts(0, 100, 5);
        let mut rng = dpod_dp::seeded_rng(1);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        for _ in 0..200 {
            let cuts = draw_candidate(&b, 0, &skeleton, &mut noise);
            assert_eq!(cuts.len(), 4);
            for w in cuts.windows(2) {
                assert!(w[0] < w[1], "{cuts:?}");
            }
            assert!(cuts[0] > 0 && *cuts.last().unwrap() < 100);
        }
    }

    #[test]
    fn finds_good_split_with_generous_budget() {
        // Step function along dim 0: a generous partition budget should
        // usually recover a near-boundary split at the root level.
        let s = Shape::new(vec![60, 6]).unwrap();
        let mut data = vec![0u64; 360];
        for (i, v) in data.iter_mut().enumerate() {
            if i / 6 < 20 {
                *v = 50;
            }
        }
        let m = DenseMatrix::from_vec(s, data).unwrap();
        let prefix = PrefixSum::from_counts(&m);
        let planner = HomogeneityPlanner { q: 0.3, p: 12 };
        let b = AxisBox::full(m.shape());
        let mut rng = dpod_dp::seeded_rng(2);
        let mut noise = Noise::new(eps(100.0), &mut rng);
        let prt = noise.rest("partitioning").unwrap();
        let cuts = planner
            .choose_cuts(&m, &prefix, &b, 0, 2, Some(prt), &mut noise)
            .unwrap();
        // One cut; homogeneity prefers it near the step at 20.
        assert!(
            (cuts[0] as i64 - 20).unsigned_abs() <= 6,
            "cut {cuts:?} far from the step at 20"
        );
    }

    #[test]
    fn sanitize_produces_valid_partitioning_and_budget() {
        let s = Shape::new(vec![24, 24]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for x in 0..6 {
            for y in 0..6 {
                m.set(&[x, y], 500).unwrap();
            }
        }
        let (out, tree) = DafHomogeneity::default()
            .sanitize_with_tree(&m, eps(0.5), &mut dpod_dp::seeded_rng(3))
            .unwrap();
        assert!(tree.check_split_invariant().is_ok());
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        assert!(partitioning.validate().is_ok());
        for leaf in tree.leaves() {
            assert!((leaf.payload.acc_after - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_configuration() {
        let m = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        let mut rng = dpod_dp::seeded_rng(4);
        let bad_q = DafHomogeneity {
            q: 1.0,
            ..DafHomogeneity::default()
        };
        assert!(bad_q.sanitize(&m, eps(1.0), &mut rng).is_err());
        let bad_p = DafHomogeneity {
            candidates: 0,
            ..DafHomogeneity::default()
        };
        assert!(bad_p.sanitize(&m, eps(1.0), &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Shape::new(vec![20, 20]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[3, 3], 4_000).unwrap();
        let a = DafHomogeneity::default()
            .sanitize(&m, eps(0.3), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        let b = DafHomogeneity::default()
            .sanitize(&m, eps(0.3), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }
}
