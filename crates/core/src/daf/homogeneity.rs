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
///
/// The objective is computed exactly: each cluster of volume `V` and
/// count `S` scores the integer `Σ|V·v − S|` divided once by `V`, so the
/// value does not depend on summation order. A node's cells are read
/// once, keeping only the nonzero ones; every candidate is then scored
/// from that summary, with the zero cells in closed form. Candidates
/// are drawn, scored and noised one at a time: the noise stream
/// interleaves each candidate's cut draws with its objective's noise,
/// the order the DAF-Homogeneity goldens pin.
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

impl HomogeneityPlanner {
    /// Draws the `p` candidates in turn, scores each with `score` plus
    /// Laplace noise, and keeps the one with the lowest noisy score.
    fn pick(
        &self,
        bounds: &AxisBox,
        dim: usize,
        skeleton: &[usize],
        prt: Share,
        noise: &mut Noise<'_>,
        mut score: impl FnMut(&[usize]) -> f64,
    ) -> Result<Vec<usize>, DpError> {
        // Each candidate's objective has sensitivity 2 at budget ε_prt/p:
        // the p of them are one sensitivity-2p query at ε_prt.
        let scored = prt.with_sensitivity(2.0 * self.p as f64, "candidate cuts")?;
        let mut best: Option<(f64, Vec<usize>)> = None;
        for _ in 0..self.p {
            let cuts = draw_candidate(bounds, dim, skeleton, noise);
            let noisy = noise.laplace(score(&cuts), scored);
            if best.as_ref().is_none_or(|(b, _)| noisy < *b) {
                best = Some((noisy, cuts));
            }
        }
        Ok(best.expect("p >= 1 candidates").1)
    }
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
        let cells = NodeCells::scan(input, bounds, dim);
        self.pick(bounds, dim, &skeleton, prt, noise, |cuts| {
            cells.objective(prefix, bounds, cuts)
        })
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

/// A node's nonzero cells, grouped by their position along the split
/// dimension: the one read of the node's volume that every candidate
/// cut set is scored from.
struct NodeCells {
    /// The split dimension.
    dim: usize,
    /// The node's first position along it.
    lo: usize,
    /// `by_pos[i]` holds the nonzero counts at position `lo + i`.
    by_pos: Vec<Vec<u64>>,
}

impl NodeCells {
    fn scan(input: &DenseMatrix<u64>, bounds: &AxisBox, dim: usize) -> Self {
        let (lo, extent) = (bounds.lo()[dim], bounds.extent(dim));
        let mut by_pos = vec![Vec::new(); extent];
        let last = bounds.ndim() - 1;
        // Runs walk the leading dimensions in row-major order, so a
        // leading `dim` advances once every `inner` runs; on the last
        // dimension the position is the offset inside the run.
        let inner: usize = (dim + 1..last).map(|k| bounds.extent(k)).product();
        for (r, run) in input.box_slices(bounds).enumerate() {
            if dim == last {
                for (at, &v) in by_pos.iter_mut().zip(run) {
                    if v != 0 {
                        at.push(v);
                    }
                }
            } else {
                by_pos[r / inner % extent].extend(run.iter().copied().filter(|&v| v != 0));
            }
        }
        NodeCells { dim, lo, by_pos }
    }

    /// `Σ|V·v − S|` over the cells of the cluster `[from, to)` along the
    /// split dimension, whose volume is `V` and count `S`. Nonzero cells
    /// are scored one by one; each of the `V − nnz` zero cells adds `S`.
    fn deviation(&self, from: usize, to: usize, volume: usize, count: u64) -> u128 {
        let (v, s) = (volume as u128, u128::from(count));
        let mut nonzero = 0u128;
        let mut dev = 0u128;
        for &c in self.by_pos[from - self.lo..to - self.lo].iter().flatten() {
            nonzero += 1;
            dev += (v * u128::from(c)).abs_diff(s);
        }
        dev + (v - nonzero) * s
    }

    /// The homogeneity objective (Eq. 22), `Σ_clusters Σ_cells |v − S/V|`,
    /// for the split of `bounds` at `cuts`: each cluster's exact
    /// `Σ|V·v − S|` divided once by its `V`, with `S` read from `prefix`.
    fn objective(
        &self,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        cuts: &[usize],
    ) -> f64 {
        let dim = self.dim;
        let clusters = bounds
            .split_many(dim, cuts)
            .expect("candidate cuts are interior and increasing");
        clusters
            .iter()
            .map(|c| {
                let vol = c.volume();
                let dev = self.deviation(c.lo()[dim], c.hi()[dim], vol, prefix.box_count(c));
                dev as f64 / vol as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_fmatrix::Shape;
    use rand::Rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// The scorer `choose_cuts` runs: one scan of `bounds`, then `cuts`.
    fn exact_objective(
        input: &DenseMatrix<u64>,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        cuts: &[usize],
    ) -> f64 {
        NodeCells::scan(input, bounds, dim).objective(prefix, bounds, cuts)
    }

    /// Brute force: every cell of every cluster scored in `u128`, with
    /// `S` summed from the cells instead of read from a prefix table.
    fn brute_objective(
        input: &DenseMatrix<u64>,
        bounds: &AxisBox,
        dim: usize,
        cuts: &[usize],
    ) -> f64 {
        let cells = |c| input.box_slices(c).flatten().map(|&v| u128::from(v));
        bounds
            .split_many(dim, cuts)
            .unwrap()
            .iter()
            .map(|c| {
                let v = c.volume() as u128;
                let s: u128 = cells(c).sum();
                let dev: u128 = cells(c).map(|x| (v * x).abs_diff(s)).sum();
                dev as f64 / c.volume() as f64
            })
            .sum()
    }

    /// The f64 objective the planner scored with before the exact one:
    /// `|v − μ|` folded through one accumulator per cluster, cell by
    /// cell in row-major order.
    fn f64_objective(
        input: &DenseMatrix<u64>,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        cuts: &[usize],
    ) -> f64 {
        let clusters = bounds.split_many(dim, cuts).unwrap();
        let mut objective = 0.0;
        for cluster in &clusters {
            let mean = prefix.box_count(cluster) as f64 / cluster.volume() as f64;
            objective += input.box_slices(cluster).fold(0.0, |acc, run| {
                run.iter()
                    .fold(acc, |acc, &v| acc + (v as f64 - mean).abs())
            });
        }
        objective
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "{what}: {a} vs {b}"
        );
    }

    /// `exact` agrees with the f64 fold within 1e-9 relative, plus the
    /// fold's own error: its rounded mean μ is off by up to μ·2⁻⁵³ in
    /// each of a cluster's V cells, about S·2⁻⁵³ in all, which near 2⁴⁰
    /// per cell outweighs 1e-9 of a near-homogeneous node's objective.
    fn assert_matches_fold(
        exact: f64,
        input: &DenseMatrix<u64>,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        cuts: &[usize],
    ) {
        let fold = f64_objective(input, prefix, bounds, dim, cuts);
        let slack = 1e-9 * exact.max(fold) + 1e-12 * prefix.box_count(bounds) as f64;
        assert!(
            (exact - fold).abs() <= slack,
            "dim {dim} cuts {cuts:?}: exact {exact} vs f64 fold {fold}"
        );
    }

    /// A random 1–4-D matrix (sides 2–7, a random share of zeros) and a
    /// sub-box of it at least 2 cells wide on every axis.
    fn random_node(
        rng: &mut impl Rng,
        value: impl Fn(&mut dyn rand::RngCore) -> u64,
    ) -> (DenseMatrix<u64>, AxisBox) {
        let ndim = rng.gen_range(1..=4usize);
        let dims: Vec<usize> = (0..ndim).map(|_| rng.gen_range(2..=7usize)).collect();
        let zeros = rng.gen_range(0.0..1.0);
        let data = (0..dims.iter().product())
            .map(|_| if rng.gen_bool(zeros) { 0 } else { value(rng) })
            .collect();
        let (lo, hi): (Vec<usize>, Vec<usize>) = dims
            .iter()
            .map(|&side| {
                let lo = rng.gen_range(0..side - 1);
                (lo, rng.gen_range(lo + 2..=side))
            })
            .unzip();
        let m = DenseMatrix::from_vec(Shape::new(dims).unwrap(), data).unwrap();
        (m, AxisBox::new(lo, hi).unwrap())
    }

    /// `fanout − 1` distinct interior cuts of `bounds` along `dim`, sorted.
    fn random_cuts(rng: &mut impl Rng, bounds: &AxisBox, dim: usize, fanout: usize) -> Vec<usize> {
        let mut interior: Vec<usize> = (bounds.lo()[dim] + 1..bounds.hi()[dim]).collect();
        let mut cuts: Vec<usize> = (1..fanout)
            .map(|_| interior.swap_remove(rng.gen_range(0..interior.len())))
            .collect();
        cuts.sort_unstable();
        cuts
    }

    /// Every split dim and every fanout the node's extent allows.
    fn each_split(rng: &mut impl Rng, bounds: &AxisBox, mut check: impl FnMut(usize, &[usize])) {
        for dim in 0..bounds.ndim() {
            for fanout in 2..=6.min(bounds.extent(dim)) {
                check(dim, &random_cuts(rng, bounds, dim, fanout));
            }
        }
    }

    #[test]
    fn objective_zero_for_homogeneous_clusters() {
        let s = Shape::new(vec![8]).unwrap();
        // Two perfectly homogeneous halves: [5,5,5,5 | 9,9,9,9].
        let m = DenseMatrix::from_vec(s, vec![5, 5, 5, 5, 9, 9, 9, 9]).unwrap();
        let prefix = PrefixSum::from_counts(&m);
        let b = AxisBox::full(m.shape());
        let at_boundary = exact_objective(&m, &prefix, &b, 0, &[4]);
        assert_eq!(at_boundary, 0.0);
        // Any other cut mixes the two levels and scores worse.
        for cut in [1, 2, 3, 5, 6, 7] {
            let o = exact_objective(&m, &prefix, &b, 0, &[cut]);
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
        assert_eq!(exact_objective(&m, &prefix, &b, 0, &[2]), 20.0);
    }

    #[test]
    fn exact_objective_matches_brute_force_and_the_f64_fold() {
        let mut rng = dpod_dp::seeded_rng(11);
        for case in 0..300 {
            // Every third case puts its nonzero cells near 2⁴⁰.
            let big = case % 3 == 2;
            let (m, b) = random_node(&mut rng, |r| {
                if big {
                    (1 << 40) - 512 + r.next_u64() % 1024
                } else {
                    1 + r.next_u64() % 100
                }
            });
            let prefix = PrefixSum::from_counts(&m);
            each_split(&mut rng, &b, |dim, cuts| {
                let exact = exact_objective(&m, &prefix, &b, dim, cuts);
                let brute = brute_objective(&m, &b, dim, cuts);
                assert_eq!(
                    exact.to_bits(),
                    brute.to_bits(),
                    "case {case} dim {dim} cuts {cuts:?}"
                );
                assert_matches_fold(exact, &m, &prefix, &b, dim, cuts);
            });
        }
    }

    #[test]
    fn exact_objective_on_all_zero_and_single_hot_cell_nodes() {
        let s = Shape::new(vec![6, 5, 4]).unwrap();
        let b = AxisBox::new(vec![1, 0, 1], vec![6, 4, 4]).unwrap();
        let zeros = DenseMatrix::<u64>::zeros(s.clone());
        let mut hot = zeros.clone();
        hot.set(&[3, 2, 2], 1_000).unwrap();
        let mut rng = dpod_dp::seeded_rng(12);
        for m in [&zeros, &hot] {
            let prefix = PrefixSum::from_counts(m);
            each_split(&mut rng, &b, |dim, cuts| {
                let exact = exact_objective(m, &prefix, &b, dim, cuts);
                assert_eq!(exact.to_bits(), brute_objective(m, &b, dim, cuts).to_bits());
                assert_matches_fold(exact, m, &prefix, &b, dim, cuts);
                if m.total_u64() == 0 {
                    assert_eq!(exact, 0.0);
                } else {
                    // One hot cell of count c in a cluster of volume V:
                    // |c − c/V| + (V − 1)·c/V = 2c(V − 1)/V.
                    let cluster = b
                        .split_many(dim, cuts)
                        .unwrap()
                        .into_iter()
                        .find(|c| c.contains(&[3, 2, 2]))
                        .unwrap();
                    let v = cluster.volume() as f64;
                    assert_close(exact, 2.0 * 1_000.0 * (v - 1.0) / v, "hot cell");
                }
            });
        }
    }

    #[test]
    fn exact_objective_survives_a_deviation_beyond_u64() {
        // 32³ cells, half of them near 2⁴⁰: a half-node cluster's
        // Σ|V·v − S| is about 2⁶⁷, past what a u64 accumulator holds.
        let s = Shape::new(vec![32, 32, 32]).unwrap();
        let mut rng = dpod_dp::seeded_rng(13);
        let data = (0..s.size())
            .map(|_| {
                if rng.gen_bool(0.5) {
                    (1 << 40) + rng.next_u64() % 4096
                } else {
                    0
                }
            })
            .collect();
        let m = DenseMatrix::from_vec(s, data).unwrap();
        let prefix = PrefixSum::from_counts(&m);
        let b = AxisBox::full(m.shape());
        for dim in 0..3 {
            let cells = NodeCells::scan(&m, &b, dim);
            let cluster = b.split_many(dim, &[16]).unwrap().remove(0);
            let dev = cells.deviation(0, 16, cluster.volume(), prefix.box_count(&cluster));
            assert!(dev > u128::from(u64::MAX), "dim {dim}: {dev}");
            let exact = cells.objective(&prefix, &b, &[16]);
            assert_eq!(
                exact.to_bits(),
                brute_objective(&m, &b, dim, &[16]).to_bits()
            );
            assert_matches_fold(exact, &m, &prefix, &b, dim, &[16]);
        }
    }

    /// Lemma 4.1: one more trip in one cell moves the objective by at
    /// most 2, the bound the noise scale `2p/ε_prt` is calibrated to.
    #[test]
    fn one_trip_moves_the_exact_objective_by_at_most_two() {
        let mut rng = dpod_dp::seeded_rng(14);
        for case in 0..300 {
            let (m, b) = random_node(&mut rng, |r| 1 + r.next_u64() % 50);
            let prefix = PrefixSum::from_counts(&m);
            let cell: Vec<usize> = (0..b.ndim())
                .map(|k| rng.gen_range(b.lo()[k]..b.hi()[k]))
                .collect();
            let mut plus = m.clone();
            plus.add_at(&cell, 1).unwrap();
            let plus_prefix = PrefixSum::from_counts(&plus);
            each_split(&mut rng, &b, |dim, cuts| {
                let before = exact_objective(&m, &prefix, &b, dim, cuts);
                let after = exact_objective(&plus, &plus_prefix, &b, dim, cuts);
                assert!(
                    (after - before).abs() <= 2.0 + 1e-9 * before.max(after),
                    "case {case} cell {cell:?} dim {dim} cuts {cuts:?}: {before} → {after}"
                );
            });
        }
    }

    /// The planner over the f64 objective, drawing in the same order.
    struct F64Planner(HomogeneityPlanner);

    impl SplitPlanner for F64Planner {
        fn partition_budget_fraction(&self) -> f64 {
            self.0.q
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
            let skeleton = equal_cuts(bounds.lo()[dim], bounds.hi()[dim], fanout);
            let prt = prt.expect("DAF-Homogeneity always has a partitioning share");
            self.0.pick(bounds, dim, &skeleton, prt, noise, |cuts| {
                f64_objective(input, prefix, bounds, dim, cuts)
            })
        }
    }

    #[test]
    fn exact_scorer_picks_what_the_f64_scorer_picks_on_sparse_4d() {
        // 16⁴ cells, a few hot spots, ≥ 97 % zeros: the sparsity of the
        // 30k-trip 32⁴ curator epochs.
        let s = Shape::new(vec![16; 4]).unwrap();
        let mut rng = dpod_dp::seeded_rng(15);
        let spots: Vec<Vec<usize>> = (0..5)
            .map(|_| (0..4).map(|_| rng.gen_range(2..14)).collect())
            .collect();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for _ in 0..3_000 {
            let spot = &spots[rng.gen_range(0..spots.len())];
            let cell: Vec<usize> = spot
                .iter()
                .map(|&c| c + rng.gen_range(0..5usize) - 2)
                .collect();
            m.add_at(&cell, 1).unwrap();
        }
        assert!(
            m.nonzero_count() * 100 <= m.len() * 3,
            "{} nonzero",
            m.nonzero_count()
        );
        let mech = DafHomogeneity::default();
        let planner = F64Planner(HomogeneityPlanner {
            q: mech.q,
            p: mech.candidates,
        });
        for e in [0.1, 0.5, 1.0] {
            for seed in 1..=4 {
                let exact = mech
                    .sanitize(&m, eps(e), &mut dpod_dp::seeded_rng(seed))
                    .unwrap();
                let f64_run = with_noise(eps(e), &mut dpod_dp::seeded_rng(seed), |noise| {
                    DafRun::execute(&m, &planner, mech.stop, mech.name(), noise)
                })
                .unwrap()
                .0;
                let (
                    crate::PartitionSummary::Boxes {
                        partitioning: a,
                        noisy_counts: ca,
                    },
                    crate::PartitionSummary::Boxes {
                        partitioning: b,
                        noisy_counts: cb,
                    },
                ) = (exact.summary(), f64_run.summary())
                else {
                    panic!("expected boxes");
                };
                assert_eq!(a, b, "ε {e} seed {seed}: partition boxes differ");
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ca), bits(cb), "ε {e} seed {seed}: noisy counts differ");
            }
        }
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
