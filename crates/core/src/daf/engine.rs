//! The shared DAF recursion (Algorithms 2 and 3 differ only in how a node
//! chooses its cut points and whether part of the level budget is diverted
//! to that choice; everything else — budget flow, fanout rule, stop
//! handling, leaf publication — lives here).

use crate::daf::{budget::level_budgets, StopPolicy, ROOT_BUDGET_FRACTION};
use crate::granularity::{ebp_m, round_granularity};
use crate::{MechanismError, SanitizedMatrix};
use dpod_dp::{DpError, Noise, Share};
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::{tree::TreeNode, Partitioning};
use std::num::Wrapping;

/// Bookkeeping attached to every DAF tree node; the integration tests
/// assert the budget-telescoping invariant from it.
#[derive(Debug, Clone, PartialEq)]
pub struct DafPayload {
    /// Exact count of the node's box (never published).
    pub count: u64,
    /// The sanitized count. For published leaves this is the released
    /// value; for internal nodes it only steered fanout/stop decisions.
    pub ncount: f64,
    /// The ε whose Laplace noise is in `ncount` (for pruned leaves: the
    /// top-up budget, not the level budget). Determines `ncount`'s
    /// variance `2/ε²` for the consistency post-processing.
    pub eps_count: f64,
    /// Budget spent at this node (count sanitization + any partitioning
    /// budget + the leaf top-up when pruned).
    pub eps_spent: f64,
    /// Cumulative budget spent along the root→this-node path.
    pub acc_after: f64,
    /// Whether this node's `ncount` is part of the published release.
    pub published: bool,
}

/// How a DAF variant picks the interior cut points for a node.
pub(crate) trait SplitPlanner {
    /// Fraction of each level budget diverted to partitioning
    /// (ε_prt = q·ε_level; 0 for DAF-Entropy).
    fn partition_budget_fraction(&self) -> f64;

    /// Chooses `fanout − 1` strictly increasing interior cuts for `bounds`
    /// along `dim` with the node's partitioning share (`None` ⇒ cuts must
    /// be deterministic and data-independent).
    #[allow(clippy::too_many_arguments)] // mirrors Alg. 3's parameter list
    fn choose_cuts(
        &self,
        input: &DenseMatrix<u64>,
        prefix: &PrefixSum<Wrapping<u64>>,
        bounds: &AxisBox,
        dim: usize,
        fanout: usize,
        prt: Option<Share>,
        noise: &mut Noise<'_>,
    ) -> Result<Vec<usize>, DpError>;
}

/// Equal-width interior boundaries for splitting `[lo, hi)` into `fanout`
/// near-equal pieces (the DAF-Entropy rule, and the candidate-segment
/// skeleton for DAF-Homogeneity).
pub(crate) fn equal_cuts(lo: usize, hi: usize, fanout: usize) -> Vec<usize> {
    debug_assert!(fanout >= 1 && hi - lo >= fanout);
    let len = hi - lo;
    let base = len / fanout;
    let extra = len % fanout;
    let mut cuts = Vec::with_capacity(fanout - 1);
    let mut pos = lo;
    for i in 0..fanout - 1 {
        pos += base + usize::from(i < extra);
        cuts.push(pos);
    }
    cuts
}

/// One full DAF sanitization run.
pub(crate) struct DafRun<'a, P: SplitPlanner> {
    input: &'a DenseMatrix<u64>,
    prefix: PrefixSum<Wrapping<u64>>,
    planner: &'a P,
    stop: StopPolicy,
    eps_tot: f64,
    d: usize,
    /// One share per depth 1..=d (a level's nodes are disjoint), charged
    /// once the root fixes m₀: Eq. (32) budgets, then the rest for depth d.
    levels: Vec<Share>,
}

impl<'a, P: SplitPlanner> DafRun<'a, P> {
    pub(crate) fn execute(
        input: &'a DenseMatrix<u64>,
        planner: &'a P,
        stop: StopPolicy,
        mechanism_name: &str,
        noise: &mut Noise<'_>,
    ) -> Result<(SanitizedMatrix, TreeNode<DafPayload>), MechanismError> {
        let d = input.ndim();
        let mut run = DafRun {
            input,
            prefix: PrefixSum::from_counts(input),
            planner,
            stop,
            eps_tot: noise.total(),
            d,
            levels: Vec::new(),
        };
        let tree = run.run_root(noise)?;
        debug_assert!(tree.check_split_invariant().is_ok());
        let sanitized = sanitized_from_tree(mechanism_name, run.eps_tot, input.shape(), &tree);
        Ok((sanitized, tree))
    }

    /// Processes the root (depth 0): fixes m₀, derives the per-level
    /// budgets, then recurses. The root never prunes (Alg. 2 places the
    /// stop check in the non-root branch).
    fn run_root(&mut self, noise: &mut Noise<'_>) -> Result<TreeNode<DafPayload>, MechanismError> {
        let bounds = AxisBox::full(self.input.shape());
        let count = self.prefix.box_count(&bounds);
        let root = noise.share(self.eps_tot * ROOT_BUDGET_FRACTION, "DAF root")?;
        let eps0 = root.epsilon();
        let (prt, data) = split_level(root, self.planner.partition_budget_fraction())?;
        let ncount = noise.laplace(count as f64, data);
        let acc = eps0;
        let remaining = self.eps_tot - acc;

        // Root fanout m₀ (Alg. 2 line 11): EBP rule over all d dimensions.
        let m0_real = ebp_m(self.d, ncount.max(1.0), remaining);
        let level_eps = level_budgets(remaining, m0_real, self.d);
        self.levels = level_eps[..self.d - 1]
            .iter()
            .map(|&e| noise.share(e, "DAF level"))
            .collect::<Result<_, _>>()?;
        self.levels.push(noise.rest("DAF leaf level")?);

        let mut root = TreeNode::leaf(
            bounds.clone(),
            0,
            DafPayload {
                count,
                ncount,
                eps_count: data.epsilon(),
                eps_spent: eps0,
                acc_after: acc,
                published: false,
            },
        );
        let fanout = round_granularity(m0_real, bounds.extent(0));
        root.children = self.split_and_recurse(&bounds, 0, fanout, prt, acc, noise)?;
        Ok(root)
    }

    /// Splits `bounds` along `dim` into `fanout` children (via the planner)
    /// and recurses into each.
    fn split_and_recurse(
        &mut self,
        bounds: &AxisBox,
        dim: usize,
        fanout: usize,
        prt: Option<Share>,
        acc: f64,
        noise: &mut Noise<'_>,
    ) -> Result<Vec<TreeNode<DafPayload>>, MechanismError> {
        let cuts = if fanout <= 1 {
            Vec::new()
        } else {
            self.planner
                .choose_cuts(self.input, &self.prefix, bounds, dim, fanout, prt, noise)?
        };
        let child_boxes = bounds.split_many(dim, &cuts)?;
        let mut children = Vec::with_capacity(child_boxes.len());
        for cb in child_boxes {
            children.push(self.recurse(cb, dim + 1, acc, noise)?);
        }
        Ok(children)
    }

    /// Handles a non-root node at `depth ∈ 1..=d` (Alg. 2 lines 5–27).
    fn recurse(
        &mut self,
        bounds: AxisBox,
        depth: usize,
        acc: f64,
        noise: &mut Noise<'_>,
    ) -> Result<TreeNode<DafPayload>, MechanismError> {
        let count = self.prefix.box_count(&bounds);

        // Depth d: terminal level — spend everything left (Alg. 2 line 6).
        if depth == self.d {
            let leaf = self.levels[depth - 1];
            let eps_leaf = leaf.epsilon();
            debug_assert_eq!(
                eps_leaf,
                self.eps_tot - acc,
                "leaf share is the path's rest"
            );
            let ncount = noise.laplace(count as f64, leaf);
            return Ok(TreeNode::leaf(
                bounds,
                depth,
                DafPayload {
                    count,
                    ncount,
                    eps_count: eps_leaf,
                    eps_spent: eps_leaf,
                    acc_after: self.eps_tot,
                    published: true,
                },
            ));
        }

        // Internal level: Eq. (32) budget, q-split, sanitize, fanout.
        let level = self.levels[depth - 1];
        let eps_level = level.epsilon();
        let (prt, data) = split_level(level, self.planner.partition_budget_fraction())?;
        let mut ncount = noise.laplace(count as f64, data);
        let mut acc = acc + eps_level;
        let remaining = self.eps_tot - acc;
        let m_real = ebp_m(self.d - depth, ncount.max(1.0), remaining);

        // Stop check (Alg. 2 lines 17–20): prune and re-sanitize with the
        // whole remaining path budget: the levels below, already charged.
        if self.stop.should_stop(ncount, remaining) {
            let topup = noise.within(remaining, &self.levels[depth..], "DAF pruned leaf")?;
            ncount = noise.laplace(count as f64, topup);
            let spent_here = eps_level + remaining;
            acc += remaining;
            debug_assert!((acc - self.eps_tot).abs() < 1e-9);
            return Ok(TreeNode::leaf(
                bounds,
                depth,
                DafPayload {
                    count,
                    ncount,
                    eps_count: remaining,
                    eps_spent: spent_here,
                    acc_after: acc,
                    published: true,
                },
            ));
        }

        let fanout = round_granularity(m_real, bounds.extent(depth));
        let mut node = TreeNode::leaf(
            bounds.clone(),
            depth,
            DafPayload {
                count,
                ncount,
                eps_count: data.epsilon(),
                eps_spent: eps_level,
                acc_after: acc,
                published: false,
            },
        );
        node.children = self.split_and_recurse(&bounds, depth, fanout, prt, acc, noise)?;
        Ok(node)
    }
}

/// Packages a DAF tree's leaves as the released [`SanitizedMatrix`]
/// (also used to re-package after consistency post-processing).
pub(crate) fn sanitized_from_tree(
    mechanism_name: &str,
    eps_tot: f64,
    shape: &dpod_fmatrix::Shape,
    tree: &TreeNode<DafPayload>,
) -> SanitizedMatrix {
    let leaves = tree.leaves();
    debug_assert!(leaves.iter().all(|l| l.payload.published));
    let boxes: Vec<AxisBox> = leaves.iter().map(|l| l.bounds.clone()).collect();
    let counts: Vec<f64> = leaves.iter().map(|l| l.payload.ncount).collect();
    let partitioning = Partitioning::new_unchecked(shape.clone(), boxes);
    SanitizedMatrix::from_partitions(mechanism_name, eps_tot, shape.clone(), partitioning, counts)
}

/// Splits one level's share into (partitioning, data) parts; `q == 0`
/// gives everything to the data side (DAF-Entropy).
fn split_level(level: Share, q: f64) -> Result<(Option<Share>, Share), DpError> {
    if q == 0.0 {
        return Ok((None, level));
    }
    level.split(q).map(|(prt, data)| (Some(prt), data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_cuts_are_interior_and_increasing() {
        assert_eq!(equal_cuts(0, 10, 3), vec![4, 7]);
        assert_eq!(equal_cuts(5, 9, 4), vec![6, 7, 8]);
        assert_eq!(equal_cuts(0, 8, 1), Vec::<usize>::new());
        let cuts = equal_cuts(3, 103, 7);
        assert_eq!(cuts.len(), 6);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(cuts.iter().all(|&c| c > 3 && c < 103));
    }

    #[test]
    fn split_level_budget_conserves() {
        let mut rng = dpod_dp::seeded_rng(1);
        let mut noise = Noise::new(dpod_dp::Epsilon::new(1.0).unwrap(), &mut rng);
        let level = noise.share(0.5, "level").unwrap();
        let (p, d) = split_level(level, 0.3).unwrap();
        assert!((p.unwrap().epsilon() - 0.15).abs() < 1e-12);
        assert!((d.epsilon() - 0.35).abs() < 1e-12);
        let (p0, d0) = split_level(level, 0.0).unwrap();
        assert!(p0.is_none());
        assert_eq!(d0, level);
    }
}
