use crate::daf::level_budgets;
use crate::granularity::ebp_m;
use crate::grid_engine::noisy_total;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::{Noise, Share};
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::{tree::TreeNode, Partitioning};
use std::num::Wrapping;

/// A 2^d-ary hierarchical baseline (extension; \[4\] in the paper).
///
/// The data-independent tree of Cormode et al.: every node splits each
/// dimension at its midpoint regardless of data placement, to a fixed
/// height `h`. Budgets follow the geometric per-level allocation (more to
/// deeper levels, fanout 2^d), every node's count is sanitized, and a
/// top-down mean-consistency pass redistributes each parent/children
/// mismatch before the leaves are published (the simplified form of Hay et
/// al.'s constrained inference: a single top-down pass instead of its
/// two-pass least-squares estimate).
///
/// Height selection: `h` targets the EBP granularity, `2^h ≈ m_EBP`, after
/// an ε/100 noisy total — so the leaf resolution is comparable to the grid
/// methods and differences come from the hierarchy itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadTree {
    /// Fixed tree height override; `None` derives it from the data size.
    pub height: Option<usize>,
    /// Fraction of budget for the noisy total used in height selection.
    pub eps0_fraction: f64,
}

impl Default for QuadTree {
    fn default() -> Self {
        QuadTree {
            height: None,
            eps0_fraction: 0.01,
        }
    }
}

#[derive(Debug, Clone)]
struct QtPayload {
    ncount: f64,
    /// Consistency-adjusted estimate, filled top-down after building.
    estimate: f64,
}

impl Mechanism for QuadTree {
    fn name(&self) -> &'static str {
        "QuadTree"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        if !(self.eps0_fraction > 0.0 && self.eps0_fraction < 1.0) {
            return Err(MechanismError::Invalid(format!(
                "eps0_fraction must be in (0,1), got {}",
                self.eps0_fraction
            )));
        }
        let d = input.ndim();
        let prefix = PrefixSum::from_counts(input);

        // Height: match the EBP per-dimension granularity.
        let height = match self.height {
            Some(h) => h,
            None => {
                let n_hat = noisy_total(&prefix, self.eps0_fraction, noise)?;
                let m = ebp_m(d, n_hat, noise.remaining());
                let h = (m.max(1.0).log2().ceil() as usize).max(1);
                // Cap: no dimension can be split below single cells.
                let max_h = input
                    .shape()
                    .dims()
                    .iter()
                    .map(|&n| (n as f64).log2().ceil() as usize)
                    .max()
                    .unwrap_or(1)
                    .max(1);
                h.min(max_h)
            }
        };

        // One share per level (its nodes are disjoint): root + `height`
        // levels, geometric in the fanout 2^d (the DAF closed form).
        let fanout = (2usize).pow(d as u32) as f64;
        let levels = level_budgets(noise.remaining(), fanout, height + 1)
            .into_iter()
            .map(|e| noise.share(e, "tree level"))
            .collect::<Result<Vec<Share>, _>>()?;

        // Build the tree, sanitizing every node.
        let mut root = build_level(
            AxisBox::full(input.shape()),
            0,
            height,
            &prefix,
            &levels,
            noise,
        );

        // Top-down mean consistency: spread the parent/children mismatch
        // equally, then publish the adjusted leaves.
        root.payload.estimate = root.payload.ncount;
        make_consistent(&mut root);

        let leaves = root.leaves();
        let boxes: Vec<AxisBox> = leaves.iter().map(|l| l.bounds.clone()).collect();
        let counts: Vec<f64> = leaves.iter().map(|l| l.payload.estimate).collect();
        let partitioning = Partitioning::new_unchecked(input.shape().clone(), boxes);
        Ok(SanitizedMatrix::from_partitions(
            self.name(),
            noise.total(),
            input.shape().clone(),
            partitioning,
            counts,
        ))
    }
}

/// Recursively builds the uniform midpoint tree down to `height`.
fn build_level(
    bounds: AxisBox,
    depth: usize,
    height: usize,
    prefix: &PrefixSum<Wrapping<u64>>,
    levels: &[Share],
    noise: &mut Noise<'_>,
) -> TreeNode<QtPayload> {
    let count = prefix.box_count(&bounds) as f64;
    let ncount = noise.laplace(count, levels[depth]);
    let mut node = TreeNode::leaf(
        bounds.clone(),
        depth,
        QtPayload {
            ncount,
            estimate: ncount,
        },
    );
    // Split every dimension at its midpoint (skip length-1 extents); stop
    // at the height limit or when nothing is splittable.
    if depth < height {
        let children = midpoint_children(&bounds);
        if children.len() > 1 {
            node.children = children
                .into_iter()
                .map(|cb| build_level(cb, depth + 1, height, prefix, levels, noise))
                .collect();
        }
    }
    node
}

/// All 2^k midpoint sub-boxes of `bounds` (k = number of dims with
/// extent ≥ 2).
fn midpoint_children(bounds: &AxisBox) -> Vec<AxisBox> {
    let mut boxes = vec![bounds.clone()];
    for dim in 0..bounds.ndim() {
        if bounds.extent(dim) < 2 {
            continue;
        }
        let mid = bounds.lo()[dim] + bounds.extent(dim) / 2;
        let mut next = Vec::with_capacity(boxes.len() * 2);
        for b in boxes {
            let (l, r) = b.split_at(dim, mid).expect("midpoint is interior");
            next.push(l);
            next.push(r);
        }
        boxes = next;
    }
    boxes
}

/// Top-down uniform redistribution of the parent/children mismatch.
fn make_consistent(node: &mut TreeNode<QtPayload>) {
    if node.is_leaf() {
        return;
    }
    let child_sum: f64 = node.children.iter().map(|c| c.payload.ncount).sum();
    let adjust = (node.payload.estimate - child_sum) / node.children.len() as f64;
    for c in &mut node.children {
        c.payload.estimate = c.payload.ncount + adjust;
        make_consistent(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_dp::Epsilon;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn midpoint_children_cover_parent() {
        let b = AxisBox::new(vec![0, 0, 0], vec![8, 5, 1]).unwrap();
        let kids = midpoint_children(&b);
        // dim 2 has extent 1 ⇒ only 4 children.
        assert_eq!(kids.len(), 4);
        let vol: usize = kids.iter().map(AxisBox::volume).sum();
        assert_eq!(vol, b.volume());
    }

    #[test]
    fn produces_valid_partitioning() {
        let s = Shape::new(vec![32, 32]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![20u64; 1024]).unwrap();
        let out = QuadTree::default()
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        assert!(partitioning.validate().is_ok());
    }

    #[test]
    fn consistency_pass_preserves_parent_totals() {
        let s = Shape::new(vec![16, 16]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![100u64; 256]).unwrap();
        let out = QuadTree {
            height: Some(2),
            ..QuadTree::default()
        }
        .sanitize(&m, eps(2.0), &mut dpod_dp::seeded_rng(2))
        .unwrap();
        // After top-down consistency, the leaf estimates sum to the root's
        // estimate; with ε=2 that root estimate is near the truth.
        assert!((out.total() - 25_600.0).abs() < 500.0);
    }

    #[test]
    fn fixed_height_controls_leaf_count() {
        let s = Shape::new(vec![16, 16]).unwrap();
        let m = DenseMatrix::<u64>::zeros(s);
        let h1 = QuadTree {
            height: Some(1),
            ..QuadTree::default()
        }
        .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(3))
        .unwrap();
        let h3 = QuadTree {
            height: Some(3),
            ..QuadTree::default()
        }
        .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(3))
        .unwrap();
        assert_eq!(h1.num_partitions(), 4);
        assert_eq!(h3.num_partitions(), 64);
    }

    #[test]
    fn odd_extents_are_handled() {
        let s = Shape::new(vec![7, 9]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![3u64; 63]).unwrap();
        let out = QuadTree::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(4))
            .unwrap();
        assert!(out.total().is_finite());
    }
}
