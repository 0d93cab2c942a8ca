use crate::granularity::{eug_m, round_granularity, DEFAULT_C0};
use crate::grid_engine::noisy_total;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::{Partitioning, UniformGrid};

/// Adaptive Grid (extension; the "AG" of Qardaji et al. \[15\], which the
/// paper's §5 groups with UG as partially data-dependent).
///
/// Two levels: a deliberately coarse level-1 grid is sanitized with a
/// fraction `alpha` of the data budget; each level-1 cell is then
/// re-partitioned by a level-2 grid sized from *its own* noisy count and
/// sanitized with the remaining budget. Dense cells get fine sub-grids,
/// empty cells stay whole — a grid-shaped precursor of the paper's DAF
/// idea.
///
/// Generalization to `d` dimensions: both levels use the EUG granularity
/// formula (Eq. 9/13); level 1 halves it (Qardaji's `m₁ = m_UG/2` rule)
/// and level 2 uses `c₀/2` (their `c₂ = c/2`). The published release is
/// the level-2 partition set (per-cell budgets compose in parallel across
/// disjoint cells and sequentially across the two levels).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveGrid {
    /// Fraction of the budget spent on the noisy total (ε₀).
    pub eps0_fraction: f64,
    /// Fraction `α` of the post-ε₀ budget given to level 1.
    pub alpha: f64,
    /// The EUG uniformity constant for level 1 (level 2 uses half of it).
    pub c0: f64,
}

impl Default for AdaptiveGrid {
    fn default() -> Self {
        AdaptiveGrid {
            eps0_fraction: 0.01,
            alpha: 0.5,
            c0: DEFAULT_C0,
        }
    }
}

impl Mechanism for AdaptiveGrid {
    fn name(&self) -> &'static str {
        "AG"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(MechanismError::Invalid(format!(
                "alpha must be in (0,1), got {}",
                self.alpha
            )));
        }
        if !(self.c0 > 0.0 && self.c0.is_finite()) {
            return Err(MechanismError::Invalid(format!(
                "c0 must be positive, got {}",
                self.c0
            )));
        }
        let d = input.ndim();
        let prefix = PrefixSum::from_counts(input);
        let n_hat = noisy_total(&prefix, self.eps0_fraction, noise)?;
        let eps1 = noise.share(noise.remaining() * self.alpha, "level-1 cell counts")?;
        let eps2 = noise.rest("level-2 cell counts")?;

        // Level 1: half the EUG granularity at the level-1 budget.
        let m1 = (eug_m(d, n_hat, eps1.epsilon(), self.c0, None) / 2.0).max(1.0);
        let cells1: Vec<usize> = input
            .shape()
            .dims()
            .iter()
            .map(|&len| round_granularity(m1, len))
            .collect();
        let level1 = UniformGrid::new(input.shape(), &cells1).map_err(MechanismError::Invalid)?;

        // Level 2: per level-1 cell, size a sub-grid from the noisy count
        // and release its sub-cell counts.
        let mut boxes: Vec<AxisBox> = Vec::new();
        let mut counts: Vec<f64> = Vec::new();
        for cell in level1.iter_boxes() {
            let n1 = noise.laplace(prefix.box_count(&cell) as f64, eps1);
            let m2 = eug_m(d, n1, eps2.epsilon(), self.c0 / 2.0, None);
            let sub_cells: Vec<usize> = (0..d)
                .map(|dim| round_granularity(m2, cell.extent(dim)))
                .collect();
            for sub in subgrid_boxes(&cell, &sub_cells) {
                let n2 = noise.laplace(prefix.box_count(&sub) as f64, eps2);
                boxes.push(sub);
                counts.push(n2);
            }
        }
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

/// Near-equal sub-boxes of `cell` with `cells[dim]` pieces per dimension.
fn subgrid_boxes(cell: &AxisBox, cells: &[usize]) -> Vec<AxisBox> {
    let d = cell.ndim();
    // Boundaries per dimension inside the cell.
    let bounds: Vec<Vec<usize>> = (0..d)
        .map(|dim| {
            let len = cell.extent(dim);
            let m = cells[dim].clamp(1, len.max(1));
            let base = len / m;
            let extra = len % m;
            let mut b = Vec::with_capacity(m + 1);
            let mut pos = cell.lo()[dim];
            b.push(pos);
            for i in 0..m {
                pos += base + usize::from(i < extra);
                b.push(pos);
            }
            b
        })
        .collect();
    let mut out = Vec::new();
    let mut idx = vec![0usize; d];
    loop {
        let lo: Vec<usize> = (0..d).map(|dim| bounds[dim][idx[dim]]).collect();
        let hi: Vec<usize> = (0..d).map(|dim| bounds[dim][idx[dim] + 1]).collect();
        out.push(AxisBox::new(lo, hi).expect("ordered sub-boundaries"));
        // Odometer.
        let mut dim = d;
        loop {
            if dim == 0 {
                return out;
            }
            dim -= 1;
            idx[dim] += 1;
            if idx[dim] < bounds[dim].len() - 1 {
                break;
            }
            idx[dim] = 0;
        }
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
    fn subgrid_tiles_cell() {
        let cell = AxisBox::new(vec![2, 4], vec![9, 10]).unwrap();
        let subs = subgrid_boxes(&cell, &[3, 2]);
        assert_eq!(subs.len(), 6);
        let vol: usize = subs.iter().map(AxisBox::volume).sum();
        assert_eq!(vol, cell.volume());
        for (i, a) in subs.iter().enumerate() {
            assert!(cell.contains_box(a));
            for b in subs.iter().skip(i + 1) {
                assert_eq!(a.overlap_volume(b), 0);
            }
        }
    }

    #[test]
    fn produces_valid_partitioning() {
        let s = Shape::new(vec![40, 40]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for x in 0..10 {
            for y in 0..10 {
                m.set(&[x, y], 400).unwrap();
            }
        }
        let out = AdaptiveGrid::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        assert!(partitioning.validate().is_ok());
    }

    #[test]
    fn adapts_subgrid_to_density() {
        // The dense corner should end up with more (smaller) partitions
        // than the empty remainder.
        let s = Shape::new(vec![60, 60]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for x in 0..12 {
            for y in 0..12 {
                m.set(&[x, y], 1_000).unwrap();
            }
        }
        let out = AdaptiveGrid::default()
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        let (mut vol_in, mut n_in, mut vol_out, mut n_out) = (0usize, 0usize, 0usize, 0usize);
        for b in partitioning.boxes() {
            if b.lo()[0] < 12 && b.lo()[1] < 12 {
                vol_in += b.volume();
                n_in += 1;
            } else {
                vol_out += b.volume();
                n_out += 1;
            }
        }
        assert!(
            (vol_in as f64 / n_in as f64) < (vol_out as f64 / n_out as f64),
            "dense region should be partitioned finer"
        );
    }

    #[test]
    fn rejects_bad_alpha() {
        let m = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        let bad = AdaptiveGrid {
            alpha: 1.0,
            ..AdaptiveGrid::default()
        };
        assert!(bad
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(3))
            .is_err());
    }

    #[test]
    fn works_in_four_dimensions() {
        let s = Shape::new(vec![6, 6, 6, 6]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![5u64; s.size()]).unwrap();
        let out = AdaptiveGrid::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(4))
            .unwrap();
        assert!(out.total().is_finite());
        let crate::PartitionSummary::Boxes { partitioning, .. } = out.summary() else {
            panic!("expected boxes");
        };
        assert!(partitioning.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Shape::new(vec![20, 20]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[5, 5], 3_000).unwrap();
        let a = AdaptiveGrid::default()
            .sanitize(&m, eps(0.4), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        let b = AdaptiveGrid::default()
            .sanitize(&m, eps(0.4), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }
}
