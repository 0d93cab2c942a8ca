//! Per-level budget allocation for the DAF tree (§4.4, Eqs. 29–32).
//!
//! With root fanout `m₀` and an assumed geometric fanout progression, depth
//! `i` holds ≈ `m₀^i` nodes; minimizing total noise variance
//! `Σ m₀^i/ε_i²` subject to `Σ ε_i = ε'_tot` (Lagrange/KKT) yields
//! `ε_i ∝ m₀^{i/3}` — deeper levels get more budget, which matters because
//! the published release consists of leaf counts.

/// Computes `ε_1 … ε_d` by Eq. (32) for remaining budget `eps_prime_tot`
/// (that is, ε_tot − ε₀) and root fanout `m0`.
///
/// `m0 ≤ 1` (or within float wobble of 1) degenerates Eq. (32) to 0/0; the
/// limit is the uniform split `ε_i = ε'_tot / d`, which we return
/// explicitly rather than let the division produce NaN.
///
/// # Panics
/// Panics when `d == 0` or `eps_prime_tot <= 0` (programmer errors —
/// mechanisms validate inputs before reaching here).
pub fn level_budgets(eps_prime_tot: f64, m0: f64, d: usize) -> Vec<f64> {
    assert!(d > 0, "tree must have at least one level below the root");
    assert!(
        eps_prime_tot > 0.0 && eps_prime_tot.is_finite(),
        "remaining budget must be positive"
    );
    let m0 = if m0.is_finite() { m0.max(1.0) } else { 1.0 };
    if (m0 - 1.0).abs() < 1e-9 {
        return vec![eps_prime_tot / d as f64; d];
    }
    let r = m0.powf(1.0 / 3.0);
    // Σ_{i=1..d} r^i = r (1 − r^d)/(1 − r); ε_i = ε' r^i / Σ.
    let denom = r * (1.0 - r.powi(d as i32)) / (1.0 - r);
    (1..=d)
        .map(|i| eps_prime_tot * r.powi(i as i32) / denom)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_sum_to_total() {
        for (m0, d) in [(4.0, 2), (41.4, 4), (2.5, 6), (100.0, 3)] {
            let b = level_budgets(0.99, m0, d);
            let sum: f64 = b.iter().sum();
            assert!((sum - 0.99).abs() < 1e-9, "m0={m0} d={d}: sum {sum}");
            assert!(b.iter().all(|&e| e > 0.0));
        }
    }

    #[test]
    fn deeper_levels_get_more_budget() {
        let b = level_budgets(1.0, 8.0, 5);
        for w in b.windows(2) {
            assert!(w[1] > w[0], "budget must grow with depth: {b:?}");
        }
        // Growth ratio is m0^(1/3) = 2.
        assert!((b[1] / b[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unit_fanout_falls_back_to_uniform() {
        let b = level_budgets(0.9, 1.0, 3);
        for &e in &b {
            assert!((e - 0.3).abs() < 1e-12);
        }
        // Near-1 fanouts take the same branch (0/0 guard).
        let b2 = level_budgets(0.9, 1.0 + 1e-12, 3);
        for &e in &b2 {
            assert!((e - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn sub_unit_and_nan_fanouts_are_clamped() {
        let b = level_budgets(1.0, 0.2, 2);
        assert!((b[0] - 0.5).abs() < 1e-12);
        let b2 = level_budgets(1.0, f64::NAN, 2);
        assert!((b2[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_closed_form() {
        // Eq. (32): ε_i = ε' m0^{i/3} (1 − m0^{1/3}) / (m0^{1/3}(1 − m0^{d/3}))
        let (eps, m0, d) = (0.99, 27.0, 3);
        let b = level_budgets(eps, m0, d);
        for (i, &got) in b.iter().enumerate() {
            let i1 = (i + 1) as f64;
            let expected = eps * m0.powf(i1 / 3.0) * (1.0 - m0.powf(1.0 / 3.0))
                / (m0.powf(1.0 / 3.0) * (1.0 - m0.powf(d as f64 / 3.0)));
            assert!(
                (got - expected).abs() < 1e-9,
                "level {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_panics() {
        let _ = level_budgets(1.0, 2.0, 0);
    }
}
