//! A seeded generative city-population model.
//!
//! Substitutes for the proprietary Veraset GPS dataset used in the
//! paper's §6.1, which is not available: what the paper's mechanisms
//! react to is the *density structure* of the population histogram —
//! hotspots, corridors, sparse suburbs — not GPS semantics. The model
//! is a mixture of Gaussian
//! hotspots over the unit square plus a uniform background, with presets
//! calibrated to the three density archetypes the paper selects
//! (New York: high, Denver: moderate, Detroit: low).

use crate::dist::sample_normal;
use dpod_fmatrix::{DenseMatrix, Shape};
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// One Gaussian population hotspot in the unit square.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Centre in `[0,1)²`.
    pub center: [f64; 2],
    /// Isotropic spread (standard deviation, unit-square scale).
    pub sigma: f64,
    /// Relative mass/attraction of the hotspot.
    pub weight: f64,
}

/// A city: a hotspot mixture plus uniform background.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CityModel {
    /// Display name used by the harness ("New York", …).
    pub name: String,
    /// The hotspot mixture (must be non-empty).
    pub hotspots: Vec<Hotspot>,
    /// Probability that a point is uniform background instead of
    /// hotspot-attached. In `[0, 1)`.
    pub background: f64,
}

/// The three Veraset city archetypes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum City {
    /// High density: one dominant CBD, a dense corridor, many sharp
    /// secondary centres, little background.
    NewYork,
    /// Moderate density: a CBD plus scattered medium hotspots and moderate
    /// sprawl.
    Denver,
    /// Low density: few, wide, weak hotspots over a flat background.
    Detroit,
}

impl City {
    /// All archetypes, in the paper's presentation order.
    pub const ALL: [City; 3] = [City::NewYork, City::Denver, City::Detroit];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::NewYork => "New York",
            City::Denver => "Denver",
            City::Detroit => "Detroit",
        }
    }

    /// Builds the deterministic preset model for this archetype.
    pub fn model(self) -> CityModel {
        // A fixed internal seed per city makes the preset a constant:
        // scattered neighbourhood hotspots are drawn once, reproducibly.
        match self {
            City::NewYork => {
                let mut hs = vec![Hotspot {
                    center: [0.52, 0.55],
                    sigma: 0.012,
                    weight: 40.0,
                }];
                // A dense Manhattan-like corridor.
                for i in 0..8 {
                    let t = i as f64 / 7.0;
                    hs.push(Hotspot {
                        center: [0.40 + 0.25 * t, 0.35 + 0.45 * t],
                        sigma: 0.015,
                        weight: 10.0,
                    });
                }
                hs.extend(scattered(0x4E59, 22, 0.02..0.05, 2.0..6.0));
                CityModel {
                    name: "New York".into(),
                    hotspots: hs,
                    background: 0.05,
                }
            }
            City::Denver => {
                let mut hs = vec![Hotspot {
                    center: [0.50, 0.50],
                    sigma: 0.03,
                    weight: 20.0,
                }];
                hs.extend(scattered(0x4445, 12, 0.04..0.08, 2.0..5.0));
                CityModel {
                    name: "Denver".into(),
                    hotspots: hs,
                    background: 0.12,
                }
            }
            City::Detroit => {
                let mut hs = vec![Hotspot {
                    center: [0.50, 0.45],
                    sigma: 0.05,
                    weight: 8.0,
                }];
                hs.extend(scattered(0x4454, 6, 0.06..0.10, 1.5..3.0));
                CityModel {
                    name: "Detroit".into(),
                    hotspots: hs,
                    background: 0.25,
                }
            }
        }
    }
}

/// Draws `n` scattered hotspots with sigma/weight in the given ranges.
fn scattered(
    seed: u64,
    n: usize,
    sigma: std::ops::Range<f64>,
    weight: std::ops::Range<f64>,
) -> Vec<Hotspot> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Hotspot {
            center: [rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95)],
            sigma: rng.gen_range(sigma.clone()),
            weight: rng.gen_range(weight.clone()),
        })
        .collect()
}

impl CityModel {
    /// Samples one point in `[0,1)²` from the population distribution.
    pub fn sample_point(&self, rng: &mut dyn RngCore) -> [f64; 2] {
        debug_assert!(!self.hotspots.is_empty(), "city needs hotspots");
        if rng.gen::<f64>() < self.background {
            return [rng.gen::<f64>(), rng.gen::<f64>()];
        }
        let h = self.pick_weighted(rng);
        let x = sample_normal(rng, h.center[0], h.sigma);
        let y = sample_normal(rng, h.center[1], h.sigma);
        [clamp_unit(x), clamp_unit(y)]
    }

    /// Builds the `grid × grid` population frequency matrix from `n`
    /// sampled points (the paper's 1000×1000 city histograms).
    pub fn population_matrix(
        &self,
        grid: usize,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> DenseMatrix<u64> {
        let shape = Shape::new(vec![grid, grid]).expect("valid grid");
        let mut m = DenseMatrix::<u64>::zeros(shape);
        for _ in 0..n {
            let p = self.sample_point(rng);
            let coords = [to_cell(p[0], grid), to_cell(p[1], grid)];
            let idx = m.shape().flat_index_unchecked(&coords);
            m.set_flat(idx, m.get_flat(idx) + 1);
        }
        m
    }

    /// Picks a hotspot with probability proportional to its weight.
    pub fn pick_weighted(&self, rng: &mut dyn RngCore) -> &Hotspot {
        let total: f64 = self.hotspots.iter().map(|h| h.weight).sum();
        let mut u = rng.gen::<f64>() * total;
        for h in &self.hotspots {
            u -= h.weight;
            if u <= 0.0 {
                return h;
            }
        }
        self.hotspots.last().expect("non-empty hotspots")
    }

    /// Picks a hotspot by a gravity rule: probability proportional to
    /// `weight · exp(−dist(from, centre)/decay)`. Used to pair trip
    /// origins with plausible destinations.
    pub fn pick_gravity(&self, from: [f64; 2], decay: f64, rng: &mut dyn RngCore) -> &Hotspot {
        debug_assert!(decay > 0.0);
        let scores: Vec<f64> = self
            .hotspots
            .iter()
            .map(|h| h.weight * (-dist(from, h.center) / decay).exp())
            .collect();
        let total: f64 = scores.iter().sum();
        let mut u = rng.gen::<f64>() * total;
        for (h, s) in self.hotspots.iter().zip(&scores) {
            u -= s;
            if u <= 0.0 {
                return h;
            }
        }
        self.hotspots.last().expect("non-empty hotspots")
    }

    /// The hotspot whose centre is nearest to `p`.
    pub fn nearest_hotspot(&self, p: [f64; 2]) -> &Hotspot {
        self.hotspots
            .iter()
            .min_by(|a, b| {
                dist(p, a.center)
                    .partial_cmp(&dist(p, b.center))
                    .expect("finite distances")
            })
            .expect("non-empty hotspots")
    }
}

/// Euclidean distance in the unit square.
#[inline]
pub(crate) fn dist(a: [f64; 2], b: [f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    (dx * dx + dy * dy).sqrt()
}

/// Clamps a coordinate into `[0, 1)`.
#[inline]
pub(crate) fn clamp_unit(x: f64) -> f64 {
    x.clamp(0.0, 1.0 - 1e-9)
}

/// Maps a unit coordinate to a grid cell index.
#[inline]
pub(crate) fn to_cell(x: f64, grid: usize) -> usize {
    ((x * grid as f64) as usize).min(grid - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_fmatrix::entropy::matrix_entropy;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn presets_are_deterministic_constants() {
        assert_eq!(City::NewYork.model(), City::NewYork.model());
        assert_eq!(City::Detroit.model(), City::Detroit.model());
    }

    #[test]
    fn points_stay_in_unit_square() {
        let city = City::NewYork.model();
        let mut r = rng(1);
        for _ in 0..5_000 {
            let [x, y] = city.sample_point(&mut r);
            assert!((0.0..1.0).contains(&x) && (0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn population_matrix_conserves_mass() {
        let m = City::Denver
            .model()
            .population_matrix(64, 10_000, &mut rng(2));
        assert_eq!(m.total_u64(), 10_000);
    }

    #[test]
    fn density_archetypes_are_ordered() {
        // Peak concentration: New York sharpest, Detroit flattest. Use the
        // max-cell share on a coarse grid as a robust statistic.
        let mut shares = Vec::new();
        for city in City::ALL {
            let m = city.model().population_matrix(64, 60_000, &mut rng(3));
            shares.push(m.max_f64().unwrap() / m.total());
        }
        assert!(
            shares[0] > shares[1] && shares[1] > shares[2],
            "peak shares not ordered NY > Denver > Detroit: {shares:?}"
        );
    }

    #[test]
    fn detroit_has_highest_spread_entropy() {
        // Flat background ⇒ mass spread over more cells ⇒ higher entropy.
        let h: Vec<f64> = City::ALL
            .iter()
            .map(|c| {
                let m = c.model().population_matrix(64, 60_000, &mut rng(4));
                matrix_entropy(&m)
            })
            .collect();
        assert!(h[2] > h[0], "Detroit {h:?} must spread more than New York");
    }

    #[test]
    fn gravity_prefers_nearby_heavy_hotspots() {
        let city = CityModel {
            name: "toy".into(),
            hotspots: vec![
                Hotspot {
                    center: [0.1, 0.1],
                    sigma: 0.01,
                    weight: 1.0,
                },
                Hotspot {
                    center: [0.9, 0.9],
                    sigma: 0.01,
                    weight: 1.0,
                },
            ],
            background: 0.0,
        };
        let mut r = rng(5);
        let near = (0..2_000)
            .filter(|_| {
                let h = city.pick_gravity([0.1, 0.1], 0.1, &mut r);
                h.center == [0.1, 0.1]
            })
            .count();
        assert!(near > 1_800, "gravity pick chose near hotspot {near}/2000");
    }

    #[test]
    fn nearest_hotspot_is_nearest() {
        let city = City::Denver.model();
        let p = [0.5, 0.5];
        let nearest = city.nearest_hotspot(p);
        for h in &city.hotspots {
            assert!(dist(p, nearest.center) <= dist(p, h.center) + 1e-12);
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(to_cell(0.999, 10), 9);
        assert_eq!(to_cell(0.0, 10), 0);
        assert_eq!(to_cell(1.0, 10), 9, "boundary clamps into the grid");
        assert!(clamp_unit(1.7) < 1.0);
        assert_eq!(clamp_unit(-0.3), 0.0);
    }
}
