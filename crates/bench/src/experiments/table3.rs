//! Table 3: running time of every mechanism on the 2-D city histograms at
//! ε = 0.1.
//!
//! This is a one-shot wall-clock measurement. The paper's claim is
//! relative (DAF methods are faster because they stop splitting early;
//! everything finishes in minutes), so the ordering, not the absolute
//! seconds, is the reproduction target.

use crate::datasets::city_2d;
use crate::report::{Experiment, Panel, Series};
use crate::HarnessConfig;
use dpod_core::paper_suite;
use dpod_data::City;
use dpod_dp::Epsilon;
use std::time::Instant;

/// The table's fixed privacy budget.
pub const EPSILON: f64 = 0.1;

/// Runs the experiment. One panel per city; one single-point series per
/// mechanism whose y value is the sanitize wall-clock in seconds.
pub fn table3(cfg: &HarnessConfig) -> Experiment {
    let mechanisms = paper_suite();
    let eps = Epsilon::new(EPSILON).expect("valid epsilon");
    let mut panels = Vec::new();
    for city in City::ALL {
        let ds = city_2d(cfg, city);
        let mut series = Vec::new();
        for mech in &mechanisms {
            let mut rng = dpod_dp::seeded_rng(cfg.sub_seed(&format!(
                "table3/{}/{}",
                city.name(),
                mech.name()
            )));
            let start = Instant::now();
            let out = mech
                .sanitize(&ds.matrix, eps, &mut rng)
                .expect("table3 sanitization");
            let secs = start.elapsed().as_secs_f64();
            // Keep the release alive until timing ends (drop cost counts in
            // the paper's end-to-end numbers too).
            drop(out);
            series.push(Series {
                label: mech.name().to_string(),
                points: vec![(0.0, secs)],
            });
        }
        panels.push(Panel {
            title: format!("{} ({}², ε={EPSILON})", city.name(), cfg.city_grid()),
            x_label: "-".into(),
            y_label: "seconds".into(),
            series,
        });
    }
    Experiment {
        id: "table3".into(),
        description: "Mechanism running time, 2D city data (paper Table 3)".into(),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table3_times_all_mechanisms() {
        let cfg = HarnessConfig::at_scale(crate::Scale::Tiny);
        let e = table3(&cfg);
        assert_eq!(e.panels.len(), 3);
        for p in &e.panels {
            assert_eq!(p.series.len(), 6);
            for s in &p.series {
                let (_, secs) = s.points[0];
                assert!(secs >= 0.0 && secs.is_finite());
            }
        }
    }
}
