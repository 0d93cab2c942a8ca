//! # dpod-bench
//!
//! The reproduction harness for every table and figure in the paper's
//! evaluation (§6). Its entry point is the **`reproduce` binary**: it
//! regenerates the accuracy figures (Fig. 3–8), the runtime table
//! (Table 3, one-shot wall-clock), the ablations and the extensions,
//! printing each panel as an aligned text table and writing
//! `results/<id>.json`.
//!
//! Each experiment id names its paper counterpart (`fig4`, `fig8`,
//! `table3`, …); `ablation` covers choices the paper leaves open.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale: 1 M points, 300 k trajectories, 1000 queries, 1000²
    /// city grids.
    Full,
    /// Laptop smoke runs: same sweeps, reduced data.
    Quick,
    /// Structure tests: minutes become milliseconds.
    Tiny,
}

/// Global harness configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Experiment sizing.
    pub scale: Scale,
    /// Base seed; every (experiment, dataset, mechanism, ε, trial) derives
    /// its own deterministic stream from it.
    pub seed: u64,
    /// Directory for JSON result dumps.
    pub out_dir: std::path::PathBuf,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: Scale::Full,
            seed: 0xD90D,
            out_dir: std::path::PathBuf::from("results"),
        }
    }
}

impl HarnessConfig {
    /// A configuration at the given scale with default seed/output.
    pub fn at_scale(scale: Scale) -> Self {
        HarnessConfig {
            scale,
            ..HarnessConfig::default()
        }
    }

    /// Synthetic dataset size (paper: 1 million points).
    pub fn num_points(&self) -> usize {
        match self.scale {
            Scale::Full => 1_000_000,
            Scale::Quick => 150_000,
            Scale::Tiny => 4_000,
        }
    }

    /// Trajectory count for the OD experiments (paper: 300 000).
    pub fn num_trajectories(&self) -> usize {
        match self.scale {
            Scale::Full => 300_000,
            Scale::Quick => 60_000,
            Scale::Tiny => 3_000,
        }
    }

    /// Queries per data point (paper: 1000).
    pub fn num_queries(&self) -> usize {
        match self.scale {
            Scale::Full => 1_000,
            Scale::Quick => 300,
            Scale::Tiny => 60,
        }
    }

    /// 2-D city grid side (paper: 1000).
    pub fn city_grid(&self) -> usize {
        match self.scale {
            Scale::Full => 1_000,
            Scale::Quick => 256,
            Scale::Tiny => 64,
        }
    }

    /// OD grid cells per axis for `stops` intermediate stops: the paper's
    /// 1000 per axis would need 1000⁴ cells in 4-D, so each extra
    /// dimension coarsens the grid to keep a matrix in memory.
    pub fn od_cells(&self, stops: usize) -> usize {
        let full = match stops {
            0 => 32,
            1 => 10,
            _ => 6,
        };
        match self.scale {
            Scale::Full => full,
            Scale::Quick => full.min(16),
            Scale::Tiny => full.min(6),
        }
    }

    /// Derives a deterministic sub-seed for a labelled unit of work.
    pub fn sub_seed(&self, label: &str) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut h);
        label.hash(&mut h);
        h.finish()
    }
}
