//! One module per reproduced table/figure. Each returns an
//! [`Experiment`] (or a rendered string for the visual Fig. 3) that the
//! `reproduce` binary prints and persists.
//!
//! [`Experiment`]: crate::report::Experiment

pub mod ablation;
pub mod extensions;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod table3;

pub use ablation::ablation;
pub use extensions::extensions;
pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::{fig6, fig7_from};
pub use fig8::fig8;
pub use table3::table3;

/// The privacy budgets of the paper's sweeps (§6.1).
pub const PAPER_EPSILONS: [f64; 3] = [0.1, 0.3, 0.5];

/// Dimensionalities of the synthetic sweeps (shared by Figs. 4 and 5).
pub fn fig4_dims() -> [usize; 3] {
    fig4::DIMS
}
