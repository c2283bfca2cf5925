//! The inner SVD of the small factors every driver produces — the serial
//! driver's `R`, the APMOS root's gathered `W`, the TSQR root's final `R`
//! and each merge-tree interior stack — decided once from the
//! configuration instead of at every call site.

use psvd_linalg::randomized::{mixed_randomized_svd, randomized_svd};
use psvd_linalg::svd::svd_with;
use psvd_linalg::{Matrix, RandomizedConfig, Scalar, SvdMethod};
use rand::rngs::StdRng;

use crate::config::{Precision, SvdConfig};

/// The inner solver a [`SvdConfig`] selects. The randomized arms carry the
/// configured oversampling and power iterations; the target rank is
/// supplied per call.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InnerSolver {
    /// Dense thin SVD with the configured kernel.
    Dense(SvdMethod),
    /// Randomized SVD at the driver dtype.
    Randomized(RandomizedConfig),
    /// Randomized SVD with an f32 range finder and f64 factors, narrowed
    /// back to the driver dtype (exact when that is f64).
    MixedRandomized(RandomizedConfig),
}

impl InnerSolver {
    /// Resolve the solver `cfg` asks for.
    pub(crate) fn new(cfg: &SvdConfig) -> Self {
        let sketch = cfg.randomized(0);
        match (cfg.low_rank, cfg.precision) {
            (false, _) => InnerSolver::Dense(cfg.method),
            (true, Precision::Mixed) => InnerSolver::MixedRandomized(sketch),
            (true, _) => InnerSolver::Randomized(sketch),
        }
    }

    /// True for the randomized arms.
    pub(crate) fn is_randomized(&self) -> bool {
        !matches!(self, InnerSolver::Dense(_))
    }

    /// Left singular vectors and singular values of `a`. The randomized
    /// arms keep `rank` triplets and draw their sketch from `rng`; the
    /// dense arm returns the full thin factorization and leaves `rng`
    /// untouched.
    pub(crate) fn factorize<T: Scalar>(
        &self,
        a: &Matrix<T>,
        rank: usize,
        rng: &mut StdRng,
    ) -> (Matrix<T>, Vec<T>) {
        match *self {
            InnerSolver::Dense(method) => {
                let f = svd_with(a, method);
                (f.u, f.s)
            }
            InnerSolver::Randomized(sketch) => {
                let f = randomized_svd(a, &RandomizedConfig { rank, ..sketch }, rng);
                (f.u, f.s)
            }
            InnerSolver::MixedRandomized(sketch) => {
                let f = mixed_randomized_svd(&a.cast(), &RandomizedConfig { rank, ..sketch }, rng);
                (f.u.cast(), f.s.into_iter().map(T::from_f64).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_each_arm_from_the_config() {
        let base = SvdConfig::new(3).with_precision(Precision::F64);
        assert!(matches!(InnerSolver::new(&base), InnerSolver::Dense(SvdMethod::GolubKahan)));
        let rand = base.with_low_rank(true).with_oversampling(4).with_power_iterations(3);
        match InnerSolver::new(&rand) {
            InnerSolver::Randomized(c) => assert_eq!((c.oversampling, c.power_iterations), (4, 3)),
            other => panic!("expected the randomized arm, got {other:?}"),
        }
        let mixed = rand.with_precision(Precision::Mixed);
        assert!(matches!(InnerSolver::new(&mixed), InnerSolver::MixedRandomized(_)));
        // Mixed precision without low_rank keeps the dense kernel.
        let dense_mixed = base.with_precision(Precision::Mixed);
        assert!(!InnerSolver::new(&dense_mixed).is_randomized());
    }
}
