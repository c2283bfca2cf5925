//! One-sided (Hestenes) Jacobi SVD.
//!
//! Orthogonalizes the columns of a working copy of `A` by plane rotations,
//! accumulating the rotations into `V`. On convergence the column norms are
//! the singular values and the normalized columns form `U`. One-sided Jacobi
//! attains high relative accuracy even for small singular values, which makes
//! it the reference kernel that all other SVD paths in this workspace are
//! tested against.
//!
//! Two sweep strategies share the extraction code:
//!
//! - **Direct** (the reference): each pair `(p, q)` reads its column
//!   moments straight from `U` and rotates the full `m`-row columns in
//!   place — level-1, memory-bound, but with the high-relative-accuracy
//!   property intact. Small factors (per [`crate::rot::rot_block`]) and
//!   an explicit capacity of 1 ([`jacobi_svd_caps`]) take this path.
//! - **Accumulated**: per sweep, one level-3 Gram product `B = UᵀU`
//!   supplies every pair's moments; each rotation updates `B` by its
//!   congruence `B ← RᵀBR` (cache-resident, `O(n)` per pair) and is
//!   *recorded* into [`crate::rot::RotAccumulator`] windows for `U` and
//!   `V`, which are applied by GEMM once per sweep. The trajectory differs
//!   from the direct path in rounding only; singular values and modes
//!   agree to the documented `≤1e-12 · σ₁` contract. The Gram detour does
//!   give up the tiny-singular-value relative accuracy (the usual `κ²`
//!   effect), which is why the shape heuristic keeps small problems — the
//!   ones used as accuracy references — on the direct path.
//!
//! Expects `m >= n`; the dispatcher in [`crate::svd`] transposes wider
//! matrices before calling in.

use crate::gemm::gram_into;
use crate::matrix::Matrix;
use crate::rot::{rot_block, RotAccumulator};
use crate::scalar::Scalar;
use crate::svd::{Svd, SvdInfo};
use crate::workspace::Workspace;

/// Maximum number of sweeps over all column pairs.
const MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD of a tall (or square) matrix. Panics if `m < n`.
pub fn jacobi_svd<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    jacobi_svd_with_info(a).0
}

/// [`jacobi_svd`] plus its convergence report (`iterations` = sweeps).
pub fn jacobi_svd_with_info<T: Scalar>(a: &Matrix<T>) -> (Svd<T>, SvdInfo) {
    let (m, n) = a.shape();
    jacobi_svd_caps(a, rot_block(m, n))
}

/// [`jacobi_svd_with_info`] with an explicit rotation-window capacity
/// instead of [`rot_block`] of the shape; `cap <= 1` is the direct
/// reference sweep. `cap` should not exceed the column count: the window
/// is `cap x cap` scratch. Panics if `m < n`.
pub fn jacobi_svd_caps<T: Scalar>(a: &Matrix<T>, cap: usize) -> (Svd<T>, SvdInfo) {
    let (m, n) = a.shape();
    assert!(m >= n, "jacobi_svd requires m >= n (got {m}x{n}); use svd() for wide input");
    if n == 0 {
        let f = Svd { u: Matrix::zeros(m, 0), s: Vec::new(), vt: Matrix::zeros(0, 0) };
        return (f, SvdInfo { iterations: 0, converged: true });
    }
    if cap <= 1 {
        jacobi_direct(a)
    } else {
        jacobi_accumulated(a, cap)
    }
}

/// Squared column norm at or below which a column is negligible: `ε²`
/// times the largest squared column norm of `a`. Rotating such a column
/// moves its partner by at most `ε` relative, while its own moments sink
/// into the subnormal range where the orthogonality test below can never
/// pass (rank-deficient input would otherwise sweep until the cap).
fn negligible_norm2<T: Scalar>(a: &Matrix<T>) -> T {
    let largest = (0..a.cols()).map(|j| a.col_norm(j)).fold(T::ZERO, T::max);
    let floor = T::EPSILON * largest;
    floor * floor
}

/// Jacobi rotation for the pair `(p, q)` with moments `alpha = ‖u_p‖²`,
/// `beta = ‖u_q‖²`, `gamma = u_p·u_q`: returns `(c, s, t)` zeroing the
/// inner product, or `None` when the pair is already orthogonal at
/// tolerance `eps` or either column is negligible (`≤ tiny`).
#[inline]
fn pair_rotation<T: Scalar>(alpha: T, beta: T, gamma: T, eps: T, tiny: T) -> Option<(T, T, T)> {
    if alpha <= tiny || beta <= tiny {
        return None;
    }
    if gamma.abs() <= eps * (alpha * beta).sqrt() {
        return None;
    }
    let zeta = (beta - alpha) / (T::from_f64(2.0) * gamma);
    let t = zeta.signum() / (zeta.abs() + (T::ONE + zeta * zeta).sqrt());
    let c = T::ONE / (T::ONE + t * t).sqrt();
    let s = c * t;
    Some((c, s, t))
}

/// The direct reference path: moments from `U`, rotations applied in place.
fn jacobi_direct<T: Scalar>(a: &Matrix<T>) -> (Svd<T>, SvdInfo) {
    let (m, n) = a.shape();
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let eps = T::EPSILON;
    let tiny = negligible_norm2(a);

    let mut sweeps = 0;
    let mut converged = false;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut off_diagonal = false;
        for p in 0..n {
            for q in p + 1..n {
                // Column moments.
                let mut alpha = T::ZERO;
                let mut beta = T::ZERO;
                let mut gamma = T::ZERO;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                let Some((c, s, _)) = pair_rotation(alpha, beta, gamma, eps, tiny) else {
                    continue;
                };
                off_diagonal = true;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if !off_diagonal {
            converged = true;
            break;
        }
    }
    (extract(&u, &v), SvdInfo { iterations: sweeps, converged })
}

/// The accumulated path: per-sweep Gram moments, congruence-maintained,
/// with `U`/`V` rotations recorded into level-3 windows.
fn jacobi_accumulated<T: Scalar>(a: &Matrix<T>, cap: usize) -> (Svd<T>, SvdInfo) {
    let (_, n) = a.shape();
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let eps = T::EPSILON;
    let tiny = negligible_norm2(a);
    let mut ws = Workspace::new();
    let mut acc_u = RotAccumulator::new(cap);
    let mut acc_v = RotAccumulator::new(cap);
    let mut b = Matrix::zeros(0, 0);

    let mut sweeps = 0;
    let mut converged = false;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        // One level-3 product supplies every pair's moments for the sweep;
        // U must be current first.
        acc_u.flush(&mut u, &mut ws);
        gram_into(u.view(), &mut b);
        let mut off_diagonal = false;
        for p in 0..n {
            for q in p + 1..n {
                let alpha = b[(p, p)];
                let beta = b[(q, q)];
                let gamma = b[(p, q)];
                let Some((c, s, t)) = pair_rotation(alpha, beta, gamma, eps, tiny) else {
                    continue;
                };
                off_diagonal = true;
                // Congruence update B ← RᵀBR, with the analytically exact
                // values substituted where rounding would otherwise leave
                // residue: the (p,q) product is zeroed by construction and
                // the diagonal obeys the standard t·gamma transfer.
                for i in 0..n {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)];
                    b[(i, p)] = c * bp - s * bq;
                    b[(i, q)] = s * bp + c * bq;
                }
                for j in 0..n {
                    let bp = b[(p, j)];
                    let bq = b[(q, j)];
                    b[(p, j)] = c * bp - s * bq;
                    b[(q, j)] = s * bp + c * bq;
                }
                b[(p, p)] = alpha - t * gamma;
                b[(q, q)] = beta + t * gamma;
                b[(p, q)] = T::ZERO;
                b[(q, p)] = T::ZERO;
                // `u_p ← c·u_p − s·u_q, u_q ← s·u_p + c·u_q` in the
                // accumulator's convention is `rotate(p, q, c, −s)`.
                acc_u.rotate(&mut u, p, q, c, -s, &mut ws);
                acc_v.rotate(&mut v, p, q, c, -s, &mut ws);
            }
        }
        if !off_diagonal {
            converged = true;
            break;
        }
    }
    acc_u.flush(&mut u, &mut ws);
    acc_v.flush(&mut v, &mut ws);
    (extract(&u, &v), SvdInfo { iterations: sweeps, converged })
}

/// Extract singular values (column norms of `u`, descending), normalized
/// `U`, and `Vᵀ` — shared by both sweep strategies.
fn extract<T: Scalar>(u: &Matrix<T>, v: &Matrix<T>) -> Svd<T> {
    let (m, n) = u.shape();
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<T> = (0..n).map(|j| u.col_norm(j)).collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("NaN singular value"));

    let mut s = Vec::with_capacity(n);
    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    for (jj, &j) in order.iter().enumerate() {
        let sigma = norms[j];
        s.push(sigma);
        if sigma > T::ZERO {
            for i in 0..m {
                u_sorted[(i, jj)] = u[(i, j)] / sigma;
            }
        }
        for i in 0..n {
            v_sorted[(i, jj)] = v[(i, j)];
        }
    }
    // Zero singular values leave zero columns in U; replace with canonical
    // unit vectors orthogonal to the rest is unnecessary for our use (the
    // drivers always truncate past the numerical rank), so we keep zeros.

    Svd { u: u_sorted, s, vt: v_sorted.transpose() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms::orthogonality_error;

    fn check_reconstruction(a: &Matrix, tol: f64) {
        let f = jacobi_svd(a);
        let rec = matmul(&f.u.mul_diag(&f.s), &f.vt);
        let err = (a - &rec).frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(err < tol, "reconstruction error {err}");
        assert!(orthogonality_error(&f.u.first_columns(rank_of(&f.s))) < 1e-10);
        assert!(orthogonality_error(&f.vt.transpose()) < 1e-10);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1], "singular values not descending: {:?}", f.s);
        }
        for &sv in &f.s {
            assert!(sv >= 0.0);
        }
    }

    fn rank_of(s: &[f64]) -> usize {
        let smax = s.first().copied().unwrap_or(0.0);
        s.iter().filter(|&&x| x > 1e-12 * smax.max(1.0)).count()
    }

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::from_diag(&[4.0, 1.0, 9.0]);
        let f = jacobi_svd(&a);
        assert!((f.s[0] - 9.0).abs() < 1e-12);
        assert!((f.s[1] - 4.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = Matrix::from_fn(40, 10, |i, j| ((i * 13 + j * 7) as f64 * 0.31).sin());
        check_reconstruction(&a, 1e-12);
    }

    #[test]
    fn svd_reconstructs_square() {
        let a = Matrix::from_fn(25, 25, |i, j| ((i + j * j) as f64 * 0.11).cos());
        check_reconstruction(&a, 1e-12);
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-2 matrix from an outer product sum.
        let u1: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin()).collect();
        let u2: Vec<f64> = (0..30).map(|i| (i as f64 * 0.5).cos()).collect();
        let a = Matrix::from_fn(30, 8, |i, j| {
            u1[i] * (j as f64 + 1.0) + u2[i] * ((j * j) as f64 * 0.1)
        });
        let f = jacobi_svd(&a);
        assert!(f.s[2] < 1e-10 * f.s[0], "rank should be 2, got s = {:?}", f.s);
        check_reconstruction(&a, 1e-11);
    }

    #[test]
    fn svd_of_zero() {
        let a = Matrix::<f64>::zeros(10, 4);
        let f = jacobi_svd(&a);
        assert!(f.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn svd_known_2x2() {
        // A = [[3, 0], [4, 5]] has singular values sqrt(45) and sqrt(5).
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 5.0]]);
        let f = jacobi_svd(&a);
        assert!((f.s[0] - 45f64.sqrt()).abs() < 1e-12);
        assert!((f.s[1] - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn small_singular_values_accurate() {
        // Graded matrix: Jacobi should capture sigma ~ 1e-8 accurately.
        let d = [1.0, 1e-4, 1e-8];
        let a = Matrix::from_diag(&d);
        // Mix with an orthogonal-ish transform to make it non-diagonal.
        let q =
            crate::qr::thin_qr(&Matrix::from_fn(3, 3, |i, j| ((i * 2 + j) as f64).sin() + 0.2)).q;
        let mixed = matmul(&q, &a);
        let f = jacobi_svd(&mixed);
        for (got, want) in f.s.iter().zip(&d) {
            assert!((got - want).abs() / want < 1e-9, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn accumulated_matches_direct_reference() {
        let a = Matrix::from_fn(150, 16, |i, j| ((i * 5 + j * 9) as f64 * 0.17).sin() + 0.03);
        let (direct, di) = jacobi_svd_caps(&a, 1);
        let (acc, ai) = jacobi_svd_caps(&a, 16);
        assert!(di.converged && ai.converged);
        let s0 = direct.s[0];
        for (x, y) in direct.s.iter().zip(&acc.s) {
            assert!((x - y).abs() <= 1e-12 * s0, "sigma diverged: {x} vs {y}");
        }
        // Modes are only pinned down (up to sign) where the spectrum is
        // well separated; clustered directions legitimately differ between
        // the two trajectories, so compare the separated ones and the full
        // reconstruction.
        for k in 0..direct.s.len() {
            let gap_lo = if k > 0 { direct.s[k - 1] - direct.s[k] } else { f64::INFINITY };
            let gap_hi =
                if k + 1 < direct.s.len() { direct.s[k] - direct.s[k + 1] } else { f64::INFINITY };
            if gap_lo.min(gap_hi) < 1e-3 * s0 {
                continue;
            }
            let dot: f64 = (0..a.rows()).map(|i| direct.u[(i, k)] * acc.u[(i, k)]).sum();
            let sign = if dot < 0.0 { -1.0 } else { 1.0 };
            for i in 0..a.rows() {
                let (x, y) = (direct.u[(i, k)], sign * acc.u[(i, k)]);
                assert!((x - y).abs() < 1e-10, "U mode {k} diverged: {x} vs {y}");
            }
            for i in 0..a.cols() {
                let (x, y) = (direct.vt[(k, i)], sign * acc.vt[(k, i)]);
                assert!((x - y).abs() < 1e-10, "V mode {k} diverged: {x} vs {y}");
            }
        }
        assert!(orthogonality_error(&acc.u) < 1e-10);
        assert!(orthogonality_error(&acc.vt.transpose()) < 1e-10);
        assert!(acc.reconstruction_error(&a) < 1e-12);
    }

    #[test]
    fn convergence_info_reports_success() {
        let a = Matrix::from_fn(20, 6, |i, j| ((i + 2 * j) as f64 * 0.29).sin());
        let (_, info) = jacobi_svd_with_info(&a);
        assert!(info.converged);
        assert!(info.iterations >= 1 && info.iterations <= MAX_SWEEPS);
    }

    #[test]
    #[should_panic(expected = "requires m >= n")]
    fn wide_input_panics() {
        jacobi_svd(&Matrix::<f64>::zeros(2, 5));
    }
}
