//! Brand's incremental SVD — a baseline streaming algorithm.
//!
//! Matthew Brand's rank-K update (used by the recommender-system literature
//! the paper cites, e.g. Sarwar et al.) maintains the thin factorization
//! and absorbs a batch `C` by factorizing only the *residual* of `C`
//! against the current basis:
//!
//! ```text
//! L = Uᵀ C                (projection, K x B)
//! H = C − U L             (residual)
//! H = J R                 (thin QR, J: M x B)
//! Q = [ ff·diag(S)  L ]   ((K+B) x (K+B))
//!     [     0       R ]
//! Q = U' S' V'ᵀ           (small SVD)
//! U ← [U  J] U'           (truncate to K)
//! ```
//!
//! Versus Levy–Lindenbaum (which re-QRs the full `M x (K+B)` stack), Brand
//! QRs only the `M x B` residual — cheaper per update (`O(MKB + MB²)` vs
//! `O(M(K+B)²)`) at the cost of relying on `U` staying numerically
//! orthonormal across updates. The `ablation_baselines` bench quantifies
//! both sides; this implementation re-orthonormalizes `U` every
//! `REORTH_EVERY` updates to bound drift.

use psvd_linalg::gemm::{matmul_into, matmul_tn_into};
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::svd::svd_with;
use psvd_linalg::workspace::{Workspace, WorkspaceStats};
use psvd_linalg::Matrix;

use crate::config::SvdConfig;

/// Re-orthonormalize the basis every this many updates.
const REORTH_EVERY: usize = 32;

/// Brand-style incremental truncated SVD.
///
/// As with the Levy–Lindenbaum drivers, the per-update temporaries — the
/// projection, residual, its QR factors, the stacked basis and the next
/// mode matrix — live in per-instance buffers, so steady-state updates
/// allocate only the small `O((K+B)²)` core SVD factors.
pub struct BrandIncrementalSvd {
    cfg: SvdConfig,
    modes: Matrix,
    singular_values: Vec<f64>,
    iteration: usize,
    snapshots_seen: usize,
    /// Scratch arena feeding the QR kernel.
    ws: Workspace,
    /// Projection `L = Uᵀ C` and its second-pass correction.
    proj: Matrix,
    proj2: Matrix,
    /// Residual `H = C − U L` and the re-projection product `U L₂`.
    resid: Matrix,
    corr: Matrix,
    /// Thin-QR factors of the residual (reused by the re-orth pass).
    jq: Matrix,
    jr: Matrix,
    /// Kept residual directions and the stacked `[U | J]` basis.
    jkeep: Matrix,
    basis: Matrix,
    /// Small core matrix the update SVDs.
    qcore: Matrix,
    /// Buffer the next mode matrix is formed in before swapping in.
    next_modes: Matrix,
}

impl BrandIncrementalSvd {
    /// New tracker; feed the first batch to `initialize`.
    pub fn new(cfg: SvdConfig) -> Self {
        let cfg = cfg.validated();
        Self {
            cfg,
            modes: Matrix::zeros(0, 0),
            singular_values: Vec::new(),
            iteration: 0,
            snapshots_seen: 0,
            ws: Workspace::new(),
            proj: Matrix::zeros(0, 0),
            proj2: Matrix::zeros(0, 0),
            resid: Matrix::zeros(0, 0),
            corr: Matrix::zeros(0, 0),
            jq: Matrix::zeros(0, 0),
            jr: Matrix::zeros(0, 0),
            jkeep: Matrix::zeros(0, 0),
            basis: Matrix::zeros(0, 0),
            qcore: Matrix::zeros(0, 0),
            next_modes: Matrix::zeros(0, 0),
        }
    }

    /// True once initialized.
    pub fn is_initialized(&self) -> bool {
        self.snapshots_seen > 0
    }

    /// Current modes (`M x K`).
    pub fn modes(&self) -> &Matrix {
        &self.modes
    }

    /// Current singular values.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Updates performed (excluding init).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Snapshots ingested.
    pub fn snapshots_seen(&self) -> usize {
        self.snapshots_seen
    }

    /// Allocation accounting for the internal scratch arena (see
    /// [`crate::serial::SerialStreamingSvd::scratch_stats`]).
    pub fn scratch_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Reset the scratch-arena counters.
    pub fn reset_scratch_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// Ingest the first batch (thin SVD of it).
    pub fn initialize(&mut self, a0: &Matrix) -> &mut Self {
        assert!(!self.is_initialized(), "initialize called twice");
        assert!(a0.cols() > 0, "first batch is empty");
        let f = svd_with(a0, self.cfg.method);
        let k = self.cfg.k.min(f.s.len());
        self.modes = f.u.first_columns(k);
        self.singular_values = f.s[..k].to_vec();
        self.snapshots_seen = a0.cols();
        self
    }

    /// Ingest one batch by the Brand update.
    pub fn incorporate_data(&mut self, c: &Matrix) -> &mut Self {
        assert!(self.is_initialized(), "incorporate_data before initialize");
        assert_eq!(c.rows(), self.modes.rows(), "batch row count changed mid-stream");
        if c.cols() == 0 {
            return self;
        }
        self.iteration += 1;
        let k = self.modes.cols();
        let b = c.cols();
        let m = self.modes.rows();

        // Projection and residual, all in persistent buffers. The
        // projection is applied twice ("twice is enough"): a single pass
        // leaves an O(eps·kappa) component of C in span(U) inside H, which
        // the QR would then amplify into spurious basis directions.
        matmul_tn_into(self.modes.view(), c.view(), &mut self.proj); // K x B
        matmul_into(self.modes.view(), self.proj.view(), &mut self.resid);
        for i in 0..m {
            for (r, &x) in self.resid.row_mut(i).iter_mut().zip(c.row(i)) {
                *r = x - *r; // H = C − U L
            }
        }
        matmul_tn_into(self.modes.view(), self.resid.view(), &mut self.proj2);
        matmul_into(self.modes.view(), self.proj2.view(), &mut self.corr);
        for i in 0..m {
            for (r, &x) in self.resid.row_mut(i).iter_mut().zip(self.corr.row(i)) {
                *r -= x;
            }
        }
        for i in 0..k {
            for (l, &l2) in self.proj.row_mut(i).iter_mut().zip(self.proj2.row(i)) {
                *l += l2;
            }
        }
        // Orthogonalize the residual block at `qr_block` of its shape:
        // batches of 48 columns or more take compact-WY panels with
        // packed-GEMM trailing updates, narrower ones the unblocked path.
        qr_thin_into(self.resid.view(), &mut self.jq, &mut self.jr, &mut self.ws);

        // Keep only residual directions that carry real energy: when a
        // batch lies (numerically) inside span(U), the QR of the ~zero
        // residual produces arbitrary directions NOT orthogonal to U, and
        // absorbing them would corrupt the factorization. Threshold on the
        // canonical (non-negative) R diagonal.
        let scale = self.singular_values.first().copied().unwrap_or(0.0).max(c.frobenius_norm());
        let tol = 1e-10 * scale.max(f64::MIN_POSITIVE);
        let keep: Vec<usize> = (0..b).filter(|&j| self.jr[(j, j)] > tol).collect();
        let kept = keep.len();
        self.jkeep.reshape_for_overwrite(m, kept);
        for i in 0..m {
            for (jj, &jcol) in keep.iter().enumerate() {
                self.jkeep[(i, jj)] = self.jq[(i, jcol)];
            }
        }

        // Small core matrix Q: (k + kept) x (k + b).
        let ff = self.cfg.forget_factor;
        self.qcore.reshape_zeroed(k + kept, k + b);
        for i in 0..k {
            self.qcore[(i, i)] = ff * self.singular_values[i];
        }
        for i in 0..k {
            for j in 0..b {
                self.qcore[(i, k + j)] = self.proj[(i, j)];
            }
        }
        for (row, &i) in keep.iter().enumerate() {
            for j in 0..b {
                self.qcore[(k + row, k + j)] = self.jr[(i, j)];
            }
        }

        let f = svd_with(&self.qcore, self.cfg.method);
        let k_new = self.cfg.k.min(f.s.len());

        // U <- [U J_keep] U'[:, :k_new].
        self.modes.hstack_into(&self.jkeep, &mut self.basis); // M x (K+kept)
        matmul_into(self.basis.view(), f.u.block(0, f.u.rows(), 0, k_new), &mut self.next_modes);
        std::mem::swap(&mut self.modes, &mut self.next_modes);
        self.singular_values.clear();
        self.singular_values.extend_from_slice(&f.s[..k_new]);
        self.snapshots_seen += b;

        // Periodic re-orthonormalization bounds drift of the long product.
        if self.iteration.is_multiple_of(REORTH_EVERY) {
            qr_thin_into(self.modes.view(), &mut self.jq, &mut self.jr, &mut self.ws);
            // Fold the (near-identity) R back into the singular values via
            // an SVD of R·diag(S), scaling R's columns in place.
            for i in 0..self.jr.rows() {
                for (x, &s) in self.jr.row_mut(i).iter_mut().zip(&self.singular_values) {
                    *x *= s;
                }
            }
            let f = svd_with(&self.jr, self.cfg.method);
            matmul_into(self.jq.view(), f.u.view(), &mut self.next_modes);
            std::mem::swap(&mut self.modes, &mut self.next_modes);
            self.singular_values = f.s;
        }
        self
    }

    /// Stream a whole matrix in `batch`-column chunks.
    pub fn fit_batched(&mut self, data: &Matrix, batch: usize) -> &mut Self {
        assert!(batch > 0, "batch size must be positive");
        let n = data.cols();
        let mut c0 = 0;
        while c0 < n {
            let c1 = (c0 + batch).min(n);
            let chunk = data.submatrix(0, data.rows(), c0, c1);
            if self.is_initialized() {
                self.incorporate_data(&chunk);
            } else {
                self.initialize(&chunk);
            }
            c0 = c1;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{batch_truncated_svd, SerialStreamingSvd};
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    fn decaying(m: usize, n: usize, seed: u64) -> Matrix {
        let spec: Vec<f64> = (0..n.min(m)).map(|i| 6.0 * 0.7f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    }

    #[test]
    fn exact_on_low_rank_stream() {
        let mut rng = seeded_rng(1);
        let a = matrix_with_spectrum(60, 32, &[5.0, 2.0, 1.0], &mut rng);
        let mut b = BrandIncrementalSvd::new(SvdConfig::new(5).with_forget_factor(1.0));
        b.fit_batched(&a, 8);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 3);
        assert!(spectrum_error(&s_ref, &b.singular_values()[..3]) < 1e-8);
        assert!(max_principal_angle(&u_ref, &b.modes().first_columns(3)) < 1e-5);
    }

    #[test]
    fn tracks_batch_svd_on_decaying_spectrum() {
        let a = decaying(80, 40, 2);
        let mut b = BrandIncrementalSvd::new(SvdConfig::new(6).with_forget_factor(1.0));
        b.fit_batched(&a, 10);
        let (_, s_ref) = batch_truncated_svd(&a, 6);
        for (got, want) in b.singular_values()[..3].iter().zip(&s_ref[..3]) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn agrees_with_levy_lindenbaum() {
        // Same truncation schedule, same data, same ff: the two streaming
        // algorithms are algebraically equivalent and should agree closely.
        let a = decaying(50, 30, 3);
        let cfg = SvdConfig::new(4).with_forget_factor(0.95);
        let mut brand = BrandIncrementalSvd::new(cfg);
        brand.fit_batched(&a, 6);
        let mut ll = SerialStreamingSvd::new(cfg);
        ll.fit_batched(&a, 6);
        assert!(spectrum_error(ll.singular_values(), brand.singular_values()) < 1e-6);
        assert!(max_principal_angle(ll.modes(), brand.modes()) < 1e-4);
    }

    #[test]
    fn basis_stays_orthonormal_over_many_updates() {
        let m = 40;
        let mut b = BrandIncrementalSvd::new(SvdConfig::new(4).with_forget_factor(0.99));
        let mk = |seed: u64| decaying(m, 6, seed);
        b.initialize(&mk(100));
        for i in 0..100 {
            b.incorporate_data(&mk(i));
            assert!(
                orthogonality_error(b.modes()) < 1e-8,
                "drift after {} updates: {}",
                i + 1,
                orthogonality_error(b.modes())
            );
        }
    }

    #[test]
    fn bookkeeping() {
        let a = decaying(30, 17, 4);
        let mut b = BrandIncrementalSvd::new(SvdConfig::new(3));
        b.fit_batched(&a, 5);
        assert_eq!(b.snapshots_seen(), 17);
        assert_eq!(b.iteration(), 3);
    }

    #[test]
    #[should_panic(expected = "before initialize")]
    fn update_before_init_panics() {
        let mut b = BrandIncrementalSvd::new(SvdConfig::new(2));
        b.incorporate_data(&Matrix::identity(4));
    }
}
