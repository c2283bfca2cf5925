//! Serial streaming SVD — Levy & Lindenbaum's sequential Karhunen–Loève
//! basis extraction (Algorithm 1 / Listing 1 of the paper).
//!
//! The `K` leading left singular vectors are updated batch by batch:
//!
//! 1. `initialize(A0)`: thin QR of the first batch, SVD of the small `R`,
//!    keep `K` columns of `Q·U'`.
//! 2. `incorporate_data(Ai)`: stack the down-weighted current factorization
//!    `ff · U·diag(s)` with the new batch, thin-QR the stack, SVD the small
//!    triangular factor, keep `K` columns.
//!
//! Cost per batch is `O(M (K+B)²)` with `O(M K)` memory — never `O(M N)`.
//!
//! Divergence from the paper's Listing 1, documented per `DESIGN.md`: the
//! listing sorts `argsort(dtildei)[::-1]` but our SVD kernels already return
//! descending singular values, so no re-sorting is needed.
//!
//! "Serial" refers to the streaming algorithm, not the arithmetic: the
//! `O(M (K+B)²)` per-batch work (thin QR and the `matmul` forming `Q·U'`)
//! runs on `psvd_linalg`'s threaded kernels when the batch is large enough
//! to pay for dispatch, with bitwise-identical results at any thread
//! count.

use psvd_data::stream::SnapshotSource;
use psvd_linalg::gemm::matmul_into;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::workspace::{Workspace, WorkspaceStats};
use psvd_linalg::{Matrix, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;

use crate::config::SvdConfig;
use crate::inner::InnerSolver;

/// Streaming truncated SVD of a (conceptually unbounded) snapshot stream.
///
/// Every per-batch temporary — the `[ff·U·D | A_i]` stack, the thin-QR
/// factors and the updated mode matrix — lives in per-instance buffers
/// reused across updates, so a steady-state `incorporate_data` call
/// performs no transient matrix allocations (the `O((K+B)²)` core SVD
/// still allocates its small factors; see DESIGN.md). Verified via
/// [`SerialStreamingSvd::scratch_stats`].
///
/// Generic over the element dtype `T` (default `f64`): every buffer,
/// factorization and product runs at `T`'s precision, and the
/// per-dtype determinism contract of the underlying kernels carries
/// through — the stream is bitwise reproducible at any thread count for
/// a fixed dtype. `cfg.precision == Mixed` additionally swaps the
/// randomized inner SVD for the f32-range-finder /
/// f64-re-orthogonalization pipeline.
pub struct SerialStreamingSvd<T: Scalar = f64> {
    cfg: SvdConfig,
    modes: Matrix<T>,
    singular_values: Vec<T>,
    iteration: usize,
    snapshots_seen: usize,
    rng: StdRng,
    /// Inner SVD of the small triangular factor.
    solver: InnerSolver,
    /// Scratch arena feeding the QR kernel.
    ws: Workspace,
    /// Persistent `[ff·U·D | A_i]` stack buffer.
    stack: Matrix<T>,
    /// Persistent thin-QR factor buffers.
    qbuf: Matrix<T>,
    rbuf: Matrix<T>,
    /// Buffer the next mode matrix is formed in before swapping into place.
    next_modes: Matrix<T>,
    /// Persistent landing buffer for pull-based ingestion (`fit_source`).
    ingest: Matrix<T>,
}

impl<T: Scalar> SerialStreamingSvd<T> {
    /// New driver; call [`SerialStreamingSvd::initialize`] with the first
    /// batch before incorporating further data.
    pub fn new(cfg: SvdConfig) -> Self {
        let cfg = cfg.validated();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            solver: InnerSolver::new(&cfg),
            cfg,
            modes: Matrix::zeros(0, 0),
            singular_values: Vec::new(),
            iteration: 0,
            snapshots_seen: 0,
            ws: Workspace::new(),
            stack: Matrix::zeros(0, 0),
            qbuf: Matrix::zeros(0, 0),
            rbuf: Matrix::zeros(0, 0),
            next_modes: Matrix::zeros(0, 0),
            ingest: Matrix::zeros(0, 0),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SvdConfig {
        &self.cfg
    }

    /// True once `initialize` has run.
    pub fn is_initialized(&self) -> bool {
        self.snapshots_seen > 0
    }

    /// Number of streaming updates performed so far (excluding init).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Total snapshots ingested.
    pub fn snapshots_seen(&self) -> usize {
        self.snapshots_seen
    }

    /// Current estimate of the `K` leading left singular vectors (`M x K`,
    /// fewer columns if fewer snapshots have been seen).
    pub fn modes(&self) -> &Matrix<T> {
        &self.modes
    }

    /// Current estimate of the `K` leading singular values.
    pub fn singular_values(&self) -> &[T] {
        &self.singular_values
    }

    /// Consume the tracker, handing out the modes and singular values
    /// without copying them.
    pub fn into_modes(self) -> (Matrix<T>, Vec<T>) {
        (self.modes, self.singular_values)
    }

    /// Allocation accounting for the internal scratch arena: after the
    /// first update has warmed the buffers, further same-shape updates
    /// report zero additional misses and zero fresh bytes.
    pub fn scratch_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Reset the scratch-arena counters (e.g. after warm-up, before
    /// measuring a steady-state window).
    pub fn reset_scratch_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// SVD the small triangular factor sitting in `rbuf`, then form the
    /// next mode matrix `Q · U'_K` in the spare buffer and swap it in.
    /// All temporaries besides the `O((K+B)²)` SVD factors are reused.
    fn finish_update(&mut self) {
        let rank = self.cfg.k.min(self.rbuf.rows().min(self.rbuf.cols()));
        let (u, s) = self.solver.factorize(&self.rbuf, rank, &mut self.rng);
        let k = self.cfg.k.min(s.len());
        matmul_into(self.qbuf.view(), u.block(0, u.rows(), 0, k), &mut self.next_modes);
        std::mem::swap(&mut self.modes, &mut self.next_modes);
        self.singular_values.clear();
        self.singular_values.extend_from_slice(&s[..k]);
    }

    /// Ingest the first batch `A0` (`M x B`).
    pub fn initialize(&mut self, a0: &Matrix<T>) -> &mut Self {
        assert!(!self.is_initialized(), "initialize called twice");
        assert!(a0.cols() > 0, "first batch is empty");
        qr_thin_into(a0.view(), &mut self.qbuf, &mut self.rbuf, &mut self.ws);
        self.finish_update();
        self.snapshots_seen = a0.cols();
        self
    }

    /// Ingest a further batch `Ai` (`M x B`), down-weighting history by the
    /// forget factor.
    pub fn incorporate_data(&mut self, ai: &Matrix<T>) -> &mut Self {
        assert!(self.is_initialized(), "incorporate_data before initialize");
        assert_eq!(ai.rows(), self.modes.rows(), "batch row count changed mid-stream");
        if ai.cols() == 0 {
            return self;
        }
        self.iteration += 1;

        let ff = self.cfg.forget_factor;
        fill_stack(&mut self.stack, &self.modes, &self.singular_values, ff, ai);

        // Thin QR of the stack, SVD of the small triangular factor. The
        // panel width is `qr_block` of the stack's shape: the `k0 + B`
        // columns stay on the unblocked reflector-at-a-time path below 48
        // and take compact-WY panels with packed-GEMM trailing updates
        // from 48 up.
        qr_thin_into(self.stack.view(), &mut self.qbuf, &mut self.rbuf, &mut self.ws);
        self.finish_update();
        self.snapshots_seen += ai.cols();
        self
    }

    /// Modal coefficients of a snapshot: `c = Uᵀ x` (length = mode count).
    pub fn project(&self, snapshot: &[T]) -> Vec<T> {
        assert!(self.is_initialized(), "project before initialize");
        assert_eq!(snapshot.len(), self.modes.rows(), "snapshot length mismatch");
        psvd_linalg::gemm::matvec_t(&self.modes, snapshot)
    }

    /// Reconstruct a snapshot from modal coefficients: `x ≈ U c`.
    pub fn reconstruct(&self, coefficients: &[T]) -> Vec<T> {
        assert!(self.is_initialized(), "reconstruct before initialize");
        psvd_linalg::gemm::matvec(&self.modes, coefficients)
    }

    /// How much of a snapshot the tracked subspace misses:
    /// `‖x − U Uᵀ x‖₂ / ‖x‖₂` — the online novelty signal (near zero for
    /// data resembling history, jumping on regime change).
    pub fn residual_fraction(&self, snapshot: &[T]) -> f64 {
        let coeffs = self.project(snapshot);
        let rec = self.reconstruct(&coeffs);
        let mut num = T::ZERO;
        let mut den = T::ZERO;
        for (x, r) in snapshot.iter().zip(&rec) {
            num += (*x - *r) * (*x - *r);
            den += *x * *x;
        }
        (num / den.max(T::MIN_POSITIVE)).sqrt().to_f64()
    }

    /// Overwrite the tracker's state (used by checkpoint restore).
    pub(crate) fn restore_state(
        &mut self,
        modes: Matrix<T>,
        singular_values: Vec<T>,
        iteration: usize,
        snapshots_seen: usize,
    ) {
        assert!(snapshots_seen > 0, "restored state must be initialized");
        assert_eq!(modes.cols(), singular_values.len(), "inconsistent checkpoint");
        self.modes = modes;
        self.singular_values = singular_values;
        self.iteration = iteration;
        self.snapshots_seen = snapshots_seen;
    }

    /// Stream an entire matrix in `batch`-column chunks: `initialize` on the
    /// first, `incorporate_data` on the rest.
    pub fn fit_batched(&mut self, data: &Matrix<T>, batch: usize) -> &mut Self {
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

    /// Stream every batch a [`SnapshotSource`] yields — the pull-based
    /// ingestion path. With a
    /// [`psvd_data::prefetch::SnapshotPrefetcher`] source, batch `k+1`'s
    /// IO and decode run on the prefetch thread while this loop is inside
    /// `incorporate_data` on batch `k`; with an in-core
    /// [`psvd_data::stream::MatrixBatchSource`] it reduces to
    /// [`SerialStreamingSvd::fit_batched`]. Batches land in one persistent
    /// buffer, so the steady-state loop keeps its zero transient O(M)
    /// allocation guarantee. IO failures surface as [`io::Error`] with the
    /// last successful update's factorization intact.
    pub fn fit_source<S: SnapshotSource<T>>(&mut self, source: &mut S) -> io::Result<&mut Self> {
        let mut ingest = std::mem::replace(&mut self.ingest, Matrix::zeros(0, 0));
        let result = (|| {
            while source.next_batch_into(&mut ingest)? {
                if self.is_initialized() {
                    self.incorporate_data(&ingest);
                } else {
                    self.initialize(&ingest);
                }
            }
            Ok(())
        })();
        self.ingest = ingest;
        result.map(|()| self)
    }
}

/// Build `[ff · U diag(s) | A]` row by row in the persistent `stack` —
/// the same multiplies as `mul_diag` + `hstack`, without materializing
/// either intermediate.
pub(crate) fn fill_stack<T: Scalar>(
    stack: &mut Matrix<T>,
    modes: &Matrix<T>,
    s: &[T],
    ff: f64,
    a: &Matrix<T>,
) {
    let (m, k0) = modes.shape();
    let ff = T::from_f64(ff);
    stack.reshape_for_overwrite(m, k0 + a.cols());
    for i in 0..m {
        let dst = stack.row_mut(i);
        for ((d, &u), &sv) in dst[..k0].iter_mut().zip(modes.row(i)).zip(s) {
            *d = u * (sv * ff);
        }
        dst[k0..].copy_from_slice(a.row(i));
    }
}

/// One-shot K-truncated SVD of the full matrix — the reference the
/// streaming result converges to when `ff = 1`.
pub fn batch_truncated_svd<T: Scalar>(data: &Matrix<T>, k: usize) -> (Matrix<T>, Vec<T>) {
    let f = psvd_linalg::svd(data).truncated(k);
    (f.u, f.s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    fn config_exact(k: usize) -> SvdConfig {
        SvdConfig::new(k).with_forget_factor(1.0)
    }

    #[test]
    fn initialize_matches_batch_svd() {
        let mut rng = seeded_rng(1);
        let a = matrix_with_spectrum(60, 12, &[8.0, 4.0, 2.0, 1.0, 0.5], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(5));
        s.initialize(&a);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 5);
        assert!(spectrum_error(&s_ref, s.singular_values()) < 1e-10);
        assert!(max_principal_angle(&u_ref, s.modes()) < 1e-6);
    }

    #[test]
    fn exact_recovery_for_low_rank_stream() {
        // Rank <= K data: streaming with ff = 1 is EXACT regardless of
        // batching, because no truncation ever discards energy.
        let mut rng = seeded_rng(2);
        let a = matrix_with_spectrum(80, 40, &[5.0, 3.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(5));
        s.fit_batched(&a, 8);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 3);
        assert!(spectrum_error(&s_ref, &s.singular_values()[..3]) < 1e-9);
        assert!(max_principal_angle(&u_ref, &s.modes().first_columns(3)) < 1e-6);
        assert_eq!(s.snapshots_seen(), 40);
        assert_eq!(s.iteration(), 4);
    }

    #[test]
    fn near_recovery_for_decaying_spectrum() {
        // General data with a decaying spectrum: streaming is approximate
        // but the leading triplets should agree to a few percent.
        let mut rng = seeded_rng(3);
        let spec: Vec<f64> = (0..30).map(|i| 4.0 * 0.7f64.powi(i)).collect();
        let a = matrix_with_spectrum(100, 30, &spec, &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(8));
        s.fit_batched(&a, 6);
        let (_, s_ref) = batch_truncated_svd(&a, 8);
        for (got, want) in s.singular_values()[..4].iter().zip(&s_ref[..4]) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn modes_stay_orthonormal() {
        let mut rng = seeded_rng(4);
        let a = matrix_with_spectrum(50, 24, &[5.0, 2.5, 1.2, 0.6, 0.3, 0.1], &mut rng);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(4));
        s.fit_batched(&a, 6);
        assert!(orthogonality_error(s.modes()) < 1e-10);
        for w in s.singular_values().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn forget_factor_discounts_history() {
        // Feed two phases with disjoint dominant subspaces; with small ff,
        // the final modes should align with the *recent* phase.
        let mut rng = seeded_rng(5);
        let m = 60;
        let phase1 = {
            let col: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.1).sin()).collect();
            Matrix::from_fn(m, 20, |i, j| col[i] * (1.0 + 0.01 * j as f64))
        };
        let phase2 = matrix_with_spectrum(m, 20, &[3.0], &mut rng);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(1).with_forget_factor(0.3));
        s.initialize(&phase1);
        for _ in 0..5 {
            s.incorporate_data(&phase2);
        }
        let (u2, _) = batch_truncated_svd(&phase2, 1);
        let angle = max_principal_angle(&u2, s.modes());
        assert!(angle < 0.05, "recent phase should dominate, angle = {angle}");
    }

    #[test]
    fn ff_one_beats_small_ff_on_stationary_data() {
        let mut rng = seeded_rng(6);
        let spec: Vec<f64> = (0..20).map(|i| 3.0 * 0.8f64.powi(i)).collect();
        let a = matrix_with_spectrum(80, 40, &spec, &mut rng);
        let (u_ref, _) = batch_truncated_svd(&a, 4);
        let angle = |ff: f64| {
            let mut s = SerialStreamingSvd::new(SvdConfig::new(4).with_forget_factor(ff));
            s.fit_batched(&a, 8);
            max_principal_angle(&u_ref, s.modes())
        };
        assert!(angle(1.0) <= angle(0.5) + 1e-9);
    }

    #[test]
    fn randomized_path_tracks_leading_modes() {
        let mut rng = seeded_rng(7);
        let spec = [10.0, 6.0, 3.0, 0.01, 0.005];
        let a = matrix_with_spectrum(70, 30, &spec, &mut rng);
        let mut s = SerialStreamingSvd::new(
            config_exact(3).with_low_rank(true).with_seed(1).with_power_iterations(2),
        );
        s.fit_batched(&a, 10);
        let (_, s_ref) = batch_truncated_svd(&a, 3);
        for (got, want) in s.singular_values().iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn uneven_final_batch_handled() {
        let mut rng = seeded_rng(8);
        let a = matrix_with_spectrum(40, 17, &[2.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(2));
        s.fit_batched(&a, 5); // batches of 5,5,5,2
        assert_eq!(s.snapshots_seen(), 17);
        let (_, s_ref) = batch_truncated_svd(&a, 2);
        assert!(spectrum_error(&s_ref, s.singular_values()) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "initialize called twice")]
    fn double_initialize_panics() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.initialize(&a);
        s.initialize(&a);
    }

    #[test]
    #[should_panic(expected = "before initialize")]
    fn incorporate_before_initialize_panics() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.incorporate_data(&a);
    }

    #[test]
    fn k_larger_than_data_clamps() {
        let a = Matrix::<f64>::identity(3);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(10).with_forget_factor(1.0));
        s.initialize(&a);
        assert_eq!(s.modes().cols(), 3);
        assert_eq!(s.singular_values().len(), 3);
    }

    #[test]
    fn projection_roundtrip_in_subspace() {
        let mut rng = seeded_rng(10);
        let a = matrix_with_spectrum(40, 20, &[5.0, 2.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(3));
        s.fit_batched(&a, 5);
        // A column of the training data lies in the tracked rank-3 space.
        let x = a.col(7);
        let rec = s.reconstruct(&s.project(&x));
        let err: f64 = x.iter().zip(&rec).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-7 * norm, "in-subspace snapshot must reconstruct: {err}");
        assert!(s.residual_fraction(&x) < 1e-7);
    }

    #[test]
    fn residual_flags_novel_directions() {
        let mut rng = seeded_rng(11);
        let a = matrix_with_spectrum(50, 20, &[4.0, 2.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(2));
        s.fit_batched(&a, 10);
        // A random vector is mostly outside a 2-D subspace of R^50.
        let novel: Vec<f64> = (0..50).map(|i| ((i * 13 + 1) as f64 * 0.7).sin()).collect();
        assert!(
            s.residual_fraction(&novel) > 0.5,
            "novel input should leave a large residual: {}",
            s.residual_fraction(&novel)
        );
    }

    #[test]
    fn fit_source_is_bitwise_fit_batched() {
        use psvd_data::stream::MatrixBatchSource;
        let mut rng = seeded_rng(12);
        let a = matrix_with_spectrum(64, 28, &[6.0, 3.0, 1.5, 0.7], &mut rng);
        let mut by_slice = SerialStreamingSvd::new(config_exact(4));
        by_slice.fit_batched(&a, 5);
        let mut by_source = SerialStreamingSvd::new(config_exact(4));
        by_source.fit_source(&mut MatrixBatchSource::new(&a, 5)).unwrap();
        assert_eq!(by_slice.singular_values(), by_source.singular_values());
        assert_eq!(by_slice.modes(), by_source.modes());
        assert_eq!(by_source.snapshots_seen(), 28);
    }

    #[test]
    fn empty_update_is_noop() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.initialize(&a);
        let before = s.modes().clone();
        s.incorporate_data(&Matrix::zeros(4, 0));
        assert_eq!(s.modes(), &before);
        assert_eq!(s.iteration(), 0);
    }
}
