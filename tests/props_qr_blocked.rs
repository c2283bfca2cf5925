//! Contract tests for the blocked compact-WY QR path.
//!
//! The panel width — unlike the thread count — changes rounding, so every
//! test passes it explicitly through `qr_thin_blocked_into`. Within a fixed
//! width the results must be bitwise identical across thread counts;
//! across widths they must agree to factorization tolerances
//! (orthogonality, reconstruction, canonical non-negative R diagonal).

use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::par;
use pyparsvd::linalg::qr::{
    qr_block, qr_thin_blocked_into, qr_thin_into, reconstruction_error, QrFactors,
};
use pyparsvd::linalg::random::{gaussian_matrix, matrix_with_spectrum, seeded_rng};
use pyparsvd::linalg::svd::jacobi::jacobi_svd_caps;
use pyparsvd::linalg::validate::spectrum_error;
use pyparsvd::linalg::{Matrix, Workspace};
use pyparsvd::prelude::*;

fn qr_with_block(a: &Matrix, nb: usize) -> QrFactors {
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    let mut r = Matrix::zeros(0, 0);
    qr_thin_blocked_into(a.view(), nb, &mut q, &mut r, &mut ws);
    QrFactors { q, r }
}

fn assert_contract(a: &Matrix, f: &QrFactors) {
    assert!(reconstruction_error(a, f) < 1e-12, "A != QR for {:?}", a.shape());
    assert!(orthogonality_error(&f.q) < 1e-12, "Q not orthonormal for {:?}", a.shape());
    let p = f.r.rows();
    for i in 0..p.min(f.r.cols()) {
        assert!(f.r[(i, i)] >= 0.0, "negative R diagonal at {i}");
        for j in 0..i {
            assert_eq!(f.r[(i, j)], 0.0, "R not upper triangular at ({i},{j})");
        }
    }
}

#[test]
fn blocked_matches_unblocked_reference() {
    let shapes = [(200, 64), (96, 96), (64, 150)]; // tall, square, wide
    for (idx, &(m, n)) in shapes.iter().enumerate() {
        let a = gaussian_matrix(m, n, &mut seeded_rng(1000 + idx as u64));
        let base = qr_with_block(&a, 1);
        assert_contract(&a, &base);
        for nb in [4, 8, 16, 32, 64] {
            let f = qr_with_block(&a, nb);
            assert_contract(&a, &f);
            assert!(
                (&f.q - &base.q).max_abs() < 1e-12,
                "Q diverged from unblocked at nb={nb}, shape {m}x{n}"
            );
            assert!(
                (&f.r - &base.r).max_abs() < 1e-12,
                "R diverged from unblocked at nb={nb}, shape {m}x{n}"
            );
        }
    }
}

#[test]
fn strided_view_factors_like_materialized_copy() {
    let a = gaussian_matrix(220, 80, &mut seeded_rng(7));
    let blk = a.block(3, 200, 5, 70);
    let cpy = a.submatrix(3, 200, 5, 70);
    let mut ws = Workspace::new();
    let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    qr_thin_blocked_into(blk, 16, &mut q1, &mut r1, &mut ws);
    qr_thin_blocked_into(cpy.view(), 16, &mut q2, &mut r2, &mut ws);
    // The working copy normalizes strides up front, so a view input is
    // bitwise indistinguishable from its materialized copy.
    assert_eq!(q1, q2);
    assert_eq!(r1, r2);
    assert_contract(&cpy, &QrFactors { q: q1, r: r1 });
}

#[test]
fn rank_deficient_and_zero_inputs() {
    // Rank-deficient: trailing Q columns are non-unique, so compare the
    // factorization contract rather than entries.
    let mut a = gaussian_matrix(120, 30, &mut seeded_rng(21));
    let dup = a.col(0);
    for j in 30 - 8..30 {
        a.set_col(j, &dup); // rank <= 23
    }
    // Widen past the blocking threshold by stacking the columns twice.
    let wide = a.hstack(&a);
    for nb in [1, 8, 32] {
        let f = qr_with_block(&wide, nb);
        assert!(reconstruction_error(&wide, &f) < 1e-12);
        assert!(orthogonality_error(&f.q) < 1e-12);
        for i in 0..f.r.rows() {
            assert!(f.r[(i, i)] >= 0.0);
        }
    }
    // Zero matrix: R must be exactly zero at any width.
    let z = Matrix::zeros(80, 60);
    for nb in [1, 16] {
        let f = qr_with_block(&z, nb);
        assert_eq!(f.r, Matrix::zeros(60, 60), "nb={nb}");
        assert!(orthogonality_error(&f.q) < 1e-14);
    }
}

#[test]
fn blocked_bitwise_identical_across_thread_counts() {
    // Big enough that the WY trailing updates cross the packed-GEMM
    // parallel threshold, so the row partition genuinely splits.
    let a = gaussian_matrix(600, 128, &mut seeded_rng(3));
    par::set_num_threads(1);
    let base = qr_with_block(&a, 32);
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        let f = qr_with_block(&a, 32);
        assert_eq!(f.q, base.q, "Q bits changed at {threads} threads");
        assert_eq!(f.r, base.r, "R bits changed at {threads} threads");
    }
    par::set_num_threads(0);
}

#[test]
fn blocked_path_reuses_workspace() {
    let a = gaussian_matrix(120, 64, &mut seeded_rng(11));
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    let mut r = Matrix::zeros(0, 0);
    qr_thin_blocked_into(a.view(), 16, &mut q, &mut r, &mut ws);
    ws.reset_stats();
    for _ in 0..5 {
        qr_thin_blocked_into(a.view(), 16, &mut q, &mut r, &mut ws);
    }
    let s = ws.stats();
    assert_eq!(s.misses, 0, "warm workspace must serve every blocked-path take");
    assert_eq!(s.fresh_bytes, 0);
    assert!(s.takes > 0);
}

#[test]
fn parallel_streaming_matches_unblocked_seed() {
    // A full distributed run whose local and root TSQR stages both cross
    // the blocking threshold (80x48 local, 96x48 stacked at the root),
    // against the spectrum of the unblocked QR + direct Jacobi reference.
    // Pinned to f64: the reference is pure f64, and mixed precision rounds
    // every gathered R through f32 (~6e-8 relative).
    assert!(qr_block(80, 48) > 1 && qr_block(96, 48) > 1);
    let spec: Vec<f64> = (0..48).map(|i| 5.0 * 0.85f64.powi(i)).collect();
    let a = matrix_with_spectrum(160, 48, &spec, &mut seeded_rng(99));
    let blocks = pyparsvd::data::partition::split_rows(&a, 2);
    let cfg = SvdConfig::new(8).with_r1(48).with_r2(48).with_precision(Precision::F64);
    let out = World::new(2).run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.fit_batched(&blocks[comm.rank()], 48);
        d.singular_values().to_vec()
    });
    assert_eq!(out[0], out[1], "ranks disagree");
    assert_eq!(out[0].len(), 8);
    let reference = jacobi_svd_caps(&qr_with_block(&a, 1).r, 1).0.s;
    assert!(
        spectrum_error(&reference, &out[0]) < 1e-9,
        "blocked spectrum {:?} vs unblocked {reference:?}",
        out[0]
    );
}

#[test]
fn auto_heuristic_and_clamping() {
    // Pure function of shape: small problems stay unblocked, large ones
    // get cache-sized panels.
    assert_eq!(qr_block(45, 13), 1);
    assert_eq!(qr_block(30, 6), 1);
    assert_eq!(qr_block(200, 64), 16);
    assert_eq!(qr_block(16384, 128), 32);
    // An explicit width clamps to min(m, n), and the shape's own width is
    // what `qr_thin_into` runs.
    let a = gaussian_matrix(100, 8, &mut seeded_rng(13));
    let clamped = qr_with_block(&a, 64);
    let exact = qr_with_block(&a, 8);
    assert_eq!((clamped.q, clamped.r), (exact.q, exact.r));
    let b = gaussian_matrix(200, 64, &mut seeded_rng(14));
    let mut ws = Workspace::new();
    let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    qr_thin_into(b.view(), &mut q, &mut r, &mut ws);
    let pinned = qr_with_block(&b, 16);
    assert_eq!((q, r), (pinned.q, pinned.r));
}

#[test]
fn concurrent_widths_do_not_interfere() {
    // Widths and capacities are call arguments, so concurrent calls at
    // different values must each reproduce their solo run bit for bit.
    let a = gaussian_matrix(200, 64, &mut seeded_rng(23));
    let j = gaussian_matrix(200, 12, &mut seeded_rng(24));
    let qr_solo: Vec<QrFactors> = [1, 16].iter().map(|&nb| qr_with_block(&a, nb)).collect();
    let jac_solo: Vec<Svd> = [1, 12].iter().map(|&cap| jacobi_svd_caps(&j, cap).0).collect();
    assert_ne!(qr_solo[0].q, qr_solo[1].q, "the widths must round differently");
    assert_ne!(jac_solo[0].u, jac_solo[1].u, "the capacities must round differently");
    std::thread::scope(|s| {
        for (i, nb) in [1, 16].into_iter().enumerate() {
            let (a, want) = (&a, &qr_solo[i]);
            s.spawn(move || {
                for _ in 0..50 {
                    let f = qr_with_block(a, nb);
                    assert!(f.q == want.q && f.r == want.r, "QR bits changed at nb={nb}");
                }
            });
        }
        for (i, cap) in [1, 12].into_iter().enumerate() {
            let (j, want) = (&j, &jac_solo[i]);
            s.spawn(move || {
                for _ in 0..50 {
                    let f = jacobi_svd_caps(j, cap).0;
                    assert!(
                        f.s == want.s && f.u == want.u && f.vt == want.vt,
                        "Jacobi bits changed at cap={cap}"
                    );
                }
            });
        }
    });
}
