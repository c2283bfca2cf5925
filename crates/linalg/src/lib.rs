//! # psvd-linalg
//!
//! Dense linear-algebra substrate for the PyParSVD reproduction: a row-major
//! [`Matrix`], blocked GEMM kernels, Householder QR, two SVD kernels
//! (Golub–Kahan and one-sided Jacobi), a symmetric Jacobi eigensolver, the
//! method of snapshots, and randomized range-finder / SVD routines.
//!
//! Everything is implemented from scratch (no BLAS/LAPACK), sized for the
//! regime the paper targets: data matrices that are very tall (`M >> N`)
//! whose *small* core factorizations (`N x N`-ish) happen over and over.
//!
//! ```
//! use psvd_linalg::{Matrix, svd::svd};
//!
//! let a = Matrix::from_fn(30, 5, |i, j| ((i + j) as f64 * 0.3).sin());
//! let f = svd(&a);
//! assert!(f.reconstruction_error(&a) < 1e-10);
//! assert!(f.s.windows(2).all(|w| w[0] >= w[1]));
//! ```

pub mod cholesky;
pub mod cmatrix;
pub mod complex;
pub mod eig;
pub mod eig_general;
pub mod fft;
pub mod gemm;
pub mod hessenberg;
pub mod lanczos;
pub mod matrix;
pub mod norms;
pub mod par;
pub mod pinv;
pub mod qr;
pub mod random;
pub mod randomized;
pub mod rot;
pub mod scalar;
pub mod schur;
pub mod snapshots;
pub mod svd;
pub mod validate;
pub mod view;
pub mod workspace;
pub mod wy;

pub use gemm::{gram_into, matmul_acc_into, matmul_into, matmul_nt_into, matmul_tn_into};
pub use lanczos::{lanczos_svd, LanczosConfig};
pub use matrix::{alloc_stats, Matrix};
pub use pinv::{lstsq, pseudoinverse};
pub use qr::{qr_block, qr_thin_blocked_into, qr_thin_into, thin_qr, QrFactors};
pub use randomized::{low_rank_svd, randomized_svd, RandomizedConfig};
pub use rot::{rot_block, RotAccumulator, RotStats};
pub use scalar::Scalar;
pub use snapshots::generate_right_vectors;
pub use svd::{svd, svd_with, truncated_svd, Svd, SvdInfo, SvdMethod};
pub use view::{MatView, MatViewMut};
pub use workspace::{Workspace, WorkspaceStats};
