//! Windowed accumulation of Givens rotation sequences.
//!
//! The bidiagonal QR iteration and the one-sided Jacobi sweep both emit
//! long streams of plane rotations that must be multiplied into the tall
//! orthogonal factors `U` and `V`. Applied one at a time ([`rotate_cols`]),
//! each rotation reads and writes two full columns of a row-major matrix —
//! a strided, memory-bound level-1 update, `O(m)` cache lines for `O(m)`
//! flops. A [`RotAccumulator`] instead multiplies the rotations into a
//! small dense orthogonal *window* matrix `G` (covering the contiguous
//! column range the rotations touch) and applies the whole window to the
//! target in one level-3 product,
//!
//! ```text
//! X[:, lo..lo+w]  ←  X[:, lo..lo+w] · G[..w, ..w]
//! ```
//!
//! through the packed GEMM engine ([`crate::gemm::matmul_into`]) with
//! workspace-arena scratch — the same `dlasr`-style sequence-application
//! idea LAPACK uses for its bidiagonal stage, taken one step further into
//! a genuinely level-3 update.
//!
//! ## Windowing
//!
//! The window slides: a rotation on columns `(j, k)` that no longer fits
//! the open window flushes it and opens a fresh one at `min(j, k)`. Pairs
//! wider than the window capacity are applied directly (after a flush, so
//! ordering is preserved) — that keeps the accumulator correct for the
//! non-adjacent pairs of the deflation chases without any special cases at
//! the call sites. Consecutive QR steps over the same unreduced block
//! reuse the same window alignment, so their rotations pile into one `G`
//! across sweeps and the flush cost amortizes.
//!
//! ## Dispatch and determinism
//!
//! The window capacity of each factor is the shape heuristic
//! [`rot_block`] (small factors stay on the direct path — capacity 1 —
//! which is the bitwise reference the accumulated path is contract-tested
//! against, to ≤1e-12). Everything in the accumulation itself is serial;
//! the flush runs on the packed GEMM engine, which partitions output rows
//! and is bitwise deterministic across thread counts — so at a fixed block
//! size, results are identical for every `PSVD_NUM_THREADS`.

use crate::gemm::matmul_into;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::workspace::Workspace;

/// Rotate columns `j` and `k` of `m`: `col_j ← c*col_j + s*col_k`,
/// `col_k ← -s*col_j + c*col_k`. The direct level-1 reference that the
/// accumulated window path reproduces to ≤1e-12.
#[inline]
pub fn rotate_cols<T: Scalar>(m: &mut Matrix<T>, j: usize, k: usize, c: T, s: T) {
    for i in 0..m.rows() {
        let a = m[(i, j)];
        let b = m[(i, k)];
        m[(i, j)] = c * a + s * b;
        m[(i, k)] = -s * a + c * b;
    }
}

/// The rotation window capacity a `rows x cols` factor uses: a pure
/// function of shape. Short factors stay on the direct path: the window
/// bookkeeping and the flush GEMM only pay off once each avoided column
/// sweep is long enough to be memory-bound. Tall factors take the full
/// column width (capped at 512 so the window stays cache-resident): a
/// full-width window never has to flush mid-iteration, so the rotations
/// of *every* sweep pile into one small `G` and the target is touched
/// exactly once at the end. Independent of the thread count. To compare
/// capacities, call `bidiagonal_svd_caps` / `jacobi_svd_caps` in
/// [`crate::svd`] with explicit values.
pub fn rot_block(rows: usize, cols: usize) -> usize {
    if rows < 128 || cols < 8 {
        1
    } else {
        cols.min(512)
    }
}

/// Observability counters for one [`RotAccumulator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotStats {
    /// Rotations multiplied into a window matrix.
    pub recorded: u64,
    /// Rotations applied directly (capacity 1, or pair wider than the
    /// window).
    pub direct: u64,
    /// Window flushes (level-3 applications).
    pub flushes: u64,
}

/// Records a sequence of column rotations against one target matrix and
/// applies them in level-3 windows.
///
/// The accumulator is tied to a single target per sequence: every
/// [`rotate`](RotAccumulator::rotate) and the final
/// [`flush`](RotAccumulator::flush) must pass the same matrix, in program
/// order. With capacity `<= 1` it degenerates to [`rotate_cols`] exactly.
pub struct RotAccumulator<T: Scalar = f64> {
    /// Window matrix, `cap x cap`, identity-initialized when opened; only
    /// the leading `width x width` block ever deviates from identity.
    g: Matrix<T>,
    /// Global column index of the open window's first column.
    lo: usize,
    /// Columns of the window in active use.
    width: usize,
    /// Window capacity (`<= 1` = direct passthrough).
    cap: usize,
    open: bool,
    stats: RotStats,
}

impl<T: Scalar> RotAccumulator<T> {
    /// A closed accumulator with the given window capacity.
    pub fn new(cap: usize) -> Self {
        Self {
            g: Matrix::zeros(0, 0),
            lo: 0,
            width: 0,
            cap,
            open: false,
            stats: RotStats::default(),
        }
    }

    /// True when every rotation goes straight to the target (capacity 1).
    pub fn is_direct(&self) -> bool {
        self.cap <= 1
    }

    /// The window capacity this accumulator was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Counters since construction.
    pub fn stats(&self) -> RotStats {
        self.stats
    }

    /// Record `col_j ← c*col_j + s*col_k`, `col_k ← -s*col_j + c*col_k`
    /// against `target`. Equivalent to `rotate_cols(target, j, k, c, s)`
    /// once flushed, to ≤1e-12 (exactly, on the direct path).
    pub fn rotate(
        &mut self,
        target: &mut Matrix<T>,
        j: usize,
        k: usize,
        c: T,
        s: T,
        ws: &mut Workspace,
    ) {
        if self.cap <= 1 {
            rotate_cols(target, j, k, c, s);
            self.stats.direct += 1;
            return;
        }
        let a = j.min(k);
        let b = j.max(k);
        if !self.open || a < self.lo || b >= self.lo + self.cap {
            self.flush(target, ws);
            if b - a + 1 > self.cap {
                // Pair wider than the window: apply in place. The flush
                // above keeps the sequence order intact.
                rotate_cols(target, j, k, c, s);
                self.stats.direct += 1;
                return;
            }
            self.g.reshape_identity(self.cap);
            // A window covering every column never needs to slide; anchor
            // it at 0 so it survives the whole rotation sequence.
            self.lo = if self.cap >= target.cols() { 0 } else { a };
            self.width = 0;
            self.open = true;
        }
        let w = self.width.max(b - self.lo + 1);
        self.width = w;
        // The rotation post-multiplies the window: G ← G·R, which is the
        // column rotation applied to G itself. Rows past `width` are still
        // identity with zeros in all columns below `width`, so restricting
        // the sweep to the leading `width` rows loses nothing.
        let (gj, gk) = (j - self.lo, k - self.lo);
        for i in 0..w {
            let x = self.g[(i, gj)];
            let y = self.g[(i, gk)];
            self.g[(i, gj)] = c * x + s * y;
            self.g[(i, gk)] = -s * x + c * y;
        }
        self.stats.recorded += 1;
    }

    /// Apply the open window (if any) to `target` in one level-3 product
    /// and close it. Must be called before the caller reads the target's
    /// rotated columns.
    pub fn flush(&mut self, target: &mut Matrix<T>, ws: &mut Workspace) {
        if !self.open {
            return;
        }
        self.open = false;
        let rows = target.rows();
        let w = self.width;
        if w == 0 || rows == 0 {
            return;
        }
        let mut tmp = ws.take(rows, w);
        matmul_into(
            target.block(0, rows, self.lo, self.lo + w),
            self.g.block(0, w, 0, w),
            &mut tmp,
        );
        target.block_mut(0, rows, self.lo, self.lo + w).copy_from(tmp.view());
        ws.give(tmp);
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gaussian_matrix, seeded_rng};

    /// A deterministic pseudo-random rotation stream over `n` columns:
    /// a mix of adjacent QR-style pairs and wider chase-style pairs.
    fn rotation_stream(n: usize, count: usize) -> Vec<(usize, usize, f64, f64)> {
        (0..count)
            .map(|t| {
                let a = (t * 7 + t / 3) % (n - 1);
                let b = if t % 5 == 0 { (a + 2 + t % 11).min(n - 1) } else { a + 1 };
                let theta = (t as f64 * 0.37).sin() * 2.0;
                (a, b.max(a + 1), theta.cos(), theta.sin())
            })
            .collect()
    }

    fn check_stream(rows: usize, n: usize, cap: usize, count: usize) {
        let base = gaussian_matrix(rows, n, &mut seeded_rng(7));
        let mut direct = base.clone();
        for &(j, k, c, s) in &rotation_stream(n, count) {
            rotate_cols(&mut direct, j, k, c, s);
        }
        let mut acc = RotAccumulator::new(cap);
        let mut ws = Workspace::new();
        let mut windowed = base.clone();
        for &(j, k, c, s) in &rotation_stream(n, count) {
            acc.rotate(&mut windowed, j, k, c, s, &mut ws);
        }
        acc.flush(&mut windowed, &mut ws);
        let scale = direct.max_abs().max(1.0);
        assert!(
            (&windowed - &direct).max_abs() < 1e-12 * scale,
            "cap {cap} diverged from direct reference"
        );
    }

    #[test]
    fn window_matches_direct_across_capacities() {
        for cap in [1, 2, 3, 8, 16, 64] {
            check_stream(40, 12, cap, 150);
        }
    }

    #[test]
    fn full_width_window_matches_direct() {
        check_stream(64, 9, 9, 300);
    }

    #[test]
    fn wide_pairs_fall_back_to_direct() {
        let mut acc = RotAccumulator::new(4);
        let mut ws = Workspace::new();
        let mut m = gaussian_matrix(20, 10, &mut seeded_rng(3));
        let want = {
            let mut d = m.clone();
            rotate_cols(&mut d, 0, 9, 0.6, 0.8);
            d
        };
        acc.rotate(&mut m, 0, 9, 0.6, 0.8, &mut ws);
        acc.flush(&mut m, &mut ws);
        assert_eq!(m, want, "span > cap must apply the exact direct update");
        assert_eq!(acc.stats().direct, 1);
        assert_eq!(acc.stats().recorded, 0);
    }

    #[test]
    fn direct_capacity_is_bitwise_passthrough() {
        let mut acc = RotAccumulator::new(1);
        let mut ws = Workspace::new();
        let mut m = gaussian_matrix(15, 6, &mut seeded_rng(5));
        let mut want = m.clone();
        for &(j, k, c, s) in &rotation_stream(6, 40) {
            rotate_cols(&mut want, j, k, c, s);
            acc.rotate(&mut m, j, k, c, s, &mut ws);
        }
        acc.flush(&mut m, &mut ws);
        assert_eq!(m, want);
        assert!(acc.is_direct());
        assert_eq!(acc.stats().flushes, 0);
    }

    #[test]
    fn flush_reuses_workspace_buffers() {
        let mut acc = RotAccumulator::new(8);
        let mut ws = Workspace::new();
        let mut m = gaussian_matrix(40, 16, &mut seeded_rng(11));
        let stream = rotation_stream(16, 200);
        for &(j, k, c, s) in &stream {
            acc.rotate(&mut m, j, k, c, s, &mut ws);
        }
        acc.flush(&mut m, &mut ws);
        ws.reset_stats();
        for &(j, k, c, s) in &stream {
            acc.rotate(&mut m, j, k, c, s, &mut ws);
        }
        acc.flush(&mut m, &mut ws);
        let s = ws.stats();
        assert!(s.takes > 0, "windows must draw scratch from the workspace");
        assert_eq!(s.misses, 0, "steady-state windows must reuse pooled buffers");
    }

    #[test]
    fn rot_block_is_a_shape_heuristic() {
        assert_eq!(rot_block(16, 256), 1, "small factors stay direct");
        assert_eq!(rot_block(4096, 256), 256, "tall factors take full width");
        assert_eq!(rot_block(4096, 2048), 512, "window stays cache-resident");
        assert_eq!(rot_block(4096, 3), 1, "narrow factors stay direct");
    }
}
