//! Timing of replayed `linalg` kernel calls, with computed operation and
//! byte counts (from the operand shapes, not measured by hardware
//! counters), and their per-update summary.

use std::time::Instant;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Recorder;

/// The `linalg` kernel families the breakdown reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Qr,
    Svd,
    Rsvd,
    Gemm,
}

impl Kind {
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Qr => "linalg.qr",
            Kind::Svd => "linalg.svd",
            Kind::Rsvd => "linalg.rsvd",
            Kind::Gemm => "linalg.gemm",
        }
    }
}

/// One timed kernel call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    pub flops: f64,
    pub bytes: f64,
}

impl Call {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Time `f` as one kernel call of `kind` with the given computed cost.
pub fn time<R>(log: &mut Vec<Call>, kind: Kind, cost: (f64, f64), f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    log.push(Call { kind, start, end: Instant::now(), flops: cost.0, bytes: cost.1 });
    r
}

const F64: f64 = 8.0;

/// Thin Householder QR of `m x n` with the explicit `Q`: `2mn² − 2n³/3`
/// for `R` and as much again to form `Q`; reads `A`, writes `Q` and `R`.
pub fn qr_cost(m: usize, n: usize) -> (f64, f64) {
    let (m, n) = (m as f64, n as f64);
    (4.0 * m * n * n - 4.0 * n * n * n / 3.0, F64 * (2.0 * m * n + n * n))
}

/// `C (m x n) = A (m x k) · B (k x n)`.
pub fn gemm_cost(m: usize, k: usize, n: usize) -> (f64, f64) {
    let (m, k, n) = (m as f64, k as f64, n as f64);
    (2.0 * m * k * n, F64 * (m * k + k * n + m * n))
}

/// Dense SVD of a small `n x n` factor with both singular-vector sets
/// (Golub–Van Loan's `~21n³` R-SVD estimate).
pub fn svd_cost(n: usize) -> (f64, f64) {
    let n = n as f64;
    (21.0 * n * n * n, F64 * 3.0 * n * n)
}

/// Randomized SVD of `m x n` at sketch width `l` with `q` power
/// iterations: the sketch and each power step are GEMMs against `A`, each
/// range basis a thin QR, then `QᵀA`, a small SVD and `Q·U`.
pub fn rsvd_cost(m: usize, n: usize, l: usize, q: usize) -> (f64, f64) {
    let (mf, nf, lf, qf) = (m as f64, n as f64, l as f64, q as f64);
    let gemms = (1.0 + 2.0 * qf) * 2.0 * mf * nf * lf + 2.0 * lf * mf * nf + 2.0 * mf * lf * lf;
    let qrs = (1.0 + 2.0 * qf) * qr_cost(m, l).0;
    let small = 4.0 * lf * lf * nf + 8.0 * lf * nf * nf.min(lf) + 9.0 * lf.powi(3);
    (gemms + qrs + small, F64 * ((2.0 + 2.0 * qf) * mf * nf + 2.0 * mf * lf))
}

/// Method of snapshots on `m x n`: the Gram product and a symmetric
/// eigensolve (`~9n³`).
pub fn gram_eig_cost(m: usize, n: usize) -> (f64, f64) {
    let (mf, nf) = (m as f64, n as f64);
    (mf * nf * nf + 9.0 * nf * nf * nf, F64 * (mf * nf + 2.0 * nf * nf))
}

/// Hang one update's replayed calls under its update span.
pub fn record(rec: &Recorder, calls: &[Call], update: usize) {
    for c in calls {
        rec.record(c.kind.span_name(), c.start, c.end, Some(update), true);
    }
}

/// Report the `linalg.*` metrics from the calls replayed per update:
/// per-update medians of each family's time, the achieved rates over all
/// calls, and the per-update computed flops and bytes.
pub fn summarize(updates: &[Vec<Call>], out: &mut Outcome) {
    let per_update = |kind: Kind| -> Vec<f64> {
        updates
            .iter()
            .map(|u| u.iter().filter(|c| c.kind == kind).map(|c| c.secs() * 1e3).sum())
            .collect()
    };
    let rate = |kind: Kind| -> f64 {
        let calls = updates.iter().flatten().filter(|c| c.kind == kind);
        let (flops, secs) = calls.fold((0.0, 0.0), |(f, s), c| (f + c.flops, s + c.secs()));
        if secs > 0.0 {
            flops / secs * 1e-9
        } else {
            0.0
        }
    };
    let ran = |kind: Kind| updates.iter().flatten().any(|c| c.kind == kind);
    for (kind, metric) in [
        (Kind::Qr, "linalg.qr_ms"),
        (Kind::Svd, "linalg.svd_ms"),
        (Kind::Rsvd, "linalg.rsvd_ms"),
        (Kind::Gemm, "linalg.gemm_ms"),
    ] {
        if ran(kind) {
            out.note(metric, median(&per_update(kind)), "per update".into());
        }
    }
    out.note("linalg.qr_gflops", rate(Kind::Qr), "computed flops / measured time".into());
    out.note("linalg.gemm_gflops", rate(Kind::Gemm), "computed flops / measured time".into());
    let flops: Vec<f64> = updates.iter().map(|u| u.iter().map(|c| c.flops).sum()).collect();
    let bytes: Vec<f64> = updates.iter().map(|u| u.iter().map(|c| c.bytes).sum()).collect();
    out.note("linalg.flops", median(&flops), "computed, per update".into());
    out.note("linalg.bytes_computed", median(&bytes), "computed from shapes, per update".into());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_follow_the_textbook_counts() {
        // Square QR: 4n³ − 4n³/3 = 8n³/3.
        assert_eq!(qr_cost(3, 3).0, 72.0);
        assert_eq!(gemm_cost(2, 3, 4), (48.0, 8.0 * (6.0 + 12.0 + 8.0)));
        assert!(rsvd_cost(40, 40, 18, 1).0 > gemm_cost(40, 40, 18).0);
    }
}
