//! Criterion bench: unblocked (`nb = 1`) Householder QR vs the blocked
//! compact-WY path, on the tall-skinny shapes the TSQR driver factorizes
//! and on a square dense-SVD-sized panel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psvd_linalg::random::{gaussian_matrix, seeded_rng};
use psvd_linalg::{qr_block, qr_thin_blocked_into, Matrix, Workspace};

fn qr_once(a: &Matrix, nb: usize, ws: &mut Workspace, q: &mut Matrix, r: &mut Matrix) {
    qr_thin_blocked_into(a.view(), nb, q, r, ws);
}

fn bench_tall_skinny(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr_tall_skinny");
    group.sample_size(10);
    for (m, n) in [(4096usize, 64usize), (16384, 128)] {
        let a = gaussian_matrix(m, n, &mut seeded_rng(5));
        let mut ws = Workspace::new();
        let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (id, nb) = (format!("{m}x{n}"), qr_block(m, n));
        group.bench_with_input(BenchmarkId::new("unblocked", &id), &m, |bench, _| {
            bench.iter(|| qr_once(&a, 1, &mut ws, &mut q, &mut r));
        });
        group.bench_with_input(BenchmarkId::new("blocked", &id), &m, |bench, _| {
            bench.iter(|| qr_once(&a, nb, &mut ws, &mut q, &mut r));
        });
    }
    group.finish();
}

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr_square");
    group.sample_size(10);
    let n = 256usize;
    let a = gaussian_matrix(n, n, &mut seeded_rng(6));
    let mut ws = Workspace::new();
    let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    group.bench_with_input(BenchmarkId::new("unblocked", n), &n, |bench, _| {
        bench.iter(|| qr_once(&a, 1, &mut ws, &mut q, &mut r));
    });
    group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
        bench.iter(|| qr_once(&a, qr_block(n, n), &mut ws, &mut q, &mut r));
    });
    group.finish();
}

criterion_group!(qr_blocked, bench_tall_skinny, bench_square);
criterion_main!(qr_blocked);
