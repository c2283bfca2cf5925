//! Dense-SVD scaling benchmark: the level-3 rotation-accumulation path
//! versus the rotation-at-a-time direct reference on tall Golub–Kahan
//! problems, across thread counts, emitting machine-readable JSON
//! (`BENCH_svd.json`).
//!
//! ```text
//! cargo run -p psvd-bench --release --bin svd_scaling [-- --quick] [--out PATH]
//! ```
//!
//! The solver is the Golub–Kahan bidiagonalization plus
//! `bidiagonal_svd_caps` at an explicit window capacity for both factors
//! (what `golub_kahan_svd` runs at the shape's capacity), not the `svd()`
//! front door, so the QR preprocessing step cannot shrink the tall factor
//! and hide the rotation-application cost being measured.
//! Every accumulated (shape, threads) cell is checked bitwise against its
//! single-thread run, the singular values are checked bitwise against the
//! direct path (the QR iteration reads only the bidiagonal, which
//! accumulation never touches), and the factors are cross-checked to the
//! ≤1e-12 contract. `--quick` trims the satellite shapes; both modes run
//! the acceptance shape 8192x256.

use std::fmt::Write as _;

use psvd_bench::{time_it, Table};
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::par;
use psvd_linalg::random::{gaussian_matrix, seeded_rng};
use psvd_linalg::rot::rot_block;
use psvd_linalg::svd::golub_kahan::{bidiagonal_svd_caps, bidiagonalize};
use psvd_linalg::svd::Svd;

struct Sample {
    m: usize,
    n: usize,
    engine: &'static str,
    nb: usize,
    threads: usize,
    seconds: f64,
    deterministic: bool,
}

/// Best-of-`reps` wall time for `f`.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let (mut out, mut best) = time_it(&mut f);
    for _ in 1..reps {
        let (r, t) = time_it(&mut f);
        if t < best {
            best = t;
            out = r;
        }
    }
    (out, best)
}

/// Factor agreement between the accumulated and direct trajectories:
/// bitwise singular values, ≤1e-12 modes, orthogonality preserved.
fn check_contract(acc: &Svd, direct: &Svd, label: &str) {
    assert_eq!(acc.s, direct.s, "{label}: singular values must be bitwise equal");
    let uerr = (&acc.u - &direct.u).max_abs();
    let verr = (&acc.vt - &direct.vt).max_abs();
    assert!(
        uerr <= 1e-12 && verr <= 1e-12,
        "{label}: factors diverged beyond contract: u {uerr:.2e}, v {verr:.2e}"
    );
    assert!(orthogonality_error(&acc.u) < 1e-10, "{label}: U lost orthogonality");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_svd.json".to_string());

    // The acceptance shape 8192x256 runs in both modes.
    let shapes: Vec<(usize, usize)> = if quick {
        vec![(2048, 128), (8192, 256)]
    } else {
        vec![(2048, 128), (8192, 256), (16384, 128)]
    };
    let reps = if quick { 2 } else { 3 };
    let thread_counts = [1usize, 2, 4, 8];
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("== dense SVD scaling: accumulated rotations vs direct, {hw} hw threads ==\n");
    let table = Table::new(&["shape", "engine", "nb", "threads", "seconds", "bitwise"]);
    let mut samples: Vec<Sample> = Vec::new();
    let mut speedups: Vec<(usize, usize, f64)> = Vec::new();

    for &(m, n) in &shapes {
        let a = gaussian_matrix(m, n, &mut seeded_rng(42));
        let label = format!("{m}x{n}");
        let nb = rot_block(m, n);

        let mut direct_best = f64::INFINITY;
        let mut accumulated_best = f64::INFINITY;
        let mut reference: Option<Svd> = None;
        let mut baseline: Option<Svd> = None;

        for &(engine, width) in &[("direct", 1usize), ("accumulated", nb)] {
            for &threads in &thread_counts {
                par::set_num_threads(threads);
                let (f, t) = best_of(reps, || {
                    let (u, d, e, v) = bidiagonalize(&a);
                    bidiagonal_svd_caps(d, e, u, v, width, width).0
                });
                let deterministic = if engine == "direct" {
                    direct_best = direct_best.min(t);
                    if reference.is_none() {
                        reference = Some(f);
                    }
                    true // the direct path's determinism is covered by tier-1 tests
                } else {
                    accumulated_best = accumulated_best.min(t);
                    match &baseline {
                        None => {
                            let direct = reference.as_ref().expect("direct ran first");
                            check_contract(&f, direct, &label);
                            baseline = Some(f);
                            true
                        }
                        Some(b) => b.s == f.s && b.u == f.u && b.vt == f.vt,
                    }
                };
                table.row(&[
                    label.clone(),
                    engine.into(),
                    width.to_string(),
                    threads.to_string(),
                    format!("{t:.4}"),
                    if deterministic { "ok" } else { "MISMATCH" }.into(),
                ]);
                samples.push(Sample {
                    m,
                    n,
                    engine,
                    nb: width,
                    threads,
                    seconds: t,
                    deterministic,
                });
            }
        }
        par::set_num_threads(0);
        let speedup = direct_best / accumulated_best;
        speedups.push((m, n, speedup));
        println!("  {label}: accumulated (nb = {nb}) is {speedup:.2}x the direct path\n");
    }

    let mismatches = samples.iter().filter(|s| !s.deterministic).count();
    println!(
        "determinism: {}",
        if mismatches == 0 {
            "accumulated factors bitwise identical across all thread counts at fixed nb"
        } else {
            "MISMATCH"
        }
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"svd_scaling\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"deterministic\": {},", mismatches == 0);
    json.push_str("  \"speedups\": [\n");
    for (i, (m, n, s)) in speedups.iter().enumerate() {
        let _ =
            write!(json, "    {{ \"m\": {m}, \"n\": {n}, \"accumulated_over_direct\": {s:.3} }}");
        json.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"m\": {}, \"n\": {}, \"engine\": \"{}\", \"nb\": {}, \"threads\": {}, \
             \"seconds\": {:.6}, \"bitwise_match\": {} }}",
            s.m, s.n, s.engine, s.nb, s.threads, s.seconds, s.deterministic
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_svd.json");
    println!("wrote {out_path}");

    assert_eq!(mismatches, 0, "bitwise determinism violated — see {out_path}");
    let acceptance = speedups
        .iter()
        .find(|(m, n, _)| (*m, *n) == (8192, 256))
        .map(|(_, _, s)| *s)
        .expect("acceptance shape must run");
    assert!(
        acceptance >= 3.0,
        "acceptance: 8192x256 accumulated path must be >=3x the direct path, got {acceptance:.2}x"
    );
}
