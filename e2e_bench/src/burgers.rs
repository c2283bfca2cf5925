//! `burgers-serial`: the paper's serial Burgers run (Fig. 1a/b), 16384
//! grid points x 800 snapshots at Re 1000, K = 10, streamed in-core in
//! batches of 16 through `SerialStreamingSvd::fit_source` on one kernel
//! thread.
//!
//! Why this workload: there is no `comm` and no disk IO, so it isolates
//! the streaming hot loop, where the thin QR of the `[U·diag(s) | A_i]`
//! stack does nearly all the work. It is also the single-threaded
//! baseline. `ff = 1`, so the one-shot truncated SVD of the whole matrix
//! is the exact reference; the forget factor does not change the cost.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use psvd_core::{Precision, SerialStreamingSvd, SvdConfig};
use psvd_data::burgers::{self, BurgersConfig};
use psvd_data::stream::{MatrixBatchSource, SnapshotSource};
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::random::{seeded_rng, StandardNormal};
use psvd_linalg::randomized::randomized_svd;
use psvd_linalg::svd::svd_with;
use psvd_linalg::validate::spectrum_error;
use psvd_linalg::{matmul_into, Matrix, RandomizedConfig, SvdMethod, Workspace};
use rand::distributions::Distribution;

use crate::kernels::{self, Call, Kind};
use crate::report::{bits_equal, peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{self, Recorder, TimedSource};
use crate::RunArgs;

const GRID: usize = 16384;
const SNAPSHOTS: usize = 800;
const K: usize = 10;
const BATCH: usize = 16;
/// `residual_fraction` queries between every two batches, against the
/// previous pass's model.
const QUERIES_PER_BATCH: usize = 3;
/// Distinct snapshots the queries cycle through.
const QUERY_SNAPSHOTS: usize = 16;
/// Passes per phase of a traced run.
const TRACE_PASSES: usize = 2;
/// Seeded measurement noise, relative to the field's peak: each seed is a
/// distinct input of identical cost.
const NOISE: f64 = 1e-6;
/// Streaming-vs-one-shot tolerance on the spectrum (relative to σ₁). The
/// truncation of every update costs the trailing tracked values a few
/// percent of themselves, about 3e-3 of σ₁ on this input.
const SIGMA_TOL: f64 = 1e-2;
/// `‖UᵀU − I‖_max` tolerance on the streamed modes.
const ORTHO_TOL: f64 = 1e-10;

fn config() -> SvdConfig {
    SvdConfig::new(K)
        .with_forget_factor(1.0)
        .with_low_rank(false)
        .with_method(SvdMethod::GolubKahan)
        .with_precision(Precision::F64)
        .with_tree_collectives(false)
        .with_tree_fanout(0)
        .with_tree_depth(0)
}

/// The Burgers snapshot matrix with seeded noise at `NOISE` of its peak.
fn generate(seed: u64) -> Matrix {
    let cfg = BurgersConfig {
        grid_points: GRID,
        snapshots: SNAPSHOTS,
        reynolds: 1000.0,
        ..BurgersConfig::default()
    };
    let mut a = burgers::snapshot_matrix(&cfg);
    let peak = a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut rng = seeded_rng(seed);
    for v in a.as_mut_slice() {
        *v += NOISE * peak * StandardNormal.sample(&mut rng);
    }
    a
}

/// Leading `K` singular values of the whole matrix (the one-shot
/// reference): a randomized SVD with generous oversampling and power
/// iterations, exact to far below `SIGMA_TOL` on this fast-decaying
/// spectrum.
fn reference(a: &Matrix, seed: u64) -> Vec<f64> {
    let cfg = RandomizedConfig::new(K).with_oversampling(20).with_power_iterations(4);
    randomized_svd(a, &cfg, &mut seeded_rng(seed ^ 0x5eed)).s
}

/// The library's spectrum error, `max_i |σ_i − σ̂_i| / σ_1`.
fn sigma_rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    spectrum_error(want, got)
}

/// A fitted model, kept to compare later passes with bit for bit.
type Model = (Matrix, Vec<f64>);

fn model_of(svd: &SerialStreamingSvd) -> Model {
    (svd.modes().clone(), svd.singular_values().to_vec())
}

fn same_model(a: &SerialStreamingSvd, b: &Model) -> bool {
    a.modes().shape() == b.0.shape()
        && bits_equal(a.modes().as_slice(), b.0.as_slice())
        && bits_equal(a.singular_values(), &b.1)
}

struct Setup {
    data: Matrix,
    reference: Vec<f64>,
    setup_s: Vec<f64>,
}

fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    let data = std::hint::black_box(generate(seed));
    let setup_s = vec![t0.elapsed().as_secs_f64()];
    let reference = reference(&data, seed);
    Setup { data, reference, setup_s }
}

/// A source that, before each batch, queries an earlier fitted model
/// (`residual_fraction` of a fixed snapshot) and logs how long that took.
/// Issued between batches, the queries sample the whole run the way the
/// updates do, rather than one burst per pass.
struct Querying<'a, S> {
    inner: S,
    model: Option<&'a SerialStreamingSvd>,
    snapshots: &'a [Vec<f64>],
    issued: usize,
    /// Query time (ms) spent in each call, so it can be taken out again.
    per_call_ms: Vec<f64>,
    samples_us: Vec<f64>,
}

impl<S: SnapshotSource<f64>> SnapshotSource<f64> for Querying<'_, S> {
    fn next_batch_into(&mut self, dst: &mut Matrix) -> io::Result<bool> {
        let mut spent = 0.0;
        if let Some(model) = self.model {
            for _ in 0..QUERIES_PER_BATCH {
                let x = &self.snapshots[self.issued % self.snapshots.len()];
                self.issued += 1;
                let t0 = Instant::now();
                std::hint::black_box(model.residual_fraction(std::hint::black_box(x)));
                let us = t0.elapsed().as_secs_f64() * 1e6;
                self.samples_us.push(us);
                spent += us * 1e-3;
            }
        }
        self.per_call_ms.push(spent);
        self.inner.next_batch_into(dst)
    }
}

/// What one timed pass measured; query time is already taken out of
/// `wall` and `updates_ms`.
struct Pass {
    svd: SerialStreamingSvd,
    wall: Duration,
    updates_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    queries_us: Vec<f64>,
}

/// One untraced pass: the whole stream through `fit_source`, with queries
/// against `model` (the previous pass's) between the batches.
fn pass(data: &Matrix, model: Option<&SerialStreamingSvd>, snapshots: &[Vec<f64>]) -> Pass {
    let t0 = Instant::now();
    let mut svd = SerialStreamingSvd::new(config());
    let querying = Querying {
        inner: MatrixBatchSource::new(data, BATCH),
        model,
        snapshots,
        issued: 0,
        per_call_ms: Vec::new(),
        samples_us: Vec::new(),
    };
    let mut src = TimedSource::new(querying, None);
    svd.fit_source(&mut src).expect("an in-core source cannot fail");
    let wall = t0.elapsed();
    let q = src.inner();
    let queried = Duration::from_secs_f64(q.per_call_ms.iter().sum::<f64>() * 1e-3);
    // Call i + 1 started with its queries; the cadence excludes them.
    let updates_ms = trace::update_intervals_ms(src.calls())
        .iter()
        .zip(&q.per_call_ms[1..])
        .map(|(u, spent)| u - spent)
        .collect();
    Pass {
        wall: wall.saturating_sub(queried),
        updates_ms,
        fresh_ms: trace::freshness_ms(src.calls()),
        queries_us: q.samples_us.clone(),
        svd,
    }
}

/// Check a fitted model against the reference and the run's first model.
fn check(out: &mut Outcome, svd: &SerialStreamingSvd, s: &Setup, first: &Model) {
    let err = sigma_rel_err(svd.singular_values(), &s.reference);
    out.check(err <= SIGMA_TOL, || format!("sigma_rel_err {err:e} > {SIGMA_TOL:e}"));
    let ortho = orthogonality_error(svd.modes());
    out.check(ortho <= ORTHO_TOL, || format!("orthogonality {ortho:e} > {ORTHO_TOL:e}"));
    out.check(same_model(svd, first), || "a pass differs bitwise from the first pass".into());
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_timed(args)
    }
}

fn run_timed(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut s = setup(args.seed);
    let snapshots: Vec<Vec<f64>> =
        (0..QUERY_SNAPSHOTS).map(|q| s.data.col((q * 37 + 5) % SNAPSHOTS)).collect();
    let (mut walls, mut updates, mut fresh, mut queries) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Model> = None;
    let mut prev: Option<SerialStreamingSvd> = None;
    let deadline = Instant::now() + args.seconds;
    while walls.is_empty() || Instant::now() < deadline {
        let p = pass(&s.data, prev.as_ref(), &snapshots);
        walls.push(p.wall.as_secs_f64());
        out.attempted += (p.updates_ms.len() + p.queries_us.len()) as u64;
        updates.extend(p.updates_ms);
        fresh.extend(p.fresh_ms);
        queries.extend(p.queries_us);
        check(&mut out, &p.svd, &s, first.get_or_insert_with(|| model_of(&p.svd)));
        prev = Some(p.svd);
        // Set up again after every pass, so the set-up time samples the
        // whole run like the other metrics do.
        let t0 = Instant::now();
        std::hint::black_box(generate(args.seed));
        s.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let n = s.setup_s.len();
    out.note("setup_s", median(&s.setup_s), format!("median of {n} set-ups"));
    out.note("wall_s", median(&walls), format!("median of {} passes", walls.len()));
    out.set("snapshots_per_s", SNAPSHOTS as f64 / median(&walls));
    out.pair("update_p50_ms", "update_tail_ms", &updates);
    out.pair("freshness_p50_ms", "freshness_tail_ms", &fresh);
    out.pair("query_p50_us", "query_tail_us", &queries);
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Replay one update's kernels from the driver's public state, exactly as
/// `SerialStreamingSvd` runs them, returning the timed calls and the
/// `(modes, singular values)` the driver must arrive at.
fn replay(
    svd: &SerialStreamingSvd,
    batch: &Matrix,
    stack: &mut Matrix,
    q: &mut Matrix,
    r: &mut Matrix,
    ws: &mut Workspace,
) -> (Vec<Call>, Matrix, Vec<f64>) {
    let cfg = svd.config();
    let mut calls = Vec::new();
    let (m, k0) = svd.modes().shape();
    let input: &Matrix = if svd.is_initialized() {
        // [ff·U·diag(s) | A_i], with the driver's multiplication order.
        let weighted: Vec<f64> =
            svd.singular_values().iter().map(|s| s * cfg.forget_factor).collect();
        stack.reshape_for_overwrite(m, k0 + batch.cols());
        for i in 0..m {
            let dst = stack.row_mut(i);
            for ((d, &u), &w) in dst[..k0].iter_mut().zip(svd.modes().row(i)).zip(&weighted) {
                *d = u * w;
            }
            dst[k0..].copy_from_slice(batch.row(i));
        }
        stack
    } else {
        batch
    };
    let (rows, cols) = input.shape();
    kernels::time(&mut calls, Kind::Qr, kernels::qr_cost(rows, cols), || {
        qr_thin_into(input.view(), q, r, ws)
    });
    let f = kernels::time(&mut calls, Kind::Svd, kernels::svd_cost(r.rows()), || {
        svd_with(r, cfg.method)
    });
    let k = cfg.k.min(f.s.len());
    let mut next = Matrix::zeros(0, 0);
    kernels::time(&mut calls, Kind::Gemm, kernels::gemm_cost(rows, q.cols(), k), || {
        matmul_into(q.view(), f.u.block(0, f.u.rows(), 0, k), &mut next)
    });
    (calls, next, f.s[..k].to_vec())
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(args.seed);
    let first = model_of(&pass(&s.data, None, &[]).svd);
    let untraced: Vec<f64> =
        (0..TRACE_PASSES).map(|_| pass(&s.data, None, &[]).wall.as_secs_f64() * 1e3).collect();

    let rec = Recorder::new(Instant::now(), 0);
    let (mut stack, mut q, mut r, mut ws) =
        (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0), Workspace::new());
    let mut replayed: Vec<Vec<Call>> = Vec::new();
    let (mut program_ms, mut ingest_ms, mut mismatches) = (vec![], vec![], 0usize);
    for _ in 0..TRACE_PASSES {
        let mut svd = SerialStreamingSvd::new(config());
        let mut src = TimedSource::new(MatrixBatchSource::new(&s.data, BATCH), Some(&rec));
        let mut batch = Matrix::zeros(0, 0);
        let mut bench = Duration::ZERO;
        let t0 = Instant::now();
        while src.next_batch_into(&mut batch).expect("an in-core source cannot fail") {
            let b0 = Instant::now();
            let (calls, next_modes, next_sigma) =
                replay(&svd, &batch, &mut stack, &mut q, &mut r, &mut ws);
            let b1 = Instant::now();
            rec.record("bench.replay", b0, b1, None, false);
            let id = rec.begin("core.update");
            if svd.is_initialized() {
                svd.incorporate_data(&batch);
            } else {
                svd.initialize(&batch);
            }
            rec.end(id);
            kernels::record(&rec, &calls, id);
            let c0 = Instant::now();
            if !(bits_equal(svd.modes().as_slice(), next_modes.as_slice())
                && svd.modes().shape() == next_modes.shape()
                && bits_equal(svd.singular_values(), &next_sigma))
            {
                mismatches += 1;
            }
            let c1 = Instant::now();
            rec.record("bench.check", c0, c1, None, false);
            bench += (b1 - b0) + (c1 - c0);
            replayed.push(calls);
        }
        program_ms.push((t0.elapsed() - bench).as_secs_f64() * 1e3);
        let data_ns: u64 = src.calls().iter().map(|(a, b)| (*b - *a).as_nanos() as u64).sum();
        ingest_ms.push(data_ns as f64 * 1e-6);
        check(&mut out, &svd, &s, &first);
        out.attempted += (src.calls().len() - 1) as u64;
    }
    out.check(mismatches == 0, || {
        format!("replay fidelity: {mismatches} updates differ bitwise from the driver")
    });

    let spans = rec.into_spans();
    if let Err(e) = trace::write_spans(&trace_path(args), &spans) {
        out.check(false, || format!("writing the trace: {e}"));
    }
    kernels::summarize(&replayed, &mut out);
    let updates = trace::spans_named(&spans, "core.update");
    out.set("core.update_ms", median(&updates.iter().map(|u| u.ms()).collect::<Vec<_>>()));
    out.note(
        "core.self_ms",
        median(&trace::self_times_ms(&spans, "core.update")),
        "stack build and driver bookkeeping".into(),
    );
    out.set("core.coverage", trace::coverage(&spans, program_ms.iter().sum::<f64>()));
    out.note("data.ingest_wait_ms", median(&ingest_ms), "per pass".into());
    out.set("sigma_rel_err", sigma_rel_err(&first.1, &s.reference));
    out.set("failed_frac", crate::stats::failed_frac(out.attempted, out.failed));
    out.note(
        "trace.overhead_ms",
        median(&program_ms) - median(&untraced),
        format!(
            "traced {:.3} ms - untraced {:.3} ms per pass",
            median(&program_ms),
            median(&untraced)
        ),
    );
    out
}

fn trace_path(args: &RunArgs) -> std::path::PathBuf {
    Path::new(crate::TRACE_DIR).join(format!("burgers-serial-seed{}.jsonl", args.seed))
}
