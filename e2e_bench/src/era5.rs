//! `era5-parallel`: the paper's ERA5 access pattern (Fig. 2). Set-up
//! generates synthetic ERA5 (144 x 96 grid, 2048 snapshots) and writes it
//! as an ncsim v2 shuffle-RLE file; each pass runs 2 `ThreadComm` ranks,
//! each streaming its row hyperslab through its own `SnapshotPrefetcher`
//! into `ParallelStreamingSvd::fit_source` (K 8, B 32, r1 32, randomized
//! root SVD, fixed driver seed).
//!
//! Why this workload: `data` (decode and prefetch), `comm` (the TSQR
//! gather and scatter), the node-local and root QRs and the randomized
//! root SVD all do real work, and the dense serial QR does little.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use psvd_comm::{Communicator, World};
use psvd_core::{ParallelStreamingSvd, Precision, SvdConfig};
use psvd_data::era5::{self, Era5Config};
use psvd_data::ncsim::{write_v2, Codec, V2Options};
use psvd_data::partition::block_range;
use psvd_data::prefetch::{IoStats, SnapshotPrefetcher};
use psvd_data::stream::SnapshotSource;
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::random::seeded_rng;
use psvd_linalg::randomized::{low_rank_svd, randomized_svd};
use psvd_linalg::validate::{max_principal_angle, spectrum_error};
use psvd_linalg::{generate_right_vectors, matmul_into, Matrix, RandomizedConfig, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{self, Call, Kind};
use crate::report::{bits_equal, peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{self, CommCounts, Recorder, Span, TimedComm, TimedSource};
use crate::RunArgs;

const NLON: usize = 144;
const NLAT: usize = 96;
const ROWS: usize = NLON * NLAT;
const SNAPSHOTS: usize = 2048;
const RANKS: usize = 2;
const K: usize = 8;
const BATCH: usize = 32;
const R1: usize = 32;
const POWER_ITERATIONS: usize = 2;
/// The driver's randomized-path seed: fixed, so a pass is deterministic
/// for a given input.
const DRIVER_SEED: u64 = 11;
/// Prefetch ring depth per rank (classic double buffering).
const PREFETCH_DEPTH: usize = 2;
/// ncsim v2 row-panel height.
const CHUNK_ROWS: usize = 1024;
/// `gather_modes` queries after each pass.
const QUERIES_PER_PASS: usize = 128;
const SETUP_REPS: usize = 3;
const TRACE_PASSES: usize = 2;
/// The two leading coherent structures (the paper's Fig. 2) are the ones
/// checked: the weaker planted modes sit at the edge of the red-noise
/// spectrum, where any truncated stream drifts.
const CHECKED: usize = 2;
/// Tolerance on the leading singular values against the one-shot SVD,
/// relative to σ₁ (measured: about 2e-4).
const SIGMA_TOL: f64 = 2e-3;
/// Largest principal angle (rad) between the leading streamed modes and
/// the one-shot ones (measured: a few 1e-3).
const ANGLE_TOL: f64 = 0.05;
const ORTHO_TOL: f64 = 1e-10;

fn config() -> SvdConfig {
    SvdConfig::new(K)
        .with_forget_factor(1.0)
        .with_r1(R1)
        .with_r2(K)
        .with_low_rank(true)
        .with_power_iterations(POWER_ITERATIONS)
        .with_seed(DRIVER_SEED)
        .with_precision(Precision::F64)
        .with_tree_collectives(false)
        .with_tree_fanout(0)
        .with_tree_depth(0)
}

struct Setup {
    path: PathBuf,
    /// Leading modes of the one-shot SVD.
    ref_modes: Matrix,
    reference: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_dir(crate::SCRATCH_DIR);
    }
}

fn setup(seed: u64, reps: usize) -> Setup {
    let path = Path::new(crate::SCRATCH_DIR).join(format!("era5-{}.ncs", std::process::id()));
    std::fs::create_dir_all(crate::SCRATCH_DIR).expect("creating the scratch directory");
    let cfg =
        Era5Config { nlon: NLON, nlat: NLAT, snapshots: SNAPSHOTS, seed, ..Era5Config::default() };
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let d = era5::generate(&cfg);
        let opts = V2Options { chunk_rows: CHUNK_ROWS, codec: Codec::ShuffleRle };
        write_v2(&path, "msl", &d.snapshots, opts).expect("writing the ncsim input");
        setup_s.push(t0.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one set-up");
    // The one-shot reference the stream converges to (ff = 1).
    let rcfg = RandomizedConfig::new(K).with_oversampling(20).with_power_iterations(4);
    let f = randomized_svd(&data.snapshots, &rcfg, &mut seeded_rng(seed ^ 0x5eed));
    Setup { path, ref_modes: f.u.first_columns(CHECKED), reference: f.s, setup_s }
}

/// What one rank brings back from a pass.
struct RankOut {
    calls: Vec<(Instant, Instant)>,
    io: IoStats,
    fit: (Instant, Instant),
    sigma: Vec<f64>,
    /// Global modes (rank 0 only).
    modes: Option<Matrix>,
    queries_us: Vec<f64>,
    comm: CommCounts,
    spans: Vec<Span>,
    replayed: Vec<Vec<Call>>,
}

/// One rank's share of a pass over communicator `comm`; with a recorder,
/// spans are taken around the source and the communicator, and rank 0
/// replays its kernels afterwards. `traffic` reads the communicator's
/// counters, taken when the stream ends (before the queries).
fn rank_pass<C: Communicator>(
    comm: &C,
    path: &Path,
    rec: Option<&Recorder>,
    traffic: impl Fn() -> CommCounts,
) -> RankOut {
    let rank = comm.rank();
    let (r0, r1) = block_range(ROWS, RANKS, rank);
    let prefetch =
        SnapshotPrefetcher::<f64>::open_rows_with_depth(path, r0, r1, BATCH, PREFETCH_DEPTH)
            .expect("opening the ncsim input");
    let mut src = TimedSource::new(prefetch, rec);
    let mut drv = ParallelStreamingSvd::new(comm, config());
    let t0 = Instant::now();
    drv.fit_source(&mut src);
    let fit = (t0, Instant::now());
    let comm_counts = traffic();
    let mut queries_us = Vec::with_capacity(QUERIES_PER_PASS);
    let mut modes = None;
    for _ in 0..QUERIES_PER_PASS {
        let q0 = Instant::now();
        modes = std::hint::black_box(drv.gather_modes(0));
        queries_us.push(q0.elapsed().as_secs_f64() * 1e6);
    }
    let mut out = RankOut {
        calls: src.calls().to_vec(),
        io: src.inner().io_stats(),
        fit,
        sigma: drv.singular_values().to_vec(),
        modes,
        queries_us,
        comm: comm_counts,
        spans: Vec::new(),
        replayed: Vec::new(),
    };
    if let Some(rec) = rec {
        // The driver's update for batch i runs between the return of call
        // i and the start of call i + 1; comm spans taken meanwhile are
        // its children.
        let ids: Vec<usize> =
            out.calls.windows(2).map(|w| rec.wrap("core.update", w[0].1, w[1].0)).collect();
        if rank == 0 {
            out.replayed = replay(path, r0, r1, drv.local_modes(), drv.singular_values());
            for (calls, &id) in out.replayed.iter().zip(&ids) {
                kernels::record(rec, calls, id);
            }
        }
    }
    out
}

/// Rank 0's kernels per update at the driver's shapes: the APMOS
/// initialization, then per batch the TSQR round (local QR, root QR of the
/// stacked `R` factors, `Q` assembly), the randomized root SVD and the
/// mode update. Rank 0's own data stands in for rank 1's `R` and `W`.
fn replay(path: &Path, r0: usize, r1: usize, u: &Matrix, s: &[f64]) -> Vec<Vec<Call>> {
    let cfg = config();
    let mut src = SnapshotPrefetcher::<f64>::open_rows_with_depth(path, r0, r1, BATCH, 0)
        .expect("opening the ncsim input");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ws = Workspace::new();
    let (m, k0) = u.shape();
    let (mut a, mut stack) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut lq, mut lr, mut gq, mut gr) =
        (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut qlocal, mut next) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut updates = Vec::new();
    while src.next_batch_into(&mut a).expect("reading the ncsim input") {
        let mut calls = Vec::new();
        let b = a.cols();
        if updates.is_empty() {
            let r1c = cfg.r1.min(b);
            let (mut w, sl) =
                kernels::time(&mut calls, Kind::Svd, kernels::gram_eig_cost(m, b), || {
                    generate_right_vectors(&a, r1c)
                });
            for i in 0..w.rows() {
                for (v, &sv) in w.row_mut(i).iter_mut().zip(&sl) {
                    *v *= sv;
                }
            }
            let wg = Matrix::hstack_all(&vec![w; RANKS]);
            let l = (cfg.r2 + 10).min(wg.cols());
            let (x, _) = kernels::time(
                &mut calls,
                Kind::Rsvd,
                kernels::rsvd_cost(wg.rows(), wg.cols(), l, 1),
                || low_rank_svd(&wg, cfg.r2.min(wg.rows().min(wg.cols())), &mut rng),
            );
            let k = cfg.k.min(x.cols());
            kernels::time(&mut calls, Kind::Gemm, kernels::gemm_cost(m, b, k), || {
                matmul_into(a.view(), x.block(0, x.rows(), 0, k), &mut next)
            });
        } else {
            let n = k0 + b;
            stack.reshape_for_overwrite(m, n);
            for i in 0..m {
                let dst = stack.row_mut(i);
                for ((d, &uv), &sv) in dst[..k0].iter_mut().zip(u.row(i)).zip(s) {
                    *d = uv * sv;
                }
                dst[k0..].copy_from_slice(a.row(i));
            }
            kernels::time(&mut calls, Kind::Qr, kernels::qr_cost(m, n), || {
                qr_thin_into(stack.view(), &mut lq, &mut lr, &mut ws)
            });
            let rs = Matrix::vstack_all(&vec![lr.clone(); RANKS]);
            kernels::time(&mut calls, Kind::Qr, kernels::qr_cost(rs.rows(), n), || {
                qr_thin_into(rs.view(), &mut gq, &mut gr, &mut ws)
            });
            kernels::time(&mut calls, Kind::Gemm, kernels::gemm_cost(m, n, n), || {
                matmul_into(lq.view(), gq.block(0, n, 0, n), &mut qlocal)
            });
            let rank_cap = cfg.k.min(n);
            let l = (rank_cap + 10).min(n);
            let (unew, _) =
                kernels::time(&mut calls, Kind::Rsvd, kernels::rsvd_cost(n, n, l, 1), || {
                    low_rank_svd(&gr, rank_cap, &mut rng)
                });
            let k = cfg.k.min(unew.cols());
            kernels::time(&mut calls, Kind::Gemm, kernels::gemm_cost(m, n, k), || {
                matmul_into(qlocal.view(), unew.block(0, unew.rows(), 0, k), &mut next)
            });
        }
        updates.push(calls);
    }
    updates
}

/// A whole pass: both ranks, untraced (`epoch = None`) or traced.
fn pass(path: &Path, epoch: Option<Instant>) -> (Vec<RankOut>, Duration) {
    let world = World::new(RANKS);
    let t0 = Instant::now();
    let outs = world.run(|comm| match epoch {
        None => rank_pass(comm, path, None, CommCounts::default),
        Some(epoch) => {
            let rec = Recorder::new(epoch, comm.rank());
            let tc = TimedComm::new(comm, &rec);
            let mut out = rank_pass(&tc, path, Some(&rec), || tc.counts());
            out.spans = rec.into_spans();
            out
        }
    });
    let end = outs.iter().map(|o| o.fit.1).max().expect("ranks ran");
    (outs, end - t0)
}

/// Rank 0's gathered modes and singular values, kept to compare later
/// passes with bit for bit.
type Model = (Matrix, Vec<f64>);

fn model_of(r0: &RankOut) -> Model {
    (r0.modes.clone().expect("rank 0 gathers the modes"), r0.sigma.clone())
}

/// Same singular values and gathered modes, bit for bit.
fn same_result(a: &RankOut, b: &Model) -> bool {
    let modes = a
        .modes
        .as_ref()
        .is_some_and(|x| x.shape() == b.0.shape() && bits_equal(x.as_slice(), b.0.as_slice()));
    modes && bits_equal(&a.sigma, &b.1)
}

/// The library's spectrum error over the checked values, relative to σ₁.
fn sigma_rel_err(got: &[f64], want: &[f64]) -> f64 {
    spectrum_error(&want[..CHECKED], &got[..CHECKED])
}

fn check(out: &mut Outcome, r0: &RankOut, s: &Setup, first: &Model) {
    let err = sigma_rel_err(&r0.sigma, &s.reference);
    out.check(err <= SIGMA_TOL, || format!("sigma_rel_err {err:e} > {SIGMA_TOL:e}"));
    let modes = r0.modes.as_ref().expect("rank 0 gathers the modes");
    let ortho = orthogonality_error(modes);
    out.check(ortho <= ORTHO_TOL, || format!("orthogonality {ortho:e} > {ORTHO_TOL:e}"));
    let angle = max_principal_angle(&modes.first_columns(CHECKED), &s.ref_modes);
    out.check(angle <= ANGLE_TOL, || format!("leading-mode angle {angle:e} > {ANGLE_TOL:e}"));
    out.check(same_result(r0, first), || "a pass differs bitwise from the first pass".into());
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
    let s = setup(args.seed, SETUP_REPS);
    let (mut walls, mut updates, mut fresh, mut queries) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Model> = None;
    let deadline = Instant::now() + args.seconds;
    while walls.is_empty() || Instant::now() < deadline {
        let (outs, wall) = pass(&s.path, None);
        let r0 = &outs[0];
        let first = first.get_or_insert_with(|| model_of(r0));
        walls.push(wall.as_secs_f64());
        updates.extend(trace::update_intervals_ms(&r0.calls));
        fresh.extend(trace::freshness_ms(&r0.calls));
        queries.extend(&r0.queries_us);
        check(&mut out, r0, &s, first);
        out.attempted += (r0.calls.len() - 1 + r0.queries_us.len()) as u64;
    }
    out.note("setup_s", median(&s.setup_s), format!("median of {SETUP_REPS} set-ups"));
    out.note("wall_s", median(&walls), format!("median of {} passes", walls.len()));
    out.set("snapshots_per_s", SNAPSHOTS as f64 / median(&walls));
    out.pair("update_p50_ms", "update_tail_ms", &updates);
    out.pair("freshness_p50_ms", "freshness_tail_ms", &fresh);
    out.pair("query_p50_us", "query_tail_us", &queries);
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(args.seed, 1);
    let first = model_of(&pass(&s.path, None).0[0]);
    let untraced: Vec<f64> = (0..TRACE_PASSES)
        .map(|_| {
            let (outs, _) = pass(&s.path, None);
            check(&mut out, &outs[0], &s, &first);
            let r0 = &outs[0];
            (r0.fit.1 - r0.fit.0).as_secs_f64() * 1e3
        })
        .collect();

    let epoch = Instant::now();
    let (mut all_spans, mut replayed) = (Vec::new(), Vec::new());
    let (mut traced, mut self_ms, mut update_ms, mut ingest_ms) = (vec![], vec![], vec![], vec![]);
    let (mut covered, mut comm, mut root, mut io) =
        (0.0, CommCounts::default(), CommCounts::default(), IoStats::default());
    let mut n_updates = 0u64;
    for _ in 0..TRACE_PASSES {
        let (outs, _) = pass(&s.path, Some(epoch));
        out.check(same_result(&outs[0], &first), || {
            "decorator transparency: the traced run differs bitwise from the untraced run".into()
        });
        check(&mut out, &outs[0], &s, &first);
        for o in &outs {
            comm.messages += o.comm.messages;
            comm.bytes += o.comm.bytes;
        }
        let r0 = &outs[0];
        let fit_ms = (r0.fit.1 - r0.fit.0).as_secs_f64() * 1e3;
        traced.push(fit_ms);
        covered += trace::coverage(&r0.spans, 1.0);
        root.recv_bytes += r0.comm.recv_bytes;
        root.recv_ns += r0.comm.recv_ns;
        root.send_ns += r0.comm.send_ns;
        io = r0.io;
        n_updates += (r0.calls.len() - 1) as u64;
        self_ms.extend(trace::self_times_ms(&r0.spans, "core.update"));
        update_ms.extend(trace::spans_named(&r0.spans, "core.update").iter().map(|u| u.ms()));
        ingest_ms.push(
            trace::spans_named(&r0.spans, "data.next_batch").iter().map(|u| u.ms()).sum::<f64>(),
        );
        out.attempted += (r0.calls.len() - 1 + r0.queries_us.len()) as u64;
        for o in outs {
            trace::append_spans(&mut all_spans, o.spans);
            replayed.extend(o.replayed);
        }
    }
    let path = Path::new(crate::TRACE_DIR).join(format!("era5-parallel-seed{}.jsonl", args.seed));
    if let Err(e) = trace::write_spans(&path, &all_spans) {
        out.check(false, || format!("writing the trace: {e}"));
    }

    let per_update = |x: u64| x as f64 / n_updates as f64;
    kernels::summarize(&replayed, &mut out);
    out.note("comm.messages", per_update(comm.messages), "per update, all ranks".into());
    out.note("comm.bytes", per_update(comm.bytes), "per update, all ranks".into());
    out.note("comm.root_recv_bytes", per_update(root.recv_bytes), "per update, rank 0".into());
    out.note("comm.recv_wait_ms", per_update(root.recv_ns) * 1e-6, "per update, rank 0".into());
    out.note("comm.send_ms", per_update(root.send_ns) * 1e-6, "per update, rank 0".into());
    out.note("data.ingest_wait_ms", median(&ingest_ms), "per pass, rank 0".into());
    out.set("data.stall_frac", io.stall_fraction());
    out.note("data.io_busy_ms", io.io_busy_nanos as f64 * 1e-6, "per pass, rank 0".into());
    out.note("data.bytes_read", io.bytes_read as f64, "per pass, rank 0".into());
    let decoded = (block_range(ROWS, RANKS, 0).1 * SNAPSHOTS * 8) as f64;
    out.set("data.decode_mb_per_s", decoded / 1e6 / (io.io_busy_nanos as f64 * 1e-9));
    out.set("core.update_ms", median(&update_ms));
    out.note("core.self_ms", median(&self_ms), "stack build and driver bookkeeping, rank 0".into());
    let fit_total: f64 = traced.iter().sum();
    out.set("core.coverage", covered / fit_total);
    out.set("sigma_rel_err", sigma_rel_err(&first.1, &s.reference));
    out.set("failed_frac", crate::stats::failed_frac(out.attempted, out.failed));
    out.note(
        "trace.overhead_ms",
        median(&traced) - median(&untraced),
        format!(
            "traced {:.3} ms - untraced {:.3} ms per pass (rank 0 fit)",
            median(&traced),
            median(&untraced)
        ),
    );
    out
}
