//! `serve-fleet`: an open-loop, single-thread generator drives one
//! `SvdServer` (2 workers) at a fixed offered rate. 48 tenants (4096 rows,
//! K 8, batch 8) share a resident cap of 16; one tenant in four runs
//! 2-rank rounds. Every chunk submit is followed, half a period later, by
//! a `singular_values` query to a seeded tenant, and the generator polls
//! the tenants it has written to until their published model includes the
//! write (read-your-writes), which is how freshness is observed.
//!
//! Freshness is timed from each write's due time. Submits and queries are
//! timed from when they were sent, and the generator's lateness is
//! reported on its own (`loadgen.late_tail_ms`): a read-your-writes poll
//! can wait out a whole round (see `NOTES.md`), and charging that to the
//! requests that follow would measure the poll, not the server.
//!
//! Why this workload: it is the only one that exercises `serve` — the
//! queues, eviction and rehydration, and the world spawn per round of the
//! multi-rank sessions — and it puts reads beside writes on the same
//! sessions, so a change that speeds updates by slowing queries shows.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use psvd_core::{Precision, SerialStreamingSvd, SvdConfig};
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::random::seeded_rng;
use psvd_linalg::{Matrix, SvdMethod};
use psvd_serve::{CoalescedBatches, ServeConfig, SessionSpec, SessionState, SvdServer};
use rand::Rng;

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{self, median};
use crate::trace::{self, Recorder};
use crate::RunArgs;

const TENANTS: usize = 48;
const ROWS: usize = 4096;
const K: usize = 8;
const BATCH: usize = 8;
/// Columns per submitted chunk: one canonical batch, so no runt waits for
/// a flush.
const CHUNK: usize = BATCH;
const RESIDENT: usize = 16;
const WORKERS: usize = 2;
const ROUND_BATCHES: usize = 4;
const QUEUE_DEPTH: usize = 1024;
/// Chunks each tenant receives during set-up, so every tenant has a
/// published model before the timed schedule starts.
const WARM_CHUNKS: usize = 2;
/// Offered load in chunk submits per second (plus as many queries): a
/// quarter of the 275/s saturation `--saturation` measured on a 2-vCPU
/// host. At half, the host's own speed swings push the server close to
/// saturation and the latencies swing from run to run by more than any
/// useful bound.
const RATE: f64 = 70.0;
/// How often the generator polls for its outstanding writes while idle.
const PROBE_EVERY: Duration = Duration::from_micros(250);
/// The generator sleeps until this long before a request is due and then
/// spins, so a late timer wake-up is not charged to the request. Kept
/// short: the generator outranks the server's workers (see
/// `start_server`), so while the host lends the process less than two
/// CPUs every microsecond it spins is taken from a round. On a 2-vCPU
/// host it covered the wake-ups (`loadgen.late_tail_ms` under 1 µs).
const SPIN_BEFORE: Duration = Duration::from_micros(300);
/// Polls are at least this far apart, and the generator polls while it
/// spins too, so a write that becomes visible just before a request is due
/// is seen when it happens, not after the request. A gap in polling puts
/// a step in the freshness distribution, and a tail on a step jumps from
/// run to run.
const MIN_PROBE_GAP: Duration = Duration::from_micros(50);
/// No poll this close to a due time, so a poll does not make a request late.
const PROBE_STOP: Duration = Duration::from_micros(100);
/// Planted components per tenant stream; K tracks all of them.
const COMPONENTS: usize = 8;
const NOISE: f64 = 1e-4;
const SETUP_REPS: usize = 5;
/// Served singular values against a direct serial replay of the stream.
const SIGMA_TOL: f64 = 1e-8;
const ORTHO_TOL: f64 = 1e-10;
/// Rounds replayed through `SessionState` per rank count in a traced run.
const REPLAY_ROUNDS: usize = 20;

fn svd_config() -> SvdConfig {
    SvdConfig::new(K)
        .with_forget_factor(0.95)
        .with_low_rank(false)
        .with_method(SvdMethod::GolubKahan)
        .with_precision(Precision::F64)
        .with_tree_collectives(false)
        .with_tree_fanout(0)
        .with_tree_depth(0)
}

fn ranks_of(tenant: usize) -> usize {
    if tenant.is_multiple_of(4) {
        2
    } else {
        1
    }
}

fn spec(tenant: usize) -> SessionSpec {
    SessionSpec::new(K, ROWS).with_svd(svd_config()).with_batch(BATCH).with_ranks(ranks_of(tenant))
}

fn name(tenant: usize) -> String {
    format!("tenant-{tenant:02}")
}

/// Tenant streams: `COMPONENTS` planted spatial patterns (drawn once per
/// tenant from the seed) with slowly rotating temporal coefficients, plus
/// uniform noise. Chunk `c` of tenant `t` is a pure function of the seed,
/// `t` and `c`, so any tenant's stream can be replayed.
struct Streams {
    seed: u64,
    /// Per tenant, `ROWS x COMPONENTS` patterns.
    patterns: Vec<Matrix>,
    freqs: Vec<[f64; COMPONENTS]>,
}

impl Streams {
    fn new(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let mut patterns = Vec::with_capacity(TENANTS);
        let mut freqs = Vec::with_capacity(TENANTS);
        for _ in 0..TENANTS {
            let phase: Vec<f64> =
                (0..COMPONENTS).map(|_| rng.gen() * std::f64::consts::TAU).collect();
            patterns.push(Matrix::from_fn(ROWS, COMPONENTS, |i, r| {
                let x = (i as f64 + 0.5) / ROWS as f64;
                (std::f64::consts::PI * (r + 1) as f64 * x + phase[r]).sin()
                    * 0.5f64.powf(r as f64 / 2.0)
            }));
            let mut f = [0.0; COMPONENTS];
            for v in &mut f {
                *v = 0.01 + 0.2 * rng.gen();
            }
            freqs.push(f);
        }
        Self { seed, patterns, freqs }
    }

    fn chunk(&self, tenant: usize, index: usize) -> Matrix {
        let mix = (tenant as u64) << 40 | index as u64;
        let mut rng = seeded_rng(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix);
        let p = &self.patterns[tenant];
        let mut coef = [[0.0; COMPONENTS]; CHUNK];
        for (c, row) in coef.iter_mut().enumerate() {
            let j = (index * CHUNK + c) as f64;
            for (r, v) in row.iter_mut().enumerate() {
                *v = (self.freqs[tenant][r] * j + r as f64).cos() + 1.5;
            }
        }
        let mut m = Matrix::zeros(ROWS, CHUNK);
        for i in 0..ROWS {
            let pr = p.row(i);
            for (c, v) in m.row_mut(i).iter_mut().enumerate() {
                let s: f64 = pr.iter().zip(&coef[c]).map(|(a, b)| a * b).sum();
                *v = s + NOISE * (rng.gen() - 0.5);
            }
        }
        m
    }
}

fn server_config() -> ServeConfig {
    ServeConfig {
        sessions: RESIDENT,
        queue_depth: QUEUE_DEPTH,
        idle_rounds: 0,
        workers: WORKERS,
        round_batches: ROUND_BATCHES,
    }
}

/// Start the server's workers at a lower scheduling priority (nice +10)
/// than the load generator. The generator stands in for clients on other
/// machines: on a host with as many cores as workers it must not queue
/// behind the server for a CPU, or its own lateness would swamp every
/// latency it measures. The workers inherit the priority of the thread
/// that spawns them, and the rank threads of multi-rank rounds inherit
/// theirs; when the generator sleeps the server has every core.
fn start_server() -> SvdServer {
    std::thread::spawn(|| {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        // SAFETY: a plain system call with integer arguments. On Linux the
        // nice value is per thread, and PRIO_PROCESS (0) with who = 0 names
        // the calling thread; raising one's own nice value needs no
        // privilege. A failure only leaves the priority unchanged.
        unsafe { setpriority(0, 0, 10) };
        SvdServer::new(server_config())
    })
    .join()
    .expect("starting the server")
}

/// Start a server, open the fleet and warm every tenant to a published
/// model.
fn open_fleet(streams: &Streams) -> SvdServer {
    let server = start_server();
    for t in 0..TENANTS {
        server.open(&name(t), spec(t)).expect("fresh tenant keys");
    }
    for c in 0..WARM_CHUNKS {
        for t in 0..TENANTS {
            server.submit(&name(t), streams.chunk(t, c)).expect("warm-up fits the queue");
        }
    }
    server.drain();
    server
}

#[derive(Clone, Copy)]
enum Op {
    Submit(usize),
    Query(usize),
}

/// The open-loop schedule over `span`: submits at `RATE`, each followed
/// half a period later by a query. Tenants are visited in seeded shuffled
/// cycles, so every tenant receives the same load and the seed changes the
/// order, not how uneven the load is.
fn schedule(seed: u64, span: Duration) -> Vec<(Duration, Op)> {
    let mut rng = seeded_rng(seed ^ 0x0bad_5eed);
    let cycle = |rng: &mut rand::rngs::StdRng| {
        let mut order: Vec<usize> = (0..TENANTS).collect();
        for i in (1..TENANTS).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    };
    let period = 1.0 / RATE;
    let n = (span.as_secs_f64() * RATE).round() as usize;
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let mut ev = Vec::with_capacity(2 * n);
    for i in 0..n {
        if writes.is_empty() {
            writes = cycle(&mut rng);
            reads = cycle(&mut rng);
        }
        let t = i as f64 * period;
        let (w, r) = (writes.pop().expect("refilled"), reads.pop().expect("refilled"));
        ev.push((Duration::from_secs_f64(t), Op::Submit(w)));
        ev.push((Duration::from_secs_f64(t + 0.5 * period), Op::Query(r)));
    }
    ev
}

/// Everything one pass of the open loop measured.
#[derive(Default)]
struct LoopOut {
    /// Submit and query call durations, from when each was sent.
    submit_ms: Vec<f64>,
    query_us: Vec<f64>,
    /// Freshness, from each write's due time.
    fresh_ms: Vec<f64>,
    /// How late the generator sent each request.
    late_ms: Vec<f64>,

    wall_s: f64,
    offered_per_s: f64,
    submits: u64,
    queries: u64,
    rejected: u64,
    failed_queries: u64,
    unobserved: usize,
    /// Accepted chunk indices per tenant, in order.
    accepted: Vec<Vec<usize>>,
}

/// Drive the schedule against `server` and wait until every accepted write
/// is visible. `next_chunk[t]` is the next chunk index of tenant `t`.
fn open_loop(
    server: &SvdServer,
    streams: &Streams,
    sched: &[(Duration, Op)],
    next_chunk: &mut [usize],
    rec: Option<&Recorder>,
) -> LoopOut {
    let mut out = LoopOut { accepted: vec![Vec::new(); TENANTS], ..LoopOut::default() };
    // Per tenant: (due, columns the model must have seen) of each write
    // not yet observed in a published model.
    let mut pending: Vec<VecDeque<(Instant, usize)>> = vec![VecDeque::new(); TENANTS];
    let mut seen_cols: Vec<usize> = next_chunk.iter().map(|c| c * CHUNK).collect();
    let names: Vec<String> = (0..TENANTS).map(name).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut last_seen = start;
    let mut probe = |pending: &mut Vec<VecDeque<(Instant, usize)>>, fresh: &mut Vec<f64>| {
        for (t, q) in pending.iter_mut().enumerate() {
            // A tenant inside a round cannot have published the write
            // yet, and reading an evicted one would wait for the round.
            if q.is_empty() || server.is_busy(&names[t]) {
                continue;
            }
            let seen = match rec {
                Some(r) => r.span("serve.probe", || server.model(&names[t])),
                None => server.model(&names[t]),
            }
            .map_or(0, |m| m.snapshots_seen);
            let now = Instant::now();
            while q.front().is_some_and(|&(_, cols)| cols <= seen) {
                let (due, _) = q.pop_front().expect("front exists");
                fresh.push(stats::open_loop_latency(due, now).as_secs_f64() * 1e3);
                last_seen = now;
            }
        }
    };

    let mut prepared: Option<Matrix> = None;
    let (mut first_sent, mut last_sent) = (None, start);
    for &(offset, op) in sched {
        if let (None, Op::Submit(t)) = (&prepared, op) {
            prepared = Some(streams.chunk(t, next_chunk[t]));
        }
        let due = start + offset;
        let mut last_probe: Option<Instant> = None;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > PROBE_STOP && last_probe.is_none_or(|p| now - p >= MIN_PROBE_GAP) {
                probe(&mut pending, &mut out.fresh_ms);
                last_probe = Some(now);
            }
            let left = due.saturating_duration_since(Instant::now());
            if left > SPIN_BEFORE {
                std::thread::sleep((left - SPIN_BEFORE).min(PROBE_EVERY));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = Instant::now();
        first_sent.get_or_insert(sent);
        last_sent = sent;
        out.late_ms.push(stats::lateness(due, sent).as_secs_f64() * 1e3);
        match op {
            Op::Submit(t) => {
                let chunk = prepared.take().expect("chunk prepared before its due time");
                let r = match rec {
                    Some(rec) => rec.span("serve.submit", || server.submit(&names[t], chunk)),
                    None => server.submit(&names[t], chunk),
                };
                let done = Instant::now();
                out.submits += 1;
                out.submit_ms.push((done - sent).as_secs_f64() * 1e3);
                match r {
                    Ok(()) => {
                        seen_cols[t] += CHUNK;
                        pending[t].push_back((due, seen_cols[t]));
                        out.accepted[t].push(next_chunk[t]);
                    }
                    Err(_) => out.rejected += 1,
                }
                next_chunk[t] += 1;
            }
            Op::Query(t) => {
                let r = match rec {
                    Some(rec) => rec.span("serve.query", || server.singular_values(&names[t])),
                    None => server.singular_values(&names[t]),
                };
                let done = Instant::now();
                out.queries += 1;
                out.query_us.push((done - sent).as_secs_f64() * 1e6);
                if std::hint::black_box(r).is_err() {
                    out.failed_queries += 1;
                }
            }
        }
    }
    server.drain();
    probe(&mut pending, &mut out.fresh_ms);
    out.unobserved = pending.iter().map(VecDeque::len).sum();
    out.wall_s = (last_seen.max(last_sent) - start).as_secs_f64();
    let span = (last_sent - first_sent.unwrap_or(start)).as_secs_f64();
    out.offered_per_s = if span > 0.0 { (out.submits - 1) as f64 / span } else { 0.0 };
    out
}

struct Setup {
    streams: Streams,
    server: SvdServer,
    setup_s: Vec<f64>,
}

fn setup(seed: u64, reps: usize) -> Setup {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let streams = Streams::new(seed);
        let server = open_fleet(&streams);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((streams, server)) {
            let old: SvdServer = old;
            old.shutdown();
        }
    }
    let (streams, server) = last.expect("at least one set-up");
    Setup { streams, server, setup_s }
}

/// Replay tenant `t`'s accepted stream through a serial driver and compare
/// its singular values with the served model.
fn replay_error(s: &Setup, t: usize, accepted: &[usize]) -> (f64, f64) {
    let served = s.server.model(&name(t)).expect("a warmed tenant has a model");
    let mut serial = SerialStreamingSvd::new(svd_config());
    let chunks = (0..WARM_CHUNKS).chain(accepted.iter().copied());
    for c in chunks {
        let m = s.streams.chunk(t, c);
        if serial.is_initialized() {
            serial.incorporate_data(&m);
        } else {
            serial.initialize(&m);
        }
    }
    let want = serial.singular_values();
    let err = if want.len() == served.singular_values.len() {
        want.iter().zip(&served.singular_values).map(|(w, g)| (w - g).abs() / w).fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    (err, orthogonality_error(&served.modes))
}

/// Correctness of a finished loop: every accepted snapshot processed and
/// observed, and two sampled tenants (one per rank count) agree with a
/// direct serial replay. Returns the larger replay error.
fn check(out: &mut Outcome, s: &Setup, lo: &LoopOut, seed: u64) -> f64 {
    let st = s.server.stats().snapshot();
    out.check(st.snapshots_accepted == st.snapshots_processed, || {
        format!("accepted {} != processed {}", st.snapshots_accepted, st.snapshots_processed)
    });
    out.check(lo.unobserved == 0, || {
        format!("{} accepted writes never became visible", lo.unobserved)
    });
    let mut rng = seeded_rng(seed ^ 0x7e57);
    let one = 1 + 4 * rng.gen_range(0..TENANTS / 4);
    let two = 4 * rng.gen_range(0..TENANTS / 4);
    let mut worst: f64 = 0.0;
    for t in [one, two] {
        let (err, ortho) = replay_error(s, t, &lo.accepted[t]);
        out.check(err <= SIGMA_TOL, || {
            format!("{}: sigma_rel_err {err:e} > {SIGMA_TOL:e}", name(t))
        });
        out.check(ortho <= ORTHO_TOL, || format!("{}: orthogonality {ortho:e}", name(t)));
        worst = worst.max(err);
    }
    worst
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
    let sched = schedule(args.seed, args.seconds);
    let mut next = vec![WARM_CHUNKS; TENANTS];
    let before = s.server.stats().snapshot();
    let lo = open_loop(&s.server, &s.streams, &sched, &mut next, None);
    let after = s.server.stats().snapshot();
    check(&mut out, &s, &lo, args.seed);
    out.attempted = lo.submits + lo.queries;
    out.failed = lo.rejected + lo.failed_queries;
    out.note("setup_s", median(&s.setup_s), format!("median of {SETUP_REPS} set-ups"));
    out.note("wall_s", lo.wall_s, "first due time to last write visible".into());
    let processed = (after.snapshots_processed - before.snapshots_processed) as f64;
    out.set("snapshots_per_s", processed / lo.wall_s);
    out.pair("update_p50_ms", "update_tail_ms", &lo.submit_ms);
    out.pair("freshness_p50_ms", "freshness_tail_ms", &lo.fresh_ms);
    out.pair("query_p50_us", "query_tail_us", &lo.query_us);
    out.set("peak_rss_mb", peak_rss_mb());
    s.server.shutdown();
    out
}

/// Median wall time (ms) of `f` over `n` calls.
fn time_ms<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Replay `REPLAY_ROUNDS` rounds of `batches` batches for a tenant of each
/// rank count through the public `SessionState` API, timing the round,
/// the eviction spill, the rehydration and the model publication.
fn replay_session_layer(out: &mut Outcome, streams: &Streams, batches: usize) {
    let mut spill_ms = Vec::new();
    let mut rehydrate_ms = Vec::new();
    let mut publish_ms = Vec::new();
    for (t, metric) in [(1, "serve.round_ms_1rank"), (0, "serve.round_ms_2rank")] {
        let mut state = SessionState::new(spec(t));
        let mut c = 0;
        let mut round = |state: &mut SessionState| {
            let work = CoalescedBatches::from_batches(
                (0..batches).map(|i| streams.chunk(t, c + i)).collect(),
            );
            c += batches;
            let t0 = Instant::now();
            state.update(&work);
            t0.elapsed().as_secs_f64() * 1e3
        };
        round(&mut state);
        let rounds: Vec<f64> = (0..REPLAY_ROUNDS).map(|_| round(&mut state)).collect();
        out.note(metric, median(&rounds), format!("{batches} batches per round"));
        spill_ms.push(time_ms(REPLAY_ROUNDS, || state.to_bytes()));
        let blob = state.to_bytes();
        rehydrate_ms.push(time_ms(REPLAY_ROUNDS, || {
            SessionState::from_bytes(spec(t), &blob).expect("own blob decodes")
        }));
        publish_ms.push(time_ms(REPLAY_ROUNDS, || state.model()));
    }
    out.note("serve.evict_ms", median(&spill_ms), "1- and 2-rank sessions".into());
    out.note("serve.rehydrate_ms", median(&rehydrate_ms), "1- and 2-rank sessions".into());
    out.note("serve.publish_ms", median(&publish_ms), "1- and 2-rank sessions".into());
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(args.seed, 1);
    let half = Duration::from_secs_f64((args.seconds.as_secs_f64() / 2.0).max(1.0));
    let mut next = vec![WARM_CHUNKS; TENANTS];
    let untraced = open_loop(&s.server, &s.streams, &schedule(args.seed, half), &mut next, None);

    let rec = Recorder::new(Instant::now(), 0);
    let before = s.server.stats().snapshot();
    let mut lo =
        open_loop(&s.server, &s.streams, &schedule(args.seed ^ 1, half), &mut next, Some(&rec));
    let after = s.server.stats().snapshot();
    for (t, acc) in untraced.accepted.iter().enumerate() {
        let mut all = acc.clone();
        all.append(&mut lo.accepted[t]);
        lo.accepted[t] = all;
    }
    let err = check(&mut out, &s, &lo, args.seed);
    out.attempted = untraced.submits + untraced.queries + lo.submits + lo.queries;
    out.failed = untraced.rejected + untraced.failed_queries + lo.rejected + lo.failed_queries;
    if let Err(e) = trace::write_spans(
        &std::path::Path::new(crate::TRACE_DIR)
            .join(format!("serve-fleet-seed{}.jsonl", args.seed)),
        &rec.into_spans(),
    ) {
        out.check(false, || format!("writing the trace: {e}"));
    }

    let d = |a: u64, b: u64| (a - b) as f64;
    let rounds = d(after.rounds, before.rounds);
    let per_round = d(after.snapshots_processed, before.snapshots_processed) / rounds;
    out.set("serve.submit_us", median(&lo.submit_ms) * 1e3);
    out.set("serve.rounds", rounds);
    out.set("serve.snapshots_per_round", per_round);
    out.set("serve.evictions", d(after.evictions, before.evictions));
    out.set("serve.rehydrations", d(after.rehydrations, before.rehydrations));
    out.note(
        "serve.rehydrate_per_query",
        d(after.rehydrations, before.rehydrations) / d(after.queries, before.queries),
        "server-side queries, read-your-writes polls included".into(),
    );
    out.set("serve.evicted_bytes", d(after.evicted_bytes, before.evicted_bytes));
    out.set("serve.rejected", lo.rejected as f64);
    let batches = ((per_round / BATCH as f64).round() as usize).clamp(1, ROUND_BATCHES);
    replay_session_layer(&mut out, &s.streams, batches);
    out.set("loadgen.offered_per_s", lo.offered_per_s);
    let late = stats::tail(&lo.late_ms);
    out.note("loadgen.late_tail_ms", late.value, format!("p{} of n={}", late.level, late.count));
    out.set("sigma_rel_err", err);
    out.set("failed_frac", stats::failed_frac(out.attempted, out.failed));
    out.note(
        "trace.overhead_ms",
        (lo.wall_s - untraced.wall_s) * 1e3,
        format!("traced {:.3} s - untraced {:.3} s of schedule", lo.wall_s, untraced.wall_s),
    );
    s.server.shutdown();
    out
}

/// Closed-loop saturation probe: submit the workload's traffic mix as fast
/// as the server accepts it for `span` and report processed chunks per
/// second. The workload's `RATE` is set to a quarter of this.
pub fn saturation(seed: u64, span: Duration) -> f64 {
    let streams = Streams::new(seed);
    let server = open_fleet(&streams);
    let names: Vec<String> = (0..TENANTS).map(name).collect();
    let mut next = vec![WARM_CHUNKS; TENANTS];
    let mut rng = seeded_rng(seed);
    let before = server.stats().snapshot();
    let t0 = Instant::now();
    while t0.elapsed() < span {
        let t = rng.gen_range(0..TENANTS);
        let chunk = streams.chunk(t, next[t]);
        while server.submit(&names[t], chunk.clone()).is_err() {
            std::thread::sleep(Duration::from_micros(100));
        }
        next[t] += 1;
        let _ = server.singular_values(&names[rng.gen_range(0..TENANTS)]);
    }
    server.drain();
    let secs = t0.elapsed().as_secs_f64();
    let after = server.stats().snapshot();
    server.shutdown();
    (after.snapshots_processed - before.snapshots_processed) as f64 / CHUNK as f64 / secs
}
