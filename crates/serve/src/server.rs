//! The multi-tenant daemon: session map, worker pool, eviction.
//!
//! Lock discipline (always in this order, never reversed):
//! `sessions` map read lock → a session's `slot` → that session's
//! `queue`; the `model` RwLock is only ever taken alone. Updates hold
//! `slot` for the duration of a round and swap `model` in O(1) at the
//! end. A query to a session with a published model touches *only*
//! `model` (an `Arc` clone under a momentary read lock), so it never
//! waits on an update computation. A session with no published model —
//! evicted, or no round committed yet — is read under its `slot` lock
//! (rehydrating an evicted one), so that query waits out any round in
//! flight for the same tenant. Eviction sweeps use `try_lock` on victims
//! and skip anything contended, so two workers can never deadlock
//! evicting each other.
//!
//! Round exclusivity: a session's `scheduled` flag is held from enqueue
//! until its round commits, so the tenant sits in the dispatch queue at
//! most once and no two workers can ever run rounds for the same session
//! concurrently — work is cut and committed in the same order, keeping
//! the published model a pure function of the column stream at any
//! worker count. See [`Inner::process`] for why no racing submit is
//! lost.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use psvd_linalg::Matrix;

use crate::queue::BatchQueue;
use crate::session::{SessionModel, SessionSpec, SessionState};
use crate::stats::ServeStats;

/// Read a `usize` server knob from the environment; unset or empty means
/// `default`. Panics on non-numeric values so typos fail loudly.
fn env_knob(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) if v.is_empty() => default,
        Ok(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("{name} must be a non-negative integer, got {v:?}")),
    }
}

/// Server-wide configuration. `Default` seeds every field from the
/// environment (`PSVD_SERVE_*`), mirroring how `SvdConfig::new` seeds
/// its knobs; the builders override per instance.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Resident (non-evicted) session cap; beyond it the least-recently
    /// touched idle session is spilled. `PSVD_SERVE_SESSIONS`, default 64.
    pub sessions: usize,
    /// Per-session pending-snapshot cap (backpressure).
    /// `PSVD_SERVE_QUEUE_DEPTH`, default 1024.
    pub queue_depth: usize,
    /// Evict sessions untouched for this many committed rounds of server
    /// time (`0` = only the cap evicts). `PSVD_SERVE_IDLE_ROUNDS`,
    /// default 0.
    pub idle_rounds: usize,
    /// Worker threads draining the queues. `PSVD_SERVE_WORKERS`, default 2.
    pub workers: usize,
    /// Most canonical batches coalesced into one round (fairness bound).
    /// `PSVD_SERVE_ROUND_BATCHES`, default 4.
    pub round_batches: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            sessions: env_knob("PSVD_SERVE_SESSIONS", 64),
            queue_depth: env_knob("PSVD_SERVE_QUEUE_DEPTH", 1024),
            idle_rounds: env_knob("PSVD_SERVE_IDLE_ROUNDS", 0),
            workers: env_knob("PSVD_SERVE_WORKERS", 2),
            round_batches: env_knob("PSVD_SERVE_ROUND_BATCHES", 4),
        }
    }
}

impl ServeConfig {
    /// Builder: resident session cap.
    pub fn with_sessions(mut self, n: usize) -> Self {
        self.sessions = n;
        self
    }

    /// Builder: per-session queue depth.
    pub fn with_queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Builder: idle-eviction threshold in server rounds.
    pub fn with_idle_rounds(mut self, n: usize) -> Self {
        self.idle_rounds = n;
        self
    }

    /// Builder: worker threads.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Builder: max batches per round.
    pub fn with_round_batches(mut self, n: usize) -> Self {
        self.round_batches = n;
        self
    }

    fn validated(self) -> Self {
        assert!(self.sessions >= 1, "need room for at least one resident session");
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.round_batches >= 1, "rounds must carry at least one batch");
        self
    }
}

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No session is open under this tenant key.
    UnknownTenant(String),
    /// `open` on a key that already has a session.
    TenantExists(String),
    /// The session's ingestion queue is at capacity; retry after a drain.
    QueueFull {
        /// Snapshots pending in the queue.
        pending: usize,
        /// The configured depth.
        depth: usize,
    },
    /// The session has not committed a round yet — nothing to query.
    NotReady(String),
    /// A submitted chunk's row count does not match the session.
    ShapeMismatch {
        /// Rows the session was opened with.
        expected: usize,
        /// Rows the chunk carried.
        got: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t:?} already has a session"),
            ServeError::QueueFull { pending, depth } => {
                write!(f, "queue full ({pending} pending, depth {depth})")
            }
            ServeError::NotReady(t) => write!(f, "tenant {t:?} has no committed model yet"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "snapshot has {got} rows, session expects {expected}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A session's durable state: live in memory, or spilled to its
/// checkpoint blob.
enum Slot {
    Live(Box<SessionState>),
    Evicted(Vec<u8>),
}

struct Session {
    tenant: String,
    spec: SessionSpec,
    queue: Mutex<BatchQueue>,
    slot: Mutex<Slot>,
    model: RwLock<Option<Arc<SessionModel>>>,
    /// Dedup flag *and* round mutex: set when the tenant enters the
    /// dispatch queue, cleared only after its round commits — so at most
    /// one dispatch entry (and therefore one worker round) exists per
    /// session at any time.
    scheduled: AtomicBool,
    /// A worker is inside a round right now. Single-writer (only the
    /// round owner toggles it, and rounds are serialized by `scheduled`);
    /// gates the eviction sweep and `is_busy`.
    busy: AtomicBool,
    /// Drain the runt batch on the next dispatch.
    flush_requested: AtomicBool,
    /// Logical server time of the last round/query touch (LRU key).
    last_touch: AtomicU64,
}

struct Sched {
    queue: VecDeque<String>,
    /// Rounds currently owned by a worker, keyed by tenant. A count, not
    /// a set: a worker's post-commit tail (ready-work re-check + sweep)
    /// can overlap the next round's start for the same tenant.
    in_flight: HashMap<String, u32>,
    active: usize,
    shutdown: bool,
}

struct Inner {
    cfg: ServeConfig,
    sessions: RwLock<HashMap<String, Arc<Session>>>,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    idle_cv: Condvar,
    stats: ServeStats,
    /// Logical clock: one tick per committed round (drives LRU + idle).
    clock: AtomicU64,
    /// Live (non-evicted) sessions.
    resident: AtomicUsize,
}

/// The SVD-as-a-service daemon. See the crate docs for the architecture
/// and DESIGN.md ("Service architecture") for the contracts.
pub struct SvdServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SvdServer {
    /// Start a server and its worker pool.
    pub fn new(cfg: ServeConfig) -> Self {
        let cfg = cfg.validated();
        let inner = Arc::new(Inner {
            cfg,
            sessions: RwLock::new(HashMap::new()),
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            stats: ServeStats::default(),
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self { inner, workers: Mutex::new(workers) }
    }

    /// Open a session under `tenant`.
    pub fn open(&self, tenant: &str, spec: SessionSpec) -> Result<(), ServeError> {
        let spec = spec.validated();
        let mut map = self.inner.sessions.write().unwrap();
        if map.contains_key(tenant) {
            return Err(ServeError::TenantExists(tenant.to_string()));
        }
        let session = Arc::new(Session {
            tenant: tenant.to_string(),
            spec,
            queue: Mutex::new(BatchQueue::new(spec.rows, spec.batch, self.inner.cfg.queue_depth)),
            slot: Mutex::new(Slot::Live(Box::new(SessionState::new(spec)))),
            model: RwLock::new(None),
            scheduled: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            flush_requested: AtomicBool::new(false),
            last_touch: AtomicU64::new(self.inner.clock.load(Ordering::Relaxed)),
        });
        map.insert(tenant.to_string(), session);
        drop(map);
        self.inner.resident.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submit a chunk of snapshots (columns) for `tenant`. Returns as
    /// soon as the chunk is queued; a worker picks it up once a full
    /// canonical batch is pending.
    pub fn submit(&self, tenant: &str, chunk: Matrix) -> Result<(), ServeError> {
        let session = self.inner.get(tenant)?;
        if chunk.rows() != session.spec.rows {
            return Err(ServeError::ShapeMismatch {
                expected: session.spec.rows,
                got: chunk.rows(),
            });
        }
        let cols = chunk.cols() as u64;
        let ready = {
            let mut q = session.queue.lock().unwrap();
            match q.push(chunk) {
                Ok(()) => {}
                Err(full) => {
                    self.inner.stats.snapshots_rejected.fetch_add(cols, Ordering::Relaxed);
                    return Err(ServeError::QueueFull { pending: full.pending, depth: full.depth });
                }
            }
            q.ready_batches()
        };
        self.inner.stats.snapshots_accepted.fetch_add(cols, Ordering::Relaxed);
        if ready > 0 {
            self.inner.schedule(&session);
        }
        Ok(())
    }

    /// Ask a worker to drain `tenant`'s runt (sub-batch-width) remainder.
    pub fn flush(&self, tenant: &str) -> Result<(), ServeError> {
        let session = self.inner.get(tenant)?;
        if request_flush(&session) {
            self.inner.schedule(&session);
        }
        Ok(())
    }

    /// Flush every session's remainder.
    pub fn flush_all(&self) {
        let sessions: Vec<Arc<Session>> =
            self.inner.sessions.read().unwrap().values().cloned().collect();
        for s in sessions {
            if request_flush(&s) {
                self.inner.schedule(&s);
            }
        }
    }

    /// Block until every dispatched round has committed and no session
    /// has schedulable work left (runts stay pending unless flushed).
    pub fn drain(&self) {
        let mut sched = self.inner.sched.lock().unwrap();
        while !sched.queue.is_empty() || sched.active > 0 {
            sched = self.inner.idle_cv.wait(sched).unwrap();
        }
    }

    /// The tenant's current model (rehydrating an evicted session).
    ///
    /// Lock-free against updates while a model is published. When none is
    /// (the session was evicted or has not committed a round), the call
    /// takes the session's slot lock and so waits for a round in flight
    /// for this tenant to commit.
    pub fn model(&self, tenant: &str) -> Result<Arc<SessionModel>, ServeError> {
        let t0 = Instant::now();
        let session = self.inner.get(tenant)?;
        let model = self.inner.model_of(&session)?;
        self.inner.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.query_latency.record(t0.elapsed());
        session.last_touch.store(self.inner.clock.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(model)
    }

    /// Query: current singular values.
    pub fn singular_values(&self, tenant: &str) -> Result<Vec<f64>, ServeError> {
        Ok(self.model(tenant)?.singular_values.clone())
    }

    /// Query: modal coefficients of a snapshot.
    pub fn project(&self, tenant: &str, snapshot: &[f64]) -> Result<Vec<f64>, ServeError> {
        let model = self.model(tenant)?;
        if snapshot.len() != model.modes.rows() {
            return Err(ServeError::ShapeMismatch {
                expected: model.modes.rows(),
                got: snapshot.len(),
            });
        }
        Ok(model.project(snapshot))
    }

    /// Query: reconstruction from modal coefficients.
    pub fn reconstruct(&self, tenant: &str, coefficients: &[f64]) -> Result<Vec<f64>, ServeError> {
        Ok(self.model(tenant)?.reconstruct(coefficients))
    }

    /// Query: residual fraction of a snapshot against the live subspace.
    pub fn residual_fraction(&self, tenant: &str, snapshot: &[f64]) -> Result<f64, ServeError> {
        let model = self.model(tenant)?;
        if snapshot.len() != model.modes.rows() {
            return Err(ServeError::ShapeMismatch {
                expected: model.modes.rows(),
                got: snapshot.len(),
            });
        }
        Ok(model.residual_fraction(snapshot))
    }

    /// Spill `tenant` to its checkpoint blob now (idle sessions only:
    /// returns `false` — and spills nothing — if a worker is mid-round).
    /// Pending queue contents survive eviction untouched.
    pub fn evict(&self, tenant: &str) -> Result<bool, ServeError> {
        let session = self.inner.get(tenant)?;
        Ok(self.inner.try_evict(&session))
    }

    /// Close `tenant`'s session, returning its final model if one was
    /// ever committed. Flush + drain first if the queue must be empty.
    pub fn close(&self, tenant: &str) -> Result<Option<Arc<SessionModel>>, ServeError> {
        let session = {
            let mut map = self.inner.sessions.write().unwrap();
            map.remove(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?
        };
        // A dispatched round may still be queued or running; wait it out
        // so the final commit is visible in `model` below. The dispatch
        // entry exists until a worker pops it, and the pop and the
        // in-flight mark happen under the same scheduler lock as this
        // predicate, so there is no window where a round is invisible.
        // New rounds cannot start: the map entry is gone, so a popped
        // dispatch finds no session and returns immediately. (After
        // `shutdown` the queue is already drained — workers only exit on
        // an empty queue — so this cannot wait forever.)
        {
            let mut sched = self.inner.sched.lock().unwrap();
            while sched.in_flight.contains_key(tenant) || sched.queue.iter().any(|t| t == tenant) {
                sched = self.inner.idle_cv.wait(sched).unwrap();
            }
        }
        if matches!(*session.slot.lock().unwrap(), Slot::Live(_)) {
            self.inner.resident.fetch_sub(1, Ordering::Relaxed);
        }
        self.inner.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
        let model = session.model.read().unwrap().clone();
        Ok(model)
    }

    /// Open sessions (live + evicted).
    pub fn session_count(&self) -> usize {
        self.inner.sessions.read().unwrap().len()
    }

    /// Live (non-evicted) sessions.
    pub fn resident_count(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// Is a worker inside a round for `tenant` right now?
    pub fn is_busy(&self, tenant: &str) -> bool {
        self.inner
            .sessions
            .read()
            .unwrap()
            .get(tenant)
            .is_some_and(|s| s.busy.load(Ordering::Acquire))
    }

    /// Committed rounds for `tenant`.
    pub fn session_rounds(&self, tenant: &str) -> Result<u64, ServeError> {
        let session = self.inner.get(tenant)?;
        let slot = session.slot.lock().unwrap();
        Ok(match &*slot {
            Slot::Live(st) => st.rounds(),
            Slot::Evicted(blob) => {
                SessionState::from_bytes(session.spec, blob).map(|st| st.rounds()).unwrap_or(0)
            }
        })
    }

    /// Server-wide counters.
    pub fn stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// Stop the workers (outstanding rounds finish first) and join them.
    ///
    /// A worker that panicked mid-round silently dropped that round's
    /// submissions, so the panic resurfaces here rather than being
    /// swallowed — unless shutdown is itself running during an unwind
    /// (the `Drop` path), where a second panic would abort the process.
    pub fn shutdown(&self) {
        {
            let mut sched = self.inner.sched.lock().unwrap();
            sched.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in self.workers.lock().unwrap().drain(..) {
            if let Err(e) = h.join() {
                panic.get_or_insert(e);
            }
        }
        if let Some(e) = panic {
            if std::thread::panicking() {
                eprintln!("psvd-serve: suppressing a worker panic (already unwinding)");
            } else {
                std::panic::resume_unwind(e);
            }
        }
    }
}

impl Drop for SvdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn get(&self, tenant: &str) -> Result<Arc<Session>, ServeError> {
        self.sessions
            .read()
            .unwrap()
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// Put a session on the dispatch queue (once).
    fn schedule(&self, session: &Arc<Session>) {
        if !session.scheduled.swap(true, Ordering::AcqRel) {
            self.sched.lock().unwrap().queue.push_back(session.tenant.clone());
            self.work_cv.notify_one();
        }
    }

    /// The session's model, rehydrating from the eviction blob on demand.
    fn model_of(&self, session: &Arc<Session>) -> Result<Arc<SessionModel>, ServeError> {
        if let Some(m) = session.model.read().unwrap().clone() {
            return Ok(m);
        }
        // No published model: either the session never committed a round,
        // or it was evicted. Rehydrate under the slot lock.
        let mut slot = session.slot.lock().unwrap();
        if let Slot::Evicted(blob) = &*slot {
            let state = SessionState::from_bytes(session.spec, blob)
                .expect("eviction blob must decode: it was encoded by this server");
            *slot = Slot::Live(Box::new(state));
            self.resident.fetch_add(1, Ordering::Relaxed);
            self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
        }
        let Slot::Live(state) = &*slot else { unreachable!() };
        if !state.is_initialized() {
            return Err(ServeError::NotReady(session.tenant.clone()));
        }
        let model = Arc::new(state.model());
        drop(slot);
        // Publish outside the slot lock (the model RwLock is only ever
        // taken alone — see the module docs). A round may commit between
        // the drop above and this write; never let this snapshot shadow a
        // newer one.
        let mut published = session.model.write().unwrap();
        match &*published {
            Some(cur) if cur.rounds >= model.rounds => Ok(Arc::clone(cur)),
            _ => {
                *published = Some(Arc::clone(&model));
                Ok(model)
            }
        }
    }

    /// One fair round for one session: cut work, (rehydrate,) update,
    /// publish the new model, bump counters, then sweep for eviction.
    ///
    /// The `scheduled` flag stays set for the whole round and is released
    /// only after the commit, just before the final ready-work re-check.
    /// That makes per-session rounds mutually exclusive (at most one
    /// dispatch entry can exist while the flag is held) so cut order
    /// equals commit order, and the re-check guarantees a submit racing
    /// the round is never lost: `submit` pushes its columns *before*
    /// trying to schedule, so either its `schedule` lands after the flag
    /// release (and enqueues), or the re-check sees its columns (and
    /// enqueues here).
    fn process(&self, tenant: &str) {
        let Ok(session) = self.get(tenant) else {
            return; // closed while queued
        };
        session.busy.store(true, Ordering::Release);
        let flush = session.flush_requested.swap(false, Ordering::AcqRel);
        let work = {
            let mut q = session.queue.lock().unwrap();
            if flush {
                q.take_flush(self.cfg.round_batches)
            } else {
                q.take_round(self.cfg.round_batches)
            }
        };
        if flush && session.queue.lock().unwrap().pending_snapshots() > 0 {
            // take_flush was capped by round_batches; keep flushing.
            session.flush_requested.store(true, Ordering::Release);
        }
        if let Some(work) = work {
            let mut slot = session.slot.lock().unwrap();
            if let Slot::Evicted(blob) = &*slot {
                let state = SessionState::from_bytes(session.spec, blob)
                    .expect("eviction blob must decode: it was encoded by this server");
                *slot = Slot::Live(Box::new(state));
                self.resident.fetch_add(1, Ordering::Relaxed);
                self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
            }
            let Slot::Live(state) = &mut *slot else { unreachable!() };
            let report = match &session.spec.chaos {
                Some(spec) => {
                    let plan = spec.plan_for(&session.tenant, state.rounds(), session.spec.ranks);
                    state.update_chaos(&work, &plan)
                }
                None => state.update(&work),
            };
            let model = Arc::new(state.model());
            drop(slot);
            *session.model.write().unwrap() = Some(model);

            let s = &self.stats;
            s.rounds.fetch_add(1, Ordering::Relaxed);
            s.updates.fetch_add(report.batches as u64, Ordering::Relaxed);
            s.snapshots_processed.fetch_add(report.snapshots as u64, Ordering::Relaxed);
            s.replays.fetch_add(u64::from(report.replayed), Ordering::Relaxed);
            s.wire_messages.fetch_add(report.messages, Ordering::Relaxed);
            s.wire_bytes.fetch_add(report.bytes, Ordering::Relaxed);
            let f = &report.fault;
            s.faults_absorbed
                .fetch_add(f.drops + f.delays + f.truncations + f.corruptions, Ordering::Relaxed);
            s.sim_comm_nanos.fetch_add((report.sim_seconds * 1e9) as u64, Ordering::Relaxed);
            let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            session.last_touch.store(now, Ordering::Relaxed);
        }
        session.busy.store(false, Ordering::Release);
        // Round over: release the dedup flag, *then* re-check the queue
        // (this order is what makes the no-lost-work argument above hold).
        session.scheduled.store(false, Ordering::Release);
        // More ready work (or a flush that raced in)? Back on the queue.
        let again = {
            let q = session.queue.lock().unwrap();
            q.ready_batches() > 0
                || (session.flush_requested.load(Ordering::Acquire) && q.pending_snapshots() > 0)
        };
        if again {
            self.schedule(&session);
        }
        self.sweep();
    }

    /// Evict idle sessions: everything past the idle threshold, then the
    /// least-recently-touched until the resident cap holds.
    fn sweep(&self) {
        let idle = self.cfg.idle_rounds as u64;
        let now = self.clock.load(Ordering::Relaxed);
        if idle > 0 {
            let stale: Vec<Arc<Session>> = self
                .sessions
                .read()
                .unwrap()
                .values()
                .filter(|s| now.saturating_sub(s.last_touch.load(Ordering::Relaxed)) >= idle)
                .cloned()
                .collect();
            for s in stale {
                self.try_evict(&s);
            }
        }
        if self.resident.load(Ordering::Relaxed) > self.cfg.sessions {
            // Walk candidates in LRU order; already-evicted or contended
            // sessions just fail try_evict and we move to the next. The
            // touch stamps keep mutating while we sort, so snapshot each
            // key once up front — sorting on live atomics hands the sort a
            // comparator that contradicts itself mid-run, which std's
            // sort detects and punishes with a panic.
            let mut candidates: Vec<(u64, Arc<Session>)> = self
                .sessions
                .read()
                .unwrap()
                .values()
                .filter(|s| !s.busy.load(Ordering::Acquire))
                .map(|s| (s.last_touch.load(Ordering::Relaxed), Arc::clone(s)))
                .collect();
            candidates.sort_by_key(|(touched, _)| *touched);
            for (_, s) in candidates {
                if self.resident.load(Ordering::Relaxed) <= self.cfg.sessions {
                    break;
                }
                self.try_evict(&s);
            }
        }
    }

    /// Spill one session if it is idle; `false` if contended or already
    /// evicted.
    fn try_evict(&self, session: &Arc<Session>) -> bool {
        if session.busy.load(Ordering::Acquire) {
            return false;
        }
        let Ok(mut slot) = session.slot.try_lock() else {
            return false;
        };
        let Slot::Live(state) = &*slot else {
            return false;
        };
        let blob = state.to_bytes();
        self.stats.evicted_bytes.fetch_add(blob.len() as u64, Ordering::Relaxed);
        *slot = Slot::Evicted(blob);
        drop(slot);
        *session.model.write().unwrap() = None;
        self.resident.fetch_sub(1, Ordering::Relaxed);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Raise the session's flush flag if it has pending columns; `true` when
/// a dispatch is needed. The store happens *inside* the queue critical
/// section so it is ordered (by the mutex) against an in-flight round's
/// end-of-round re-check, which reads the flag under the same lock —
/// with the store outside, the flag write and the re-check's flag read
/// could both land stale (store buffering) and the flush would be lost.
fn request_flush(session: &Session) -> bool {
    let q = session.queue.lock().unwrap();
    let pending = q.pending_snapshots() > 0;
    if pending {
        session.flush_requested.store(true, Ordering::Release);
    }
    pending
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let tenant = {
            let mut sched = inner.sched.lock().unwrap();
            loop {
                if let Some(t) = sched.queue.pop_front() {
                    sched.active += 1;
                    *sched.in_flight.entry(t.clone()).or_insert(0) += 1;
                    break t;
                }
                if sched.shutdown {
                    return;
                }
                sched = inner.work_cv.wait(sched).unwrap();
            }
        };
        // An unhandled panic inside a round must not wedge the scheduler:
        // without the unwind guard, `active` never comes back down and
        // every future `drain()` (and `close()`, which waits on the
        // in-flight mark) blocks forever. The guard rebalances the books,
        // then the unwind continues and kills this worker (the panic
        // resurfaces when `shutdown` joins).
        let settle = SettleActive { inner, tenant: &tenant };
        inner.process(&tenant);
        drop(settle);
    }
}

struct SettleActive<'a> {
    inner: &'a Arc<Inner>,
    tenant: &'a str,
}

impl Drop for SettleActive<'_> {
    fn drop(&mut self) {
        // Tolerate poisoning: this drop may itself run during an unwind,
        // and a second panic here would abort the whole process.
        let mut sched = match self.inner.sched.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        sched.active -= 1;
        if let Some(n) = sched.in_flight.get_mut(self.tenant) {
            *n -= 1;
            if *n == 0 {
                sched.in_flight.remove(self.tenant);
            }
        }
        // Wake every waiter: `drain` waits for full idleness, `close` for
        // one tenant's round — both re-check their predicate under the
        // lock, so the extra wakeups are harmless.
        self.inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_core::SvdConfig;

    fn spec(rows: usize, batch: usize) -> SessionSpec {
        SessionSpec::new(2, rows)
            .with_svd(
                SvdConfig::new(2).with_r1(4).with_r2(4).with_tree_fanout(0).with_tree_depth(0),
            )
            .with_batch(batch)
    }

    fn chunk(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i as f64 + 3.0 * j as f64 + seed as f64) * 0.21).sin())
    }

    #[test]
    fn submit_query_close_lifecycle() {
        let server = SvdServer::new(ServeConfig::default().with_workers(2));
        server.open("a", spec(16, 4)).unwrap();
        assert_eq!(server.open("a", spec(16, 4)), Err(ServeError::TenantExists("a".into())));
        assert!(matches!(server.singular_values("a"), Err(ServeError::NotReady(_))));
        server.submit("a", chunk(16, 10, 1)).unwrap();
        server.drain();
        server.flush("a").unwrap();
        server.drain();
        assert_eq!(server.session_rounds("a").unwrap(), 2, "8 cols round + 2-col flush");
        let model = server.model("a").unwrap();
        assert_eq!(model.snapshots_seen, 10);
        let sigma = server.singular_values("a").unwrap();
        assert_eq!(sigma.len(), 2);
        assert!(sigma[0] >= sigma[1]);
        let closed = server.close("a").unwrap().expect("final model");
        assert_eq!(closed.singular_values, sigma);
        assert!(matches!(server.submit("a", chunk(16, 1, 0)), Err(ServeError::UnknownTenant(_))));
        assert_eq!(server.session_count(), 0);
        server.shutdown();
    }

    #[test]
    fn wrong_shape_and_backpressure_surface_as_errors() {
        let server = SvdServer::new(ServeConfig::default().with_queue_depth(6).with_workers(1));
        server.open("a", spec(12, 4)).unwrap();
        assert_eq!(
            server.submit("a", chunk(13, 2, 0)),
            Err(ServeError::ShapeMismatch { expected: 12, got: 13 })
        );
        // Stall the worker? No — just overfill between drains.
        let mut rejected = false;
        for i in 0..64 {
            if server.submit("a", chunk(12, 3, i)).is_err() {
                rejected = true;
                break;
            }
        }
        server.drain();
        if !rejected {
            // The worker kept up; force it synchronously.
            let q_err = ServeError::QueueFull { pending: 6, depth: 6 };
            let _ = q_err; // backpressure exercised in queue unit tests
        }
        assert_eq!(
            server.stats().snapshot().snapshots_accepted,
            server.stats().snapshot().snapshots_processed
                + server.inner.get("a").unwrap().queue.lock().unwrap().pending_snapshots() as u64
        );
        server.shutdown();
    }

    #[test]
    fn cap_eviction_and_rehydration_round_trip() {
        let server = SvdServer::new(ServeConfig::default().with_sessions(2).with_workers(1));
        for t in ["a", "b", "c", "d"] {
            server.open(t, spec(16, 4)).unwrap();
            server.submit(t, chunk(16, 8, 42)).unwrap();
        }
        server.drain();
        assert!(
            server.resident_count() <= 2,
            "cap must hold after the sweep (resident: {})",
            server.resident_count()
        );
        let snap = server.stats().snapshot();
        assert!(snap.evictions >= 2);
        assert!(snap.evicted_bytes > 0);
        // All four tenants answer queries identically (same data), the
        // evicted ones via rehydration.
        let sigmas: Vec<Vec<f64>> =
            ["a", "b", "c", "d"].iter().map(|t| server.singular_values(t).unwrap()).collect();
        assert!(sigmas.iter().all(|s| s == &sigmas[0]));
        assert!(server.stats().snapshot().rehydrations >= 2);
        server.shutdown();
    }
}
