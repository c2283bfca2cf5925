//! In-memory span recording and the two transparent decorators that take
//! spans around calls into the `comm` and `data` layers.
//!
//! Spans are kept per rank thread (no locking on the recording path) and
//! written out once the traced run ends. Nesting is tracked with a stack
//! of open spans, so a `comm.recv` taken while a `core.update` span is open
//! becomes that update's child.

use std::cell::{Cell, RefCell};
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use psvd_comm::{CommError, Communicator, Payload};
use psvd_data::stream::SnapshotSource;
use psvd_linalg::{Matrix, Scalar};

use crate::stats::Interval;

/// One recorded span. `replayed` marks a kernel timed by the benchmark's
/// replay of an update rather than inside the program's own call; its
/// `parent` is the update it stands for, not the span enclosing it in time.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub rank: usize,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub replayed: bool,
}

impl Span {
    pub fn interval(&self) -> Interval {
        Interval { start: self.start, end: self.end }
    }

    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-6
    }
}

/// A per-thread span recorder. Timestamps are nanoseconds since an epoch
/// shared by every rank of a run, so spans of different ranks line up.
pub struct Recorder {
    epoch: Instant,
    rank: usize,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(epoch: Instant, rank: usize) -> Self {
        Self { epoch, rank, spans: RefCell::new(Vec::new()), open: RefCell::new(Vec::new()) }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        let now = self.ns(Instant::now());
        spans.push(Span {
            id,
            rank: self.rank,
            name,
            start: now,
            end: now,
            parent,
            replayed: false,
        });
        self.open.borrow_mut().push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&self, id: usize) {
        let now = self.ns(Instant::now());
        let top = self.open.borrow_mut().pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id].end = now;
    }

    /// Time `f` as a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Record a finished span with explicit times and parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        replayed: bool,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let (start, end) = (self.ns(start), self.ns(end));
        spans.push(Span { id, rank: self.rank, name, start, end, parent, replayed });
        id
    }

    /// Record a span over `[start, end]` after the fact and adopt every
    /// top-level span that lies inside it as a child (for an update whose
    /// bounds are only known from the calls around it).
    pub fn wrap(&self, name: &'static str, start: Instant, end: Instant) -> usize {
        let id = self.record(name, start, end, None, false);
        let (s, e) = (self.ns(start), self.ns(end));
        for span in self.spans.borrow_mut().iter_mut() {
            if span.id != id && span.parent.is_none() && span.start >= s && span.end <= e {
                span.parent = Some(id);
            }
        }
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "unclosed spans at the end of a traced run");
        self.spans.into_inner()
    }
}

/// Append one recorder's spans to `all`, renumbering ids (and parents) so
/// they stay unique across recorders.
pub fn append_spans(all: &mut Vec<Span>, spans: Vec<Span>) {
    let offset = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.id += offset;
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Write spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"rank\":{},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"replayed\":{}}}",
            s.rank, s.id, s.name, s.start, s.end, parent, s.replayed
        )?;
    }
    out.flush()
}

/// The spans called `name`.
pub fn spans_named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// Self time (ms) of every span called `name`, all from one recorder: the
/// span's duration minus what its recorded children cover, minus the
/// durations of the kernels replayed for it (those ran outside the span,
/// standing in for work done inside it). The replayed part is subtracted
/// as measured, so a self time within the replay's timing noise of zero
/// can read slightly negative rather than being clipped.
pub fn self_times_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut real: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    let mut replayed = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.replayed {
                replayed[p] += s.end - s.start;
            } else {
                real[p].push(s.interval());
            }
        }
    }
    spans_named(spans, name)
        .into_iter()
        .map(|s| {
            let own = crate::stats::self_time(s.interval(), &real[s.id]);
            (own as f64 - replayed[s.id] as f64) * 1e-6
        })
        .collect()
}

/// Share of the program's wall time (ms) that top-level layer spans
/// (`data.*`, `core.*`) account for.
pub fn coverage(spans: &[Span], program_ms: f64) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| {
            s.parent.is_none() && (s.name.starts_with("data.") || s.name.starts_with("core."))
        })
        .map(Span::ms)
        .sum();
    covered / program_ms
}

/// Per-rank traffic and time counted by [`TimedComm`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CommCounts {
    pub messages: u64,
    pub bytes: u64,
    pub recv_bytes: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

/// A transparent [`Communicator`] decorator: every point-to-point call is
/// forwarded to the wrapped communicator inside a span, and counted. The
/// collectives are left to the trait's default methods, which are built on
/// `try_send`/`try_recv`, so they run unchanged and are timed message by
/// message.
pub struct TimedComm<'a, C: Communicator> {
    inner: &'a C,
    rec: &'a Recorder,
    counts: Cell<CommCounts>,
}

impl<'a, C: Communicator> TimedComm<'a, C> {
    pub fn new(inner: &'a C, rec: &'a Recorder) -> Self {
        Self { inner, rec, counts: Cell::new(CommCounts::default()) }
    }

    pub fn counts(&self) -> CommCounts {
        self.counts.get()
    }

    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = self.rec.span(name, f);
        (r, t0.elapsed().as_nanos() as u64)
    }

    fn count_send(&self, bytes: usize, ns: u64) {
        let mut c = self.counts.get();
        c.messages += 1;
        c.bytes += bytes as u64;
        c.send_ns += ns;
        self.counts.set(c);
    }

    fn count_recv(&self, bytes: usize, ns: u64) {
        let mut c = self.counts.get();
        c.recv_bytes += bytes as u64;
        c.recv_ns += ns;
        self.counts.set(c);
    }
}

impl<C: Communicator> Communicator for TimedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send<T: Payload>(&self, value: T, dest: usize, tag: u64) {
        let bytes = value.byte_len();
        let ((), ns) = self.timed("comm.send", || self.inner.send(value, dest, tag));
        self.count_send(bytes, ns);
    }

    fn recv<T: Payload>(&self, source: usize, tag: u64) -> T {
        let (v, ns) = self.timed("comm.recv", || self.inner.recv::<T>(source, tag));
        self.count_recv(v.byte_len(), ns);
        v
    }

    fn next_collective_tag(&self) -> u64 {
        self.inner.next_collective_tag()
    }

    fn renumbered(&self, index: usize) -> bool {
        self.inner.renumbered(index)
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn advance(&self, secs: f64) {
        self.inner.advance(secs)
    }

    fn set_now(&self, t: f64) {
        self.inner.set_now(t)
    }

    fn record_payload_alloc(&self, bytes: usize) {
        self.inner.record_payload_alloc(bytes)
    }

    fn try_send<T: Payload>(&self, value: T, dest: usize, tag: u64) -> Result<(), CommError> {
        let bytes = value.byte_len();
        let (r, ns) = self.timed("comm.send", || self.inner.try_send(value, dest, tag));
        self.count_send(bytes, ns);
        r
    }

    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError> {
        let (r, ns) = self.timed("comm.recv", || self.inner.try_recv::<T>(source, tag));
        self.count_recv(r.as_ref().map_or(0, Payload::byte_len), ns);
        r
    }

    fn failed_ranks(&self) -> Vec<usize> {
        self.inner.failed_ranks()
    }
}

/// A transparent [`SnapshotSource`] decorator recording when each
/// `next_batch_into` call started and returned (the end-of-stream call
/// included), and, when a recorder is attached, a `data.next_batch` span
/// per call.
pub struct TimedSource<'r, S> {
    inner: S,
    rec: Option<&'r Recorder>,
    calls: Vec<(Instant, Instant)>,
}

impl<'r, S> TimedSource<'r, S> {
    pub fn new(inner: S, rec: Option<&'r Recorder>) -> Self {
        Self { inner, rec, calls: Vec::new() }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// `(start, return)` of every call so far.
    pub fn calls(&self) -> &[(Instant, Instant)] {
        &self.calls
    }
}

impl<T: Scalar, S: SnapshotSource<T>> SnapshotSource<T> for TimedSource<'_, S> {
    fn next_batch_into(&mut self, dst: &mut Matrix<T>) -> io::Result<bool> {
        let t0 = Instant::now();
        let r = match self.rec {
            Some(rec) => rec.span("data.next_batch", || self.inner.next_batch_into(dst)),
            None => self.inner.next_batch_into(dst),
        };
        self.calls.push((t0, Instant::now()));
        r
    }

    fn batches_hint(&self) -> Option<usize> {
        self.inner.batches_hint()
    }
}

/// Per-batch cadence from a source's call log: the time between
/// consecutive `next_batch_into` returns, i.e. one update plus the wait
/// for the next batch (one sample per delivered batch).
pub fn update_intervals_ms(calls: &[(Instant, Instant)]) -> Vec<f64> {
    calls.windows(2).map(|w| (w[1].1 - w[0].1).as_secs_f64() * 1e3).collect()
}

/// Per-batch freshness from a source's call log: from the batch being in
/// hand (its call returned) to the model including it (the driver asking
/// for the next batch, which it does right after the update).
pub fn freshness_ms(calls: &[(Instant, Instant)]) -> Vec<f64> {
    calls.windows(2).map(|w| w[1].0.saturating_duration_since(w[0].1).as_secs_f64() * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_comm::World;
    use psvd_data::stream::MatrixBatchSource;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let rec = Recorder::new(Instant::now(), 0);
        let outer = rec.begin("core.update");
        rec.span("comm.recv", || ());
        rec.end(outer);
        rec.span("data.next_batch", || ());
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.start <= s.end));
    }

    #[test]
    fn timed_comm_is_transparent_and_counts_traffic() {
        let world = World::new(2);
        let out = world.run(|comm| {
            let rec = Recorder::new(Instant::now(), comm.rank());
            let tc = TimedComm::new(comm, &rec);
            let v = tc.bcast(if tc.rank() == 0 { Some(vec![1.0f64, 2.0]) } else { None }, 0);
            let g = tc.gather(tc.rank() as f64, 0);
            (v, g, tc.counts())
        });
        assert_eq!(out[0].0, vec![1.0, 2.0]);
        assert_eq!(out[1].0, vec![1.0, 2.0]);
        assert_eq!(out[0].1, Some(vec![0.0, 1.0]));
        // Rank 0 sent the broadcast (16 bytes) and received one gather part.
        assert_eq!((out[0].2.messages, out[0].2.bytes, out[0].2.recv_bytes), (1, 16, 8));
        assert_eq!((out[1].2.messages, out[1].2.bytes, out[1].2.recv_bytes), (1, 8, 16));
    }

    #[test]
    fn timed_source_logs_every_call_including_the_last() {
        let a = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let mut src = TimedSource::new(MatrixBatchSource::new(&a, 2), None);
        let mut dst = Matrix::zeros(0, 0);
        let mut batches = 0;
        while src.next_batch_into(&mut dst).unwrap() {
            batches += 1;
        }
        assert_eq!(batches, 3);
        assert_eq!(src.calls().len(), 4);
        assert_eq!(update_intervals_ms(src.calls()).len(), 3);
        assert_eq!(freshness_ms(src.calls()).len(), 3);
    }
}
