//! Summary statistics shared by every workload: medians, the tail rule,
//! open-loop latency accounting, span self time and the failure ratio.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Percentile levels the tail rule may report, in per mille, highest
/// first. The ladder is coarse on purpose: a run-to-run wobble in the
/// sample count must not flip the reported level.
const TAIL_LEVELS: [usize; 5] = [999, 990, 950, 900, 500];

/// A tail summary: the value at `level` (nearest-rank), the number of
/// samples strictly beyond that rank, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub level: f64,
    pub value: f64,
    pub beyond: usize,
    pub count: usize,
}

/// The highest percentile of [`TAIL_LEVELS`] that leaves at least ten
/// samples beyond it. With too few samples for any level (fewer than 20)
/// the maximum is reported, with `level = 100` and `beyond = 0`.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for level in TAIL_LEVELS {
        // Nearest rank: the smallest rank r with r >= level‰ of n.
        let rank = (level * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            let level = level as f64 / 10.0;
            return Tail { level, value: v[rank - 1], beyond: n - rank, count: n };
        }
    }
    Tail { level: 100.0, value: v.last().copied().unwrap_or(0.0), beyond: 0, count: n }
}

/// Samples per window of [`windowed_tail`]: the tail rule then reports
/// p90 in each window.
pub const TAIL_WINDOW: usize = 100;

/// The reported tail: the samples, in the order they were taken, are cut
/// into windows of `window`, the tail rule is applied within each, and
/// the median window tail is returned with the [`Tail`] of that window
/// (its level and count). On a shared host the machine slows down or
/// stalls for a while now and then; such a burst moves the windows it
/// falls in, not the reported tail. A trailing partial window is dropped;
/// with fewer samples than one window the plain tail is returned.
pub fn windowed_tail(xs: &[f64], window: usize) -> (f64, Tail) {
    assert!(window >= 20, "a window needs room for ten samples beyond its tail");
    let mut tails: Vec<Tail> = xs.chunks_exact(window).map(tail).collect();
    if tails.is_empty() {
        let t = tail(xs);
        return (t.value, t);
    }
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    let mid = tails[tails.len() / 2];
    (median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()), mid)
}

/// Open-loop latency: a request is timed from when it was due, not from
/// when the generator got round to sending it, so a generator stall is
/// charged to every request it delayed.
pub fn open_loop_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (zero when it was on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// A closed time interval `[start, end]` in nanoseconds since some epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

/// Self time of a span: its duration minus the part of its interval that
/// its children cover. Children may overlap each other or stick out of
/// the parent; only the covered part of the parent counts, once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.end - parent.start) - covered
}

/// Failed or refused operations over operations attempted. Every
/// operation the workload issued counts in the denominator, including
/// the ones the program refused.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(attempted >= 1, "a run attempts at least one operation");
    assert!(failed <= attempted, "more failures ({failed}) than attempts ({attempted})");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 1..=1000: p99 has ranks 991..=1000 beyond it, exactly ten.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.level, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 1000);
        // One sample fewer and p99 would leave only nine: fall to p95.
        let t = tail(&xs[..999]);
        assert_eq!(t.level, 95.0);
        assert!(t.beyond >= 10);
        // p99.9 needs ten thousand samples.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.level, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.level, t.value, t.beyond, t.count), (100.0, 5.0, 0, 3));
        // Twenty samples: the median leaves ten beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).level, 50.0);
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Three windows of 100; the middle one holds a burst of stalls.
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.extend(std::iter::repeat_n(1000.0, 100));
        xs.extend((1..=100).map(|v| f64::from(v) + 10.0));
        xs.extend([5000.0; 40]); // a partial window, dropped
        let (value, t) = windowed_tail(&xs, 100);
        // Window tails (p90 of 100): 90, 1000 and 100; the median is 100.
        assert_eq!(value, 100.0);
        assert_eq!((t.level, t.count, t.beyond), (90.0, 100, 10));
        // Too few samples for one window: the plain tail.
        assert_eq!(windowed_tail(&xs[..50], 100).1.count, 50);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(1);
        // The request took 1 ms but was sent 5 ms late: 6 ms of latency.
        assert_eq!(open_loop_latency(due, done), Duration::from_millis(6));
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        // Sent early (never happens, but must not underflow).
        assert_eq!(lateness(sent, due), Duration::ZERO);
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_children() {
        let p = Interval { start: 100, end: 200 };
        assert_eq!(self_time(p, &[]), 100);
        // Two overlapping children cover 120..160 once: 40 covered.
        let kids = [Interval { start: 120, end: 150 }, Interval { start: 140, end: 160 }];
        assert_eq!(self_time(p, &kids), 60);
        // A child sticking out of the parent only counts inside it.
        let kids = [Interval { start: 50, end: 110 }, Interval { start: 190, end: 300 }];
        assert_eq!(self_time(p, &kids), 80);
        // Disjoint children add up.
        let kids = [Interval { start: 100, end: 110 }, Interval { start: 150, end: 200 }];
        assert_eq!(self_time(p, &kids), 40);
    }

    #[test]
    fn failed_frac_divides_by_everything_attempted() {
        // 90 submits (3 refused) and 10 queries (1 failed): 4 of 100.
        assert_eq!(failed_frac(100, 4), 0.04);
        assert_eq!(failed_frac(1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn failed_frac_rejects_an_empty_run() {
        failed_frac(0, 0);
    }
}
