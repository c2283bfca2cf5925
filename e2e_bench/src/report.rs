//! The metric catalogue, the host record and the result printer.
//!
//! A run prints a human-readable table (every metric with its unit, plus
//! the sample count and level behind each tail) and, as its last line, the
//! one-line JSON result. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones; a per-layer metric a workload does not
//! exercise reads 0 and is marked `n/a` in the table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::stats;

/// End-to-end metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("snapshots_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("freshness_tail_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.qr_ms", "ms"),
    ("linalg.qr_gflops", "GFLOP/s"),
    ("linalg.svd_ms", "ms"),
    ("linalg.rsvd_ms", "ms"),
    ("linalg.gemm_ms", "ms"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.flops", "count"),
    ("linalg.bytes_computed", "bytes"),
    ("comm.messages", "count"),
    ("comm.bytes", "bytes"),
    ("comm.root_recv_bytes", "bytes"),
    ("comm.recv_wait_ms", "ms"),
    ("comm.send_ms", "ms"),
    ("data.ingest_wait_ms", "ms"),
    ("data.stall_frac", "ratio"),
    ("data.io_busy_ms", "ms"),
    ("data.bytes_read", "bytes"),
    ("data.decode_mb_per_s", "MB/s"),
    ("core.update_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.coverage", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.rounds", "count"),
    ("serve.snapshots_per_round", "count"),
    ("serve.evictions", "count"),
    ("serve.rehydrations", "count"),
    ("serve.rehydrate_per_query", "ratio"),
    ("serve.evicted_bytes", "bytes"),
    ("serve.rejected", "count"),
    ("serve.round_ms_1rank", "ms"),
    ("serve.round_ms_2rank", "ms"),
    ("serve.evict_ms", "ms"),
    ("serve.rehydrate_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.late_tail_ms", "ms"),
    ("sigma_rel_err", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// What one run produced: metric values (with optional notes), the
/// operation counts and every correctness problem found.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    pub fn note(&mut self, name: &'static str, value: f64, note: String) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, note));
    }

    /// Record a median and a tail from raw samples in the order they were
    /// taken; the tail is windowed (see [`stats::windowed_tail`]).
    pub fn pair(&mut self, p50: &'static str, tail_name: &'static str, samples: &[f64]) {
        let (value, t) = stats::windowed_tail(samples, stats::TAIL_WINDOW);
        self.note(p50, stats::median(samples), format!("n={}", samples.len()));
        let windows = (samples.len() / stats::TAIL_WINDOW).max(1);
        let note = format!("median over {windows} windows of p{} of n={}", t.level, t.count);
        self.note(tail_name, value, note);
    }

    /// Record a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The host and build the result belongs to.
pub fn host_line(mode: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} cpu_flags={} commit={} source={} mode={mode}",
        cpu_flags(),
        git_commit().unwrap_or_else(|| "none".into()),
        source_fingerprint()
    )
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if std::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        if f.is_empty() {
            "baseline".into()
        } else {
            f.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// `HEAD` of a git checkout in the working directory, when there is one.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = fs::read_to_string(Path::new(".git").join(r)) {
        return Some(c.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find(|l| l.ends_with(r))?.split(' ').next().map(str::to_string)
}

/// FNV-1a over the program's sources (the crates and the lock file), so a
/// result names the code it measured even where there is no git history.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv64:{h:016x}")
}

/// Bit-for-bit equality of two float slices (`-0.0 != 0.0`, NaN equals
/// itself).
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `ru` is a writable `struct rusage` with the 64-bit Linux
    // layout (two timevals, then fourteen longs), and RUSAGE_SELF (0)
    // asks only about this process.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.maxrss as f64 / 1024.0 // Linux reports kilobytes.
}

/// Print the table and the JSON result line for `outcome`.
pub fn print(outcome: &Outcome, trace: bool, header: &str) {
    let list = if trace { PER_LAYER } else { END_TO_END };
    println!("# {header}");
    let mut json = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let (value, note) = match outcome.values.get(name) {
            Some((v, n)) => (*v + 0.0, n.clone()),
            None => {
                assert!(trace, "end-to-end metric {name} was not measured");
                (0.0, "n/a on this workload".to_string())
            }
        };
        println!("{name:<28} {value:>16.6} {unit:<8} {note}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `"name": "..."` key introduces inside the JSON array
    /// that follows `key` in `text`.
    fn names_under(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_under(json, "end_to_end"), e2e);
        assert_eq!(names_under(json, "per_layer"), layer);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("declared");
            let unit_at = json[at..].find("\"unit\": \"").unwrap() + at + 9;
            assert!(json[unit_at..].starts_with(&format!("{unit}\"")), "unit of {name}");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pair_reports_median_and_tail() {
        let mut o = Outcome::default();
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        o.pair("update_p50_ms", "update_tail_ms", &xs);
        assert_eq!(o.values["update_p50_ms"].0, 50.5);
        assert_eq!(o.values["update_tail_ms"].0, 90.0);
        assert!(o.values["update_tail_ms"].1.contains("p90 of n=100"));
    }
}
