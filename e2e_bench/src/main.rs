//! End-to-end benchmark of the paper's workloads, with a traced per-layer
//! breakdown. See `NOTES.md` beside this package for why each workload
//! was chosen and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload burgers-serial --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones (and writes the spans under
//! `.bench_trace/`). The last line of standard output is the JSON result.

mod burgers;
mod era5;
mod kernels;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// Where traced runs write their spans, relative to the working directory.
pub const TRACE_DIR: &str = ".bench_trace";
/// Scratch space for files a workload writes (the ncsim input).
pub const SCRATCH_DIR: &str = ".bench_tmp";

const USAGE: &str = "usage: psvd-e2e-bench --workload <burgers-serial|era5-parallel|serve-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BurgersSerial,
    Era5Parallel,
    ServeFleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "burgers-serial" => Some(Self::BurgersSerial),
            "era5-parallel" => Some(Self::Era5Parallel),
            "serve-fleet" => Some(Self::ServeFleet),
            _ => None,
        }
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("must be 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process-global `PSVD_*` knobs would silently change the program
/// being measured, so the benchmark refuses to run under any of them.
fn psvd_env_knobs() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PSVD_"))
        .collect();
    set.sort();
    set
}

fn main() -> ExitCode {
    let knobs = psvd_env_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: these process-global knobs change the \
             program being measured; unset them (the benchmark sets threads, precision and \
             tree settings itself)",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    // One kernel thread everywhere: the rank and worker threads the
    // workloads start are the only parallelism.
    psvd_linalg::par::set_num_threads(1);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--saturation") {
        // Closed-loop probe used to pick the serve-fleet offered rate.
        let per_s = serve::saturation(1, Duration::from_secs(10));
        println!("serve-fleet saturation: {per_s:.1} chunks/s");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mode = format!(
        "workload={:?} seed={} seconds={} trace={} kernel_threads=1",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let outcome = match args.workload {
        Workload::BurgersSerial => burgers::run(&args),
        Workload::Era5Parallel => era5::run(&args),
        Workload::ServeFleet => serve::run(&args),
    };
    report::print(&outcome, args.trace, &report::host_line(&mode));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<RunArgs, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload era5-parallel --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Era5Parallel);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Duration::from_secs(20), true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve-fleet --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve-fleet --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve-fleet --seed 1 --seconds 1").is_err());
        assert!(args("--workload serve-fleet --seed").is_err());
    }
}
