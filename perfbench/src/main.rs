//! Wall-clock benchmark of the Acc-SpMM library on the host CPU.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spmm-type2|spmm-type1|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints provenance and one line per metric (name, value,
//! unit, statistic, sample count), then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with span
//! recording off; with `--trace 1` they are the per-layer ones from a
//! traced pass, and the spans are exported to `perfbench/out/`. Any
//! wrong output makes the run exit non-zero. See `README.md` for why
//! each workload exists.

mod inputs;
mod layers;
mod serve;
mod session;
mod spans;
mod spmm;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Feature dimension (columns of the dense operand) on every workload.
pub const N: usize = 32;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed (`median`, `p99`, `sum`, `derived`, ...).
    pub stat: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (multiplies, requests, updates).
    pub attempted: u64,
    /// Operations that returned an error, were rejected or dropped, or
    /// failed the output check.
    pub failed: u64,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        stat: &'static str,
        n: usize,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            stat,
            n,
        });
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a metric that could not be formed is
/// written as `null` so the run cannot pass as a valid measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Median of `xs` (sorted in place); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (sorted in place); NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bit-exact fingerprint of a dense result (FNV-1a over the f32 bits).
pub fn bits_hash(xs: &[f32]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={} compute_threads={} isa_tier={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        rayon::current_num_threads(),
        spmm_common::simd::IsaTier::probe().name()
    );
    let result = match args.workload.as_str() {
        "spmm-type2" => spmm::run(&args, &inputs::TYPE2),
        "spmm-type1" => spmm::run(&args, &inputs::TYPE1),
        "serve-churn" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other} (expected spmm-type2, spmm-type1 or serve-churn)"
        )),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", "max", 1);
    }
    println!(
        "operations: attempted={} failed={} error_rate={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &report.metrics {
        println!(
            "metric {} = {} {} ({}, n={})",
            m.name, m.value, m.unit, m.stat, m.n
        );
    }
    println!("{}", report.json());
    if report.failed > 0
        || report.attempted == 0
        || report.metrics.iter().any(|m| !m.value.is_finite())
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
