//! A small wall-clock benchmark harness: warmup, auto-calibrated batch
//! size, and median/IQR over independent samples.
//!
//! Replaces `criterion` for the workspace's two bench targets. The
//! median is robust to scheduler noise and the inter-quartile range
//! makes run-to-run variance visible; both are printed per benchmark in
//! a stable, grep-friendly format:
//!
//! ```text
//! bench requant/pow2_shift_eq16          median 12.41µs  iqr 0.32µs  (20 samples)  330.1 Melem/s
//! ```

use crate::json::Json;
use std::collections::BTreeMap;
use std::hint::black_box as std_black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Opaque value barrier — re-exported so benches do not reach into
/// `std::hint` themselves.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Result of one benchmark: robust location and spread of the per-call
/// wall time.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name.
    pub name: String,
    /// Median per-call time (truncated to whole nanoseconds).
    pub median: Duration,
    /// Median per-call time in seconds, unrounded: a trivial body can
    /// take well under a nanosecond per call, which `median` truncates
    /// to zero. Throughput and the JSON form use this value.
    median_secs: f64,
    /// Inter-quartile range (q3 − q1) of per-call time.
    pub iqr: Duration,
    /// Number of timed samples.
    pub samples: usize,
    /// Calls per sample (auto-calibrated).
    pub iters_per_sample: u64,
    /// Elements (or flops) per call, when the benchmark declared one via
    /// [`Bench::run_with_throughput`]; drives the serialized throughput.
    pub elems_per_call: Option<u64>,
}

impl Stats {
    /// Elements-per-second throughput for a per-call element count.
    pub fn throughput(&self, elems_per_call: u64) -> f64 {
        elems_per_call as f64 / self.median_secs
    }

    /// Machine-readable form of this result (durations in nanoseconds,
    /// throughput in elements/second when declared).
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), Json::from(self.name.as_str()));
        obj.insert(
            "median_ns".to_string(),
            Json::from(self.median_secs * 1e9),
        );
        obj.insert("iqr_ns".to_string(), Json::from(self.iqr.as_nanos() as f64));
        obj.insert("samples".to_string(), Json::from(self.samples));
        obj.insert(
            "iters_per_sample".to_string(),
            Json::from(self.iters_per_sample as f64),
        );
        if let Some(elems) = self.elems_per_call {
            obj.insert("elems_per_call".to_string(), Json::from(elems as f64));
            obj.insert(
                "throughput_per_s".to_string(),
                Json::from(self.throughput(elems)),
            );
        }
        Json::Obj(obj)
    }
}

/// Accumulates [`Stats`] across one bench binary and (optionally) writes
/// them as a JSON report — the persisted `BENCH_*.json` trajectory files.
///
/// [`Report::from_args`] reads the process arguments, so every bench
/// binary uniformly understands:
///
/// * `--json <path>` — write the report to `path` on [`finish`](Self::finish);
/// * `--smoke` — flag for the binary to shrink shapes/sample counts so CI
///   can exercise the bench + emission path in milliseconds.
pub struct Report {
    name: String,
    out: Option<PathBuf>,
    smoke: bool,
    results: Vec<Stats>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Builds a report named `name` from the process's own CLI arguments.
    pub fn from_args(name: &str) -> Report {
        let mut out = None;
        let mut smoke = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => out = args.next().map(PathBuf::from),
                "--smoke" => smoke = true,
                // Unknown flags (e.g. libtest's --bench) are ignored so the
                // binaries still run under plain `cargo bench`.
                _ => {}
            }
        }
        Report {
            name: name.to_string(),
            out,
            smoke,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// True when `--smoke` was passed: the binary should use tiny shapes
    /// and a single sample.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Records one benchmark result.
    pub fn push(&mut self, stats: Stats) {
        self.results.push(stats);
    }

    /// Records a scalar side-metric (e.g. a steady-state allocation
    /// count) to be serialized alongside the timing results.
    pub fn push_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Serializes the recorded results.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("bench".to_string(), Json::from(self.name.as_str()));
        obj.insert("smoke".to_string(), Json::from(self.smoke));
        obj.insert(
            "results".to_string(),
            Json::Arr(self.results.iter().map(Stats::to_json).collect()),
        );
        if !self.metrics.is_empty() {
            let m: BTreeMap<String, Json> = self
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect();
            obj.insert("metrics".to_string(), Json::Obj(m));
        }
        Json::Obj(obj)
    }

    /// Writes the report to the `--json` path, if one was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — a bench run that silently
    /// drops its results would poison the persisted trajectory.
    pub fn finish(self) {
        if let Some(path) = &self.out {
            let body = self.to_json().to_string();
            std::fs::write(path, body + "\n")
                .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
            println!("report {} -> {}", self.name, path.display());
        }
    }
}

/// Benchmark runner with configurable sampling.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Timed samples per benchmark (criterion's `sample_size` analogue).
    pub samples: usize,
    /// Wall-clock budget per sample; the batch size is calibrated so one
    /// sample takes roughly this long.
    pub sample_time: Duration,
    /// Warmup time before calibration.
    pub warmup: Duration,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            samples: 20,
            sample_time: Duration::from_millis(25),
            warmup: Duration::from_millis(100),
        }
    }
}

impl Bench {
    /// A runner taking `samples` timed samples per benchmark.
    pub fn with_samples(samples: usize) -> Self {
        Bench {
            samples,
            ..Bench::default()
        }
    }

    /// A minimal runner for CI smoke runs: one sample, microsecond
    /// budgets — just enough to prove the bench and its JSON emission
    /// still work.
    pub fn smoke() -> Self {
        Bench {
            samples: 1,
            sample_time: Duration::from_micros(100),
            warmup: Duration::ZERO,
        }
    }

    /// Times `f`, prints one result line, and returns the stats.
    pub fn run<F: FnMut()>(&self, name: &str, mut f: F) -> Stats {
        let stats = self.measure(name, &mut f);
        println!(
            "bench {:<42} median {:>9}  iqr {:>9}  ({} samples)",
            stats.name,
            fmt_duration(stats.median),
            fmt_duration(stats.iqr),
            stats.samples
        );
        stats
    }

    /// Like [`run`](Self::run) but also reports elements/second computed
    /// from `elems` processed per call.
    pub fn run_with_throughput<F: FnMut()>(&self, name: &str, elems: u64, mut f: F) -> Stats {
        let mut stats = self.measure(name, &mut f);
        stats.elems_per_call = Some(elems);
        println!(
            "bench {:<42} median {:>9}  iqr {:>9}  ({} samples)  {}",
            stats.name,
            fmt_duration(stats.median),
            fmt_duration(stats.iqr),
            stats.samples,
            fmt_throughput(stats.throughput(elems))
        );
        stats
    }

    fn measure<F: FnMut()>(&self, name: &str, f: &mut F) -> Stats {
        // Warmup: run until the warmup budget is spent (at least once).
        let warm_start = Instant::now();
        let mut warm_calls = 0u64;
        while warm_start.elapsed() < self.warmup || warm_calls == 0 {
            f();
            warm_calls += 1;
        }
        let per_call = warm_start.elapsed().as_secs_f64() / warm_calls as f64;
        // Batch size so one sample hits ~sample_time.
        let iters = ((self.sample_time.as_secs_f64() / per_call.max(1e-9)) as u64).max(1);
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples.max(1) {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            times.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap()); // tqt:allow(unwrap): durations are finite
        let q = |p: f64| -> f64 {
            let idx = p * (times.len() - 1) as f64;
            let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
            let frac = idx - lo as f64;
            times[lo] * (1.0 - frac) + times[hi] * frac
        };
        let median_secs = q(0.5);
        Stats {
            name: name.to_string(),
            median: Duration::from_secs_f64(median_secs),
            median_secs,
            iqr: Duration::from_secs_f64((q(0.75) - q(0.25)).max(0.0)),
            samples: times.len(),
            iters_per_sample: iters,
            elems_per_call: None,
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1_000.0 {
        format!("{ns:.1}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

fn fmt_throughput(elems_per_sec: f64) -> String {
    if elems_per_sec >= 1e9 {
        format!("{:.1} Gelem/s", elems_per_sec / 1e9)
    } else if elems_per_sec >= 1e6 {
        format!("{:.1} Melem/s", elems_per_sec / 1e6)
    } else if elems_per_sec >= 1e3 {
        format!("{:.1} Kelem/s", elems_per_sec / 1e3)
    } else {
        format!("{elems_per_sec:.1} elem/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bench() -> Bench {
        Bench {
            samples: 5,
            sample_time: Duration::from_micros(200),
            warmup: Duration::from_micros(200),
        }
    }

    #[test]
    fn measures_something_positive() {
        let mut acc = 0u64;
        let stats = fast_bench().run("spin", || {
            for i in 0..100u64 {
                acc = black_box(acc.wrapping_add(i));
            }
        });
        assert!(stats.median > Duration::ZERO);
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
    }

    #[test]
    fn throughput_scales_with_elems() {
        let stats = fast_bench().run_with_throughput("tp", 1000, || {
            black_box((0..100u32).sum::<u32>());
        });
        let t1 = stats.throughput(1000);
        let t2 = stats.throughput(2000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_of_quartiles() {
        let stats = fast_bench().run("q", || {
            black_box((0..500u32).map(|i| i ^ 0xA5).sum::<u32>());
        });
        assert!(stats.iqr <= stats.median * 100); // sanity: IQR finite, not wild
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500.0ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
    }
}
