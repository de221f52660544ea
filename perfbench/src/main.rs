//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mobilenet --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run is untraced and prints every end-to-end
//! metric; with `--trace 1` it records spans around each layer call,
//! counts allocations, prints every per-layer metric and writes the spans
//! as Chrome trace-event JSON under `perfbench/out/`. Every output is
//! checked; the last stdout line is the JSON result.

mod alloc;
mod batch;
mod check;
mod common;
mod host;
mod metrics;
mod qat;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use tqt_rt::json::Json;

use check::Tally;
use metrics::Metrics;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// What a workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

type Workload = fn(u64, f64, bool) -> Result<Outcome, String>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve_mobilenet", serve::run),
    ("batch_resnet20", batch::run),
    ("qat_resnet8", qat::run),
];

/// Set-up layer metrics: median self time of each call's spans.
pub fn set_setup_layers(m: &mut Metrics, spans: &[trace::Span], selfs: &[u64]) {
    for (span, metric) in [
        ("data.generate", "data.generate_ms"),
        ("models.build", "models.build_ms"),
        ("graph.optimize", "graph.optimize_ms"),
        ("graph.quantize", "graph.quantize_ms"),
        ("graph.calibrate", "graph.calibrate_ms"),
        ("fixedpoint.lower", "fixedpoint.lower_ms"),
        ("serve.build", "serve.build_ms"),
    ] {
        let ms = trace::self_ms(spans, selfs, span);
        if !ms.is_empty() {
            m.set(metric, stats::median(&ms));
        }
    }
}

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {k}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let &(workload, run) = WORKLOADS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        run,
        seed,
        seconds,
        trace,
    })
}

fn write_trace(args: &Args, host: &Json) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = trace::chrome_json(&trace::snapshot(), host.clone());
    std::fs::write(&path, doc.to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    trace::enable(args.trace);
    let host = host::fingerprint(args.workload, args.seed);
    let out = match (args.run)(args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let Outcome {
        tally,
        mut metrics,
        notes,
    } = out;
    if tally.attempted == 0 {
        eprintln!("error: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    println!("host {host}");
    for n in &notes {
        println!("{n}");
    }
    if args.trace {
        match write_trace(&args, &host) {
            Ok(p) => println!("trace written to {p}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match alloc::peak_rss_mib() {
            Ok(mib) => metrics.set("peak_rss_mb", mib),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        let rate = 1.0 - tally.failed as f64 / tally.attempted as f64;
        metrics.set("success_rate", rate);
    }
    let values = metrics.to_json(args.trace);
    let finite = values
        .as_obj()
        .into_iter()
        .flat_map(|o| o.values())
        .all(|m| {
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)
        });
    let mut result = BTreeMap::new();
    result.insert(
        "correct".to_string(),
        Json::Bool(tally.failed == 0 && finite),
    );
    result.insert("attempted".to_string(), Json::Num(tally.attempted as f64));
    result.insert("failed".to_string(), Json::Num(tally.failed as f64));
    result.insert("metrics".to_string(), values);
    println!("{}", Json::Obj(result));
    ExitCode::SUCCESS
}
