//! Host fingerprint recorded with every report: CPU model, core count,
//! the SIMD tiers the integer kernels can dispatch on, source commit,
//! pool threads and the workload seed.

use std::collections::BTreeMap;
use std::path::Path;

use tqt_rt::json::Json;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(target_arch = "x86_64")]
fn isa() -> Vec<(&'static str, bool)> {
    vec![
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        (
            "avx512vnni",
            std::arch::is_x86_feature_detected!("avx512vnni"),
        ),
        ("avxvnni", std::arch::is_x86_feature_detected!("avxvnni")),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn isa() -> Vec<(&'static str, bool)> {
    ["avx2", "avx512f", "avx512vnni", "avxvnni"]
        .into_iter()
        .map(|f| (f, false))
        .collect()
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no repository.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(refname))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint as a JSON object.
pub fn fingerprint(workload: &str, seed: u64) -> Json {
    let mut m = BTreeMap::new();
    m.insert("cpu".to_string(), Json::from(cpu_model()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert("nproc".to_string(), Json::from(nproc));
    let tiers = isa()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Bool(v)))
        .collect();
    m.insert("isa".to_string(), Json::Obj(tiers));
    m.insert("commit".to_string(), Json::from(git_commit()));
    m.insert(
        "pool_threads".to_string(),
        Json::from(tqt_rt::pool::threads()),
    );
    m.insert("workload".to_string(), Json::from(workload));
    m.insert("seed".to_string(), Json::from(seed.to_string()));
    Json::Obj(m)
}
