//! The metric catalogue (names and units exactly as `BENCHMARK.json`
//! declares them) and the collector workloads fill.

use std::collections::BTreeMap;

use tqt_rt::json::Json;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "fraction"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("requests_per_s", "req/s"),
    ("images_per_s", "img/s"),
    ("train_images_per_s", "img/s"),
    ("eval_images_per_s", "img/s"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("models.build_ms", "ms"),
    ("graph.optimize_ms", "ms"),
    ("graph.quantize_ms", "ms"),
    ("graph.calibrate_ms", "ms"),
    ("fixedpoint.lower_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.infer_p50_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.allocs_per_request", "allocs/req"),
    ("rt.mean_batch", "req/batch"),
    ("rt.deadline_flush_share", "fraction"),
    ("rt.idle_dispatch_share", "fraction"),
    ("rt.max_depth", "count"),
    ("fixedpoint.run_b1_ms", "ms"),
    ("fixedpoint.run_b2_ms", "ms"),
    ("fixedpoint.run_b8_ms", "ms"),
    ("fixedpoint.saturated_per_image", "elems/img"),
    ("fixedpoint.allocs_per_run", "allocs/run"),
    ("fixedpoint.macs_per_image", "MAC/img"),
    ("fixedpoint.gmacs_per_s", "GMAC/s"),
    ("fixedpoint.weight_arena_elems", "elems"),
    ("fixedpoint.slot_elems", "elems"),
    ("fixedpoint.int8_over_fp32", "ratio"),
    ("graph.fp32_eval_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.allocs_per_step", "allocs/step"),
    ("quant.thresholds_moved", "count"),
    ("quant.val_top1", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Metric values a workload measured, by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line, with units: every
    /// per-layer metric for a traced run, else every end-to-end metric.
    /// Per-layer metrics a workload did not set read 0 (the layer did no
    /// work).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured.
    pub fn to_json(&self, traced: bool) -> Json {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let obj = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Json::Num(value));
                m.insert("unit".to_string(), Json::from(unit));
                (name.to_string(), Json::Obj(m))
            })
            .collect();
        Json::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let mut m = Metrics::default();
        m.set("core.train_ms", 5.0);
        let j = m.to_json(true);
        let v = |n: &str| j.get(n).and_then(|o| o.get("value")).and_then(Json::as_f64);
        assert_eq!(v("core.train_ms"), Some(5.0));
        assert_eq!(v("rt.max_depth"), Some(0.0));
    }
}
