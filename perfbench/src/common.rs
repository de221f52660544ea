//! Pieces the workloads share: seeded inputs, the README's model
//! pipeline with a span around each layer call, the int8 set-up, timed
//! repetition and the fp32 baseline.

use std::time::{Duration, Instant};

use tqt_data::{calibration_batch, generate, Dataset, SynthConfig};
use tqt_graph::{quantize_graph, transforms, Graph, QuantizeOptions};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::Mode;
use tqt_serve::Engine;
use tqt_tensor::Tensor;

use crate::trace;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Images the paper calibrates thresholds on.
pub const CALIB_IMAGES: usize = 50;

/// The synthetic dataset of workload seed `seed`. Model weights use the
/// seed itself; the data stream is offset so the two never coincide.
pub fn synth(seed: u64) -> SynthConfig {
    SynthConfig {
        seed: seed.wrapping_add(0x5EED_DA7A),
        ..SynthConfig::default()
    }
}

/// A quantized, calibrated float graph, and how long calibration took.
pub struct Prepared {
    pub graph: Graph,
    pub calib_s: f64,
}

/// `ModelKind::build` → `transforms::optimize` → `quantize_graph` →
/// `Graph::calibrate`, as the README documents it.
pub fn prepare(kind: ModelKind, seed: u64, opts: QuantizeOptions, calib: &Tensor) -> Prepared {
    let mut graph = trace::timed("models.build", || kind.build(seed));
    trace::timed("graph.optimize", || {
        transforms::optimize(&mut graph, &INPUT_DIMS)
    });
    trace::timed("graph.quantize", || quantize_graph(&mut graph, opts));
    let t = Instant::now();
    trace::timed("graph.calibrate", || graph.calibrate(calib));
    let calib_s = t.elapsed().as_secs_f64();
    Prepared { graph, calib_s }
}

/// The system under test of an int8 inference workload.
pub struct Int8Setup {
    /// The seeded images, with labels.
    pub data: Dataset,
    /// The float graph, baked by lowering: the reference for every
    /// integer output.
    pub graph: Graph,
    pub engine: Engine,
}

/// Seeded images, then the full deployment pipeline with calibrate-only
/// thresholds: [`prepare`] → `lower` → `Engine::build`.
pub fn int8_setup(kind: ModelKind, seed: u64, images: usize) -> Result<Int8Setup, String> {
    let data = trace::timed("data.generate", || generate(&synth(seed), images));
    let calib = calibration_batch(&data, CALIB_IMAGES, seed);
    let mut graph = prepare(kind, seed, QuantizeOptions::static_int8(), &calib).graph;
    let ig = trace::timed("fixedpoint.lower", || tqt_fixedpoint::lower(&mut graph));
    let engine = trace::timed("serve.build", || Engine::build(ig, &INPUT_DIMS))?;
    Ok(Int8Setup {
        data,
        graph,
        engine,
    })
}

/// Seconds to calibrate a freshly prepared graph of `kind` on
/// [`CALIB_IMAGES`] images drawn from `data`: the threshold fitting of
/// the calibrate-only path.
pub fn calibration_s(kind: ModelKind, seed: u64, data: &Dataset) -> f64 {
    let calib = calibration_batch(data, CALIB_IMAGES, seed);
    prepare(kind, seed, QuantizeOptions::static_int8(), &calib).calib_s
}

/// Runs `setup` [`SETUP_REPS`] times, each inside a `setup` span, and
/// returns the last result with every repetition's seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let _g = trace::span("setup", 0);
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), secs))
}

/// Calls `op` until `budget` has elapsed (at least `min_calls` times)
/// and returns each call's milliseconds.
pub fn for_budget(budget: Duration, min_calls: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        op(ms.len());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms
}

/// fp32 `forward(.., Eval)` of the unquantized (BN-folded) model: the
/// baseline int8 is compared with. Its build is not part of the
/// workload's set-up: it is the baseline, not the system.
pub struct Fp32Baseline(Graph);

impl Fp32Baseline {
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        let mut g = kind.build(seed);
        transforms::optimize(&mut g, &INPUT_DIMS);
        Fp32Baseline(g)
    }

    /// Milliseconds of each forward over `batches` (round-robin) run for
    /// `budget`, at least 3 of them.
    pub fn time(&mut self, batches: &[Tensor], budget: Duration) -> Vec<f64> {
        for_budget(budget, 3, |i| {
            let _s = trace::span("graph.fp32_eval", 0);
            std::hint::black_box(self.0.forward(&batches[i % batches.len()], Mode::Eval));
        })
    }
}
