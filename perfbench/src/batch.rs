//! `batch_resnet20`: offline int8 scoring of seeded ResNet20 images at
//! batch 8, on `IntExecutor::with_plan` over `Engine::plan_for(8)`.
//!
//! Nearly all time is `fixedpoint` conv/GEMM at the widest ladder rung;
//! `serve` and `rt::queue` do no work. Beside `serve_mobilenet` it uses
//! the same engine for throughput instead of latency.

use std::time::{Duration, Instant};

use tqt_fixedpoint::IntExecutor;
use tqt_models::ModelKind;
use tqt_nn::Mode;
use tqt_tensor::Tensor;

use crate::check::{logits_match, macs, top1, Tally};
use crate::common::{
    calibration_s, for_budget, int8_setup, repeat_setup, Fp32Baseline, Int8Setup, CALIB_IMAGES,
};
use crate::metrics::Metrics;
use crate::stats::{median, summarize};
use crate::{alloc, trace, Outcome};

const MODEL: ModelKind = ModelKind::ResNet20;
const BATCH: usize = 8;
/// Seeded images, scored as `IMAGES / BATCH` fixed batches.
const IMAGES: usize = 64;
/// Per round of the untraced run: int8 scoring, then the fp32 baseline.
const INT8_SLICE: Duration = Duration::from_millis(1500);
const FP32_SLICE: Duration = Duration::from_millis(300);

/// Scores batches round-robin for `budget` (at least `min_runs` runs),
/// checking every row; returns each run's milliseconds.
fn score(
    ex: &mut IntExecutor<'_>,
    batches: &[Tensor],
    refs: &[Vec<f32>],
    (budget, min_runs): (Duration, usize),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut out = Vec::new();
    for_budget(budget, min_runs, |i| {
        let b = i % batches.len();
        let run = {
            let _s = trace::span("fixedpoint.run_b8", i as u64 + 1);
            tally.guard(|| ex.run_into(&batches[b], &mut out))
        };
        if let Some((format, _)) = run {
            tally.record(logits_match(&out, format, &refs[b]));
        }
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (s, setup_s) = repeat_setup(|| int8_setup(MODEL, seed, IMAGES))?;
    trace::enable(false);
    let Int8Setup {
        data,
        mut graph,
        engine,
    } = s;
    let idx: Vec<usize> = (0..IMAGES).collect();
    let batches: Vec<Tensor> = idx.chunks(BATCH).map(|c| data.gather(c).0).collect();
    let refs: Vec<Vec<f32>> = batches
        .iter()
        .map(|x| graph.forward(x, Mode::Eval).data().to_vec())
        .collect();
    let plan = engine
        .plan_for(BATCH)
        .ok_or("batch-8 rung missing from the ladder")?;
    let mut ex = IntExecutor::with_plan(engine.graph(), plan);
    let mut fp32 = Fp32Baseline::new(MODEL, seed);
    let mut tally = Tally::default();
    // Warm-up: first-touch of the slot buffers and the scratch arena.
    score(&mut ex, &batches, &refs, (Duration::ZERO, 1), &mut tally);
    let budget = Duration::from_secs_f64(seconds);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    if !traced {
        // Rounds of int8 scoring, an fp32 slice and a calibration of a
        // fresh graph: the host's speed drifts within seconds, and
        // interleaving spreads every metric's samples over the whole run.
        let (mut ms, mut fp32_ms, mut calib_s) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while calib_s.len() < 3 || start.elapsed() < budget {
            ms.extend(score(&mut ex, &batches, &refs, (INT8_SLICE, 1), &mut tally));
            fp32_ms.extend(fp32.time(&batches, FP32_SLICE));
            calib_s.push(calibration_s(MODEL, seed, &data));
        }
        let lat = summarize(&ms);
        notes.push(format!(
            "latency over {} batches of {BATCH}: p50 {:.4} ms, tail taken at p{:.2}",
            lat.n, lat.p50, lat.tail_p
        ));
        m.set("setup_s", median(&setup_s));
        m.set("latency_p50_ms", lat.p50);
        m.set("latency_p99_ms", lat.tail);
        m.set("requests_per_s", 1e3 / lat.p50);
        m.set("images_per_s", BATCH as f64 * 1e3 / lat.p50);
        m.set("train_images_per_s", CALIB_IMAGES as f64 / median(&calib_s));
        m.set("eval_images_per_s", BATCH as f64 * 1e3 / median(&fp32_ms));
        return Ok(Outcome {
            tally,
            metrics: m,
            notes,
        });
    }

    let plain = score(
        &mut ex,
        &batches,
        &refs,
        (budget.mul_f64(0.4), 3),
        &mut tally,
    );
    trace::enable(true);
    let (traced_ms, allocs) = alloc::count(|| {
        score(
            &mut ex,
            &batches,
            &refs,
            (budget.mul_f64(0.4), 3),
            &mut tally,
        )
    });
    let fp32_ms = median(&fp32.time(&batches, budget.mul_f64(0.1)));
    trace::enable(false);

    let spans = trace::snapshot();
    let selfs = trace::self_times_ns(&spans);
    crate::set_setup_layers(&mut m, &spans, &selfs);
    let flat: Vec<f32> = refs.concat();
    m.set(
        "quant.val_top1",
        top1(&flat, flat.len() / IMAGES, &data.labels),
    );
    let run_ms = median(&trace::self_ms(&spans, &selfs, "fixedpoint.run_b8"));
    let macs_per_batch = macs(engine.graph(), plan) as f64;
    m.set("fixedpoint.run_b8_ms", run_ms);
    m.set(
        "fixedpoint.allocs_per_run",
        allocs as f64 / traced_ms.len() as f64,
    );
    m.set("fixedpoint.macs_per_image", macs_per_batch / BATCH as f64);
    m.set(
        "fixedpoint.gmacs_per_s",
        macs_per_batch / (run_ms * 1e-3) / 1e9,
    );
    m.set(
        "fixedpoint.weight_arena_elems",
        plan.weight_arena_elems() as f64,
    );
    m.set("fixedpoint.slot_elems", plan.total_buffer_elems() as f64);
    m.set("graph.fp32_eval_ms", fp32_ms);
    m.set("fixedpoint.int8_over_fp32", run_ms / fp32_ms);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    m.set("trace.overhead_frac", mean(&traced_ms) / mean(&plain) - 1.0);
    Ok(Outcome {
        tally,
        metrics: m,
        notes,
    })
}
