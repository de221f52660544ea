//! `qat_resnet8`: TQT retraining (`retrain_wt_th(Int8)`) of a seeded
//! ResNet8 with `tqt::trainer::train` — one epoch at batch 32 with
//! exactly one validation inside `train` — then a separate `evaluate`
//! call, then lowering of the retrained graph and an exactness check on a
//! held-out slice.
//!
//! The work is float forward, backward and Adam in `graph`, `nn`,
//! `tensor` and `quant`, plus `data` generation in set-up; `serve` and
//! the batched `fixedpoint` engine do no work. Training and `evaluate`
//! use the float executor two ways.

use std::time::{Duration, Instant};

use tqt::config::TrainHyper;
use tqt::trainer::{evaluate, train};
use tqt_data::{calibration_batch, generate, train_val, Dataset, SynthConfig};
use tqt_graph::{QuantizeOptions, WeightBits};
use tqt_models::ModelKind;
use tqt_nn::Mode;
use tqt_tensor::Tensor;

use crate::check::{logits_match, Tally};
use crate::common::{prepare, repeat_setup, synth, Prepared, CALIB_IMAGES};
use crate::metrics::Metrics;
use crate::stats::{median, summarize};
use crate::{alloc, trace, Outcome};

const MODEL: ModelKind = ModelKind::ResNet8;
const BATCH: usize = 32;
const TRAIN: usize = 320;
const VAL: usize = 160;
/// Images the lowered, retrained graph is checked on, in batches of
/// `HELD_OUT_BATCH`; drawn from their own stream, so neither training nor
/// checkpoint selection saw them.
const HELD_OUT: usize = 32;
const HELD_OUT_BATCH: usize = 8;

struct Data {
    train: Dataset,
    val: Dataset,
    held_out: Vec<Tensor>,
    classes: usize,
}

fn data(seed: u64) -> Data {
    trace::timed("data.generate", || {
        let cfg = synth(seed);
        let (train, val) = train_val(&cfg, TRAIN, VAL);
        let held = SynthConfig {
            seed: cfg.seed ^ 0x4E1D,
            ..cfg
        };
        let held = generate(&held, HELD_OUT);
        let idx: Vec<usize> = (0..HELD_OUT).collect();
        Data {
            train,
            val,
            held_out: idx
                .chunks(HELD_OUT_BATCH)
                .map(|c| held.gather(c).0)
                .collect(),
            classes: cfg.classes,
        }
    })
}

fn graph(seed: u64, d: &Data) -> Prepared {
    let calib = calibration_batch(&d.val, CALIB_IMAGES, seed);
    prepare(
        MODEL,
        seed,
        QuantizeOptions::retrain_wt_th(WeightBits::Int8),
        &calib,
    )
}

/// One retraining cycle's measurements.
struct Cycle {
    train_ms: f64,
    eval_ms: f64,
    /// Milliseconds of each held-out batch on the integer graph.
    int_ms: Vec<f64>,
    val_top1: f64,
    thresholds_moved: usize,
    train_allocs: u64,
}

const STEPS: u64 = (TRAIN / BATCH) as u64;

/// Retrains `p`'s graph, evaluates, lowers and checks it. `None` if an
/// operation panicked (already counted in `tally`).
fn cycle(p: Prepared, d: &Data, seed: u64, tally: &mut Tally) -> Option<Cycle> {
    let mut g = p.graph;
    let mut hyper = TrainHyper::retrain(STEPS);
    hyper.batch = BATCH;
    hyper.epochs = 1;
    // Above the step count: the only validation inside `train` is the
    // final one.
    hyper.val_every = STEPS + 1;
    hyper.seed = seed;
    // The seeded weights are untrained: at the fine-tuning rate one epoch
    // stays at chance, so weights take the pre-training rate.
    hyper.weight_lr = TrainHyper::pretrain(STEPS).weight_lr;
    let chance = 1.0 / d.classes as f32;

    let t = Instant::now();
    let (result, train_allocs) = {
        let _s = trace::span("core.train", 0);
        let counted = trace::enabled();
        tally.guard(|| {
            if counted {
                alloc::count(|| train(&mut g, &d.train, &d.val, &hyper))
            } else {
                (train(&mut g, &d.train, &d.val, &hyper), 0)
            }
        })?
    };
    let train_ms = t.elapsed().as_secs_f64() * 1e3;
    let best = result.best;
    tally.record(best.loss.is_finite() && best.top1 > chance && result.history.len() == 1);

    let t = Instant::now();
    let (top1, _, loss) = {
        let _s = trace::span("core.evaluate", 0);
        tally.guard(|| evaluate(&mut g, &d.val, BATCH))?
    };
    let eval_ms = t.elapsed().as_secs_f64() * 1e3;
    // `train` leaves the graph at its best checkpoint, which is the one
    // validation it ran: evaluating again must reproduce it exactly.
    tally.record(loss.is_finite() && top1 == best.top1);

    let ig = {
        let _s = trace::span("fixedpoint.lower", 0);
        tally.guard(|| tqt_fixedpoint::lower(&mut g))?
    };
    let mut int_ms = Vec::with_capacity(d.held_out.len());
    for x in &d.held_out {
        let t = Instant::now();
        let y = {
            let _s = trace::span("fixedpoint.run_held_out", 0);
            tally.guard(|| ig.run(x))?
        };
        int_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let reference = g.forward(x, Mode::Eval);
        tally.record(logits_match(y.data(), y.format, reference.data()));
    }

    Some(Cycle {
        train_ms,
        eval_ms,
        int_ms,
        val_top1: f64::from(best.top1),
        thresholds_moved: result
            .threshold_deviations()
            .iter()
            .filter(|&&d| d != 0)
            .count(),
        train_allocs,
    })
}

/// Runs cycles for `budget` (at least `min` of them). The first reuses
/// `first`; later ones prepare a fresh graph, outside the timed calls.
fn cycles(
    first: &mut Option<Prepared>,
    d: &Data,
    seed: u64,
    (budget, min): (Duration, usize),
    tally: &mut Tally,
) -> Vec<Cycle> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut attempts = 0;
    while attempts < min || start.elapsed() < budget {
        attempts += 1;
        let p = first.take().unwrap_or_else(|| graph(seed, d));
        out.extend(cycle(p, d, seed, tally));
    }
    out
}

/// Identical cycles must retrain identically: a differing accuracy or
/// threshold movement is a failure.
fn check_repeatable(cs: &[Cycle], tally: &mut Tally, notes: &mut Vec<String>) {
    let same = cs
        .iter()
        .all(|c| c.val_top1 == cs[0].val_top1 && c.thresholds_moved == cs[0].thresholds_moved);
    tally.record(same);
    if !same {
        notes.push("identical retraining cycles gave different results".into());
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let ((d, p), setup_s) = repeat_setup(|| {
        let d = data(seed);
        let p = graph(seed, &d);
        Ok((d, p))
    })?;
    trace::enable(false);
    let mut first = Some(p);
    let budget = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let col = |cs: &[Cycle], f: fn(&Cycle) -> f64| cs.iter().map(f).collect::<Vec<f64>>();
    if !traced {
        let cs = cycles(&mut first, &d, seed, (budget, 3), &mut tally);
        if cs.is_empty() {
            return Err("every retraining cycle failed".into());
        }
        let train_ms = col(&cs, |c| c.train_ms);
        let lat = summarize(&train_ms);
        notes.push(format!(
            "latency over {} train calls of {STEPS} steps: p50 {:.4} ms, tail taken at p{:.2}",
            lat.n, lat.p50, lat.tail_p
        ));
        m.set("setup_s", median(&setup_s));
        m.set("latency_p50_ms", lat.p50);
        m.set("latency_p99_ms", lat.tail);
        m.set("requests_per_s", 1e3 / lat.p50);
        let int_ms: Vec<f64> = cs.iter().flat_map(|c| c.int_ms.iter().copied()).collect();
        m.set(
            "images_per_s",
            HELD_OUT_BATCH as f64 * 1e3 / median(&int_ms),
        );
        m.set(
            "train_images_per_s",
            (STEPS as usize * BATCH) as f64 * 1e3 / lat.p50,
        );
        m.set(
            "eval_images_per_s",
            VAL as f64 * 1e3 / median(&col(&cs, |c| c.eval_ms)),
        );
        check_repeatable(&cs, &mut tally, &mut notes);
        return Ok(Outcome {
            tally,
            metrics: m,
            notes,
        });
    }

    let plain = cycles(&mut first, &d, seed, (budget.mul_f64(0.45), 2), &mut tally);
    trace::enable(true);
    let cs = cycles(&mut first, &d, seed, (budget.mul_f64(0.45), 2), &mut tally);
    trace::enable(false);
    if plain.is_empty() || cs.is_empty() {
        return Err("every retraining cycle failed".into());
    }
    let spans = trace::snapshot();
    let selfs = trace::self_times_ns(&spans);
    crate::set_setup_layers(&mut m, &spans, &selfs);
    m.set(
        "core.train_ms",
        median(&trace::self_ms(&spans, &selfs, "core.train")),
    );
    m.set(
        "core.evaluate_ms",
        median(&trace::self_ms(&spans, &selfs, "core.evaluate")),
    );
    m.set(
        "core.step_ms",
        median(&col(&cs, |c| (c.train_ms - c.eval_ms) / STEPS as f64)),
    );
    m.set(
        "core.allocs_per_step",
        median(&col(&cs, |c| c.train_allocs as f64 / STEPS as f64)),
    );
    m.set("quant.thresholds_moved", cs[0].thresholds_moved as f64);
    m.set("quant.val_top1", cs[0].val_top1);
    let mean_train = |cs: &[Cycle]| cs.iter().map(|c| c.train_ms).sum::<f64>() / cs.len() as f64;
    m.set(
        "trace.overhead_frac",
        mean_train(&cs) / mean_train(&plain) - 1.0,
    );
    let all: Vec<Cycle> = plain.into_iter().chain(cs).collect();
    check_repeatable(&all, &mut tally, &mut notes);
    Ok(Outcome {
        tally,
        metrics: m,
        notes,
    })
}
