//! `serve_mobilenet`: int8 MobileNetV1 behind `Engine::serve` with the
//! README's settings (2 workers, 1 ms max wait), driven by a closed loop
//! of 2 client threads that each keep one `Client::infer` in flight.
//!
//! Compute per request is small, so admission and batching in `serve` and
//! `rt::queue` carry a large share of latency, and `fixedpoint` runs at
//! batch 1-2. The loop is closed because `infer` blocks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tqt_fixedpoint::IntExecutor;
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::Mode;
use tqt_rt::queue::{scoped_threads, QueueStats};
use tqt_tensor::Tensor;

use crate::check::{logits_match, top1, Tally};
use crate::common::{
    calibration_s, int8_setup, repeat_setup, Fp32Baseline, Int8Setup, CALIB_IMAGES,
};
use crate::metrics::Metrics;
use crate::stats::{median, summarize};
use crate::{alloc, trace, Outcome};

const MODEL: ModelKind = ModelKind::MobileNetV1;
/// Distinct seeded images the clients cycle through.
const IMAGES: usize = 64;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const MAX_WAIT: Duration = Duration::from_millis(1);
/// Requests before this much of a window has passed are checked but not
/// timed: sessions and caches warm up.
const WARMUP: Duration = Duration::from_millis(300);
/// Timed length of one serve scope in the untraced run.
const WINDOW: Duration = Duration::from_secs(3);
/// Batch of the offline fp32 baseline behind `eval_images_per_s`, and
/// how long each round runs it.
const EVAL_BATCH: usize = 8;
const FP32_SLICE: Duration = Duration::from_millis(300);

/// What one serving window observed.
struct Window {
    lat_ms: Vec<f64>,
    wall_s: f64,
    tally: Tally,
    queue: Option<QueueStats>,
    /// Allocations between client 0's first and last timed request.
    allocs: u64,
}

#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    last_end: Option<Instant>,
    tally: Tally,
    allocs: (u64, u64),
}

/// Serves for `WARMUP + budget`, every reply checked against `refs`.
fn serve_window(s: &Int8Setup, images: &[Tensor], refs: &[Vec<f32>], budget: Duration) -> Window {
    let served = catch_unwind(AssertUnwindSafe(|| {
        s.engine.serve(WORKERS, MAX_WAIT, |client| {
            let from = Instant::now() + WARMUP;
            let until = from + budget;
            let run = |c: usize| {
                let mut log = ClientLog::default();
                let mut timing = false;
                for seq in 0.. {
                    let t0 = Instant::now();
                    if t0 >= until {
                        break;
                    }
                    if t0 >= from && !timing {
                        timing = true;
                        log.allocs.0 = alloc::total();
                    }
                    let idx = (c + seq * CLIENTS) % images.len();
                    let reply = {
                        let _s = trace::span("serve.infer", ((c as u64) << 32) + seq as u64 + 1);
                        log.tally.guard(|| client.infer(images[idx].data()))
                    };
                    let done = Instant::now();
                    if let Some(r) = reply {
                        log.tally
                            .record(logits_match(&r.logits, r.format, &refs[idx]));
                    }
                    if timing {
                        log.lat_ms.push((done - t0).as_secs_f64() * 1e3);
                        log.last_end = Some(done);
                    }
                }
                log.allocs.1 = alloc::total();
                (log, from)
            };
            let (others, first) = scoped_threads(CLIENTS - 1, |c| run(c + 1), || run(0));
            (first, others)
        })
    }));
    let mut w = Window {
        lat_ms: Vec::new(),
        wall_s: 0.0,
        tally: Tally::default(),
        queue: None,
        allocs: 0,
    };
    match served {
        Ok((((first, from), others), report)) => {
            w.allocs = first.allocs.1.saturating_sub(first.allocs.0);
            let mut last = from;
            for log in std::iter::once(first).chain(others.into_iter().map(|(l, _)| l)) {
                w.lat_ms.extend(&log.lat_ms);
                w.tally.merge(log.tally);
                last = last.max(log.last_end.unwrap_or(from));
            }
            w.wall_s = (last - from).as_secs_f64();
            w.tally.record(report.overflowed == 0);
            w.queue = Some(report.queue);
        }
        // A panic that escaped the serve scope (a worker died).
        Err(_) => w.tally.record(false),
    }
    w
}

/// Milliseconds per run of the rung-`rung` plan over consecutive images,
/// each output checked, with the saturation count of every run.
fn run_rung(
    s: &Int8Setup,
    images: &[Tensor],
    refs: &[Vec<f32>],
    rung: usize,
    tally: &mut Tally,
) -> (f64, u64) {
    let Some(plan) = s.engine.plan_for(rung) else {
        tally.record(false);
        return (0.0, 0);
    };
    let name = if rung == 1 {
        "fixedpoint.run_b1"
    } else {
        "fixedpoint.run_b2"
    };
    let mut ex = IntExecutor::with_plan(s.engine.graph(), plan);
    let mut out = Vec::new();
    let (mut ms, mut sat) = (Vec::new(), 0);
    for (k, chunk) in images.chunks_exact(rung).enumerate() {
        let data: Vec<f32> = chunk
            .iter()
            .flat_map(|x| x.data().iter().copied())
            .collect();
        let mut dims = INPUT_DIMS.to_vec();
        dims[0] = rung;
        let x = Tensor::from_vec(dims, data);
        let t = Instant::now();
        let run = {
            let _s = trace::span(name, 0);
            tally.guard(|| ex.run_into(&x, &mut out))
        };
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some((format, stats)) = run {
            sat += stats.total_saturated();
            let per = out.len() / rung;
            let ok = (0..rung)
                .all(|r| logits_match(&out[r * per..(r + 1) * per], format, &refs[k * rung + r]));
            tally.record(ok);
        }
    }
    (median(&ms), sat)
}

/// Expected compute per request for the rung mix the queue dispatched:
/// each request waits for its whole batch's run. `rung_ms` gives the run
/// time of each measured rung; `None` if requests ran on a rung without
/// one.
pub fn compute_per_request_ms(
    ladder: &[usize],
    rung_dispatches: &[u64],
    rung_ms: &[(usize, f64)],
) -> Option<f64> {
    let (mut reqs, mut ms) = (0.0, 0.0);
    for (&rung, &batches) in ladder.iter().zip(rung_dispatches) {
        if batches == 0 {
            continue;
        }
        let run = rung_ms.iter().find(|(r, _)| *r == rung)?.1;
        let n = (batches * rung as u64) as f64;
        reqs += n;
        ms += n * run;
    }
    (reqs > 0.0).then(|| ms / reqs)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (s, setup_s) = repeat_setup(|| int8_setup(MODEL, seed, IMAGES))?;
    trace::enable(false);
    let images: Vec<Tensor> = (0..IMAGES).map(|i| s.data.image(i)).collect();
    let mut graph = s.graph;
    let refs: Vec<Vec<f32>> = images
        .iter()
        .map(|x| graph.forward(x, Mode::Eval).data().to_vec())
        .collect();
    let s = Int8Setup { graph, ..s };
    let budget = Duration::from_secs_f64(seconds);
    let mut fp32 = Fp32Baseline::new(MODEL, seed);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    if !traced {
        // Rounds of one serve scope (with its own warm-up), an fp32 slice
        // and a calibration of a fresh graph. The host's speed drifts
        // within seconds; interleaving spreads every metric's samples over
        // the whole run, and medians over rounds resist a slow spell.
        let eval: Vec<Tensor> = (0..IMAGES)
            .collect::<Vec<_>>()
            .chunks(EVAL_BATCH)
            .map(|c| s.data.gather(c).0)
            .collect();
        let (mut p50, mut tail, mut rps, mut n) = (Vec::new(), Vec::new(), Vec::new(), 0);
        let (mut fp32_ms, mut calib_s) = (Vec::new(), Vec::new());
        let mut tail_p = 100.0f64;
        let (start, mut rounds) = (Instant::now(), 0);
        while rounds < 3 || start.elapsed() + WINDOW + WARMUP < budget {
            rounds += 1;
            let w = serve_window(&s, &images, &refs, WINDOW);
            tally.merge(w.tally);
            if w.lat_ms.is_empty() {
                tally.record(false);
                continue;
            }
            let lat = summarize(&w.lat_ms);
            p50.push(lat.p50);
            tail.push(lat.tail);
            rps.push(lat.n as f64 / w.wall_s);
            tail_p = tail_p.min(lat.tail_p);
            n += lat.n;
            fp32_ms.extend(fp32.time(&eval, FP32_SLICE));
            calib_s.push(calibration_s(MODEL, seed, &s.data));
        }
        if p50.is_empty() {
            return Err("no request completed inside a timed window".into());
        }
        notes.push(format!(
            "latency over {n} requests in {} windows of {WINDOW:?}: medians of window p50 and tail, tail taken at p{tail_p:.2} or above",
            p50.len()
        ));
        m.set("setup_s", median(&setup_s));
        m.set("latency_p50_ms", median(&p50));
        m.set("latency_p99_ms", median(&tail));
        m.set("requests_per_s", median(&rps));
        m.set("images_per_s", median(&rps));
        m.set("train_images_per_s", CALIB_IMAGES as f64 / median(&calib_s));
        m.set(
            "eval_images_per_s",
            EVAL_BATCH as f64 * 1e3 / median(&fp32_ms),
        );
        return Ok(Outcome {
            tally,
            metrics: m,
            notes,
        });
    }

    let half = budget.mul_f64(0.4).saturating_sub(WARMUP);
    let plain = serve_window(&s, &images, &refs, half);
    trace::enable(true);
    alloc::counting(true);
    let traced_w = serve_window(&s, &images, &refs, half);
    alloc::counting(false);
    tally.merge(plain.tally);
    tally.merge(traced_w.tally);
    let (b1_ms, sat) = run_rung(&s, &images, &refs, 1, &mut tally);
    let (b2_ms, _) = run_rung(&s, &images, &refs, 2, &mut tally);
    let fp32_ms = median(&fp32.time(&images, budget.mul_f64(0.1)));
    trace::enable(false);

    let spans = trace::snapshot();
    let selfs = trace::self_times_ns(&spans);
    crate::set_setup_layers(&mut m, &spans, &selfs);
    let flat: Vec<f32> = refs.concat();
    m.set(
        "quant.val_top1",
        top1(&flat, flat.len() / IMAGES, &s.data.labels),
    );
    let infer_p50 = median(&trace::self_ms(&spans, &selfs, "serve.infer"));
    m.set("serve.infer_p50_ms", infer_p50);
    m.set("fixedpoint.run_b1_ms", b1_ms);
    m.set("fixedpoint.run_b2_ms", b2_ms);
    m.set("fixedpoint.saturated_per_image", sat as f64 / IMAGES as f64);
    m.set("graph.fp32_eval_ms", fp32_ms);
    m.set("fixedpoint.int8_over_fp32", b1_ms / fp32_ms);
    let per_req = |w: &Window| w.wall_s / w.lat_ms.len().max(1) as f64;
    m.set(
        "trace.overhead_frac",
        per_req(&traced_w) / per_req(&plain) - 1.0,
    );
    m.set(
        "serve.allocs_per_request",
        traced_w.allocs as f64 / traced_w.lat_ms.len().max(1) as f64,
    );
    if let Some(q) = &traced_w.queue {
        let batches = q.dispatched_batches.max(1) as f64;
        m.set("rt.mean_batch", q.dispatched_requests as f64 / batches);
        m.set(
            "rt.deadline_flush_share",
            q.deadline_flushes as f64 / batches,
        );
        m.set("rt.idle_dispatch_share", q.idle_dispatches as f64 / batches);
        m.set("rt.max_depth", q.max_depth as f64);
        let rungs = [(1, b1_ms), (2, b2_ms)];
        match compute_per_request_ms(s.engine.ladder(), &q.rung_dispatches, &rungs) {
            Some(compute) => {
                m.set("serve.queue_wait_ms", infer_p50 - compute);
                notes.push(format!(
                    "serve.infer_p50_ms {infer_p50:.4} = rung compute {compute:.4} + queue wait {:.4}; rung dispatches {:?}",
                    infer_p50 - compute,
                    q.rung_dispatches
                ));
            }
            None => notes.push(format!(
                "requests ran on unmeasured rungs: {:?}",
                q.rung_dispatches
            )),
        }
    }
    Ok(Outcome {
        tally,
        metrics: m,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_wait_weights_rungs_by_requests_not_batches() {
        // 30 batches of 1 (30 requests at 2 ms) and 10 batches of 2 (20
        // requests at 3 ms): 50 requests, (30*2 + 20*3) / 50 = 2.4 ms.
        let c = compute_per_request_ms(&[1, 2, 4, 8], &[30, 10, 0, 0], &[(1, 2.0), (2, 3.0)]);
        assert_eq!(c, Some(2.4));
        // An infer p50 of 3.5 ms then waited 1.1 ms in the queue.
        assert!((3.5 - c.unwrap() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_refuses_unmeasured_rungs() {
        let rungs = [(1, 2.0), (2, 3.0)];
        assert_eq!(
            compute_per_request_ms(&[1, 2, 4, 8], &[1, 0, 1, 0], &rungs),
            None
        );
        assert_eq!(compute_per_request_ms(&[1, 2, 4, 8], &[0; 4], &rungs), None);
    }
}
