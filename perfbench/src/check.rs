//! Output checks that do not trust the engine under test, and the MAC
//! count of an integer plan.
//!
//! The reference for every integer output is the baked float graph's
//! `forward(.., Mode::Eval)`: lowering makes the two agree exactly (paper
//! §4.2), so a dequantized integer logit that differs from the float one
//! by any amount is a wrong output.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tqt_fixedpoint::lower::IntOp;
use tqt_fixedpoint::{IntGraph, IntPlan, QFormat};

/// Operations attempted and failed. A failure is a wrong output, a failed
/// check or a panic; none of them stops the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Runs `op`, recording a panic as a failure; `None` if it panicked.
    pub fn guard<T>(&mut self, op: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(op)).ok();
        if out.is_none() {
            self.record(false);
        }
        out
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Whether integer outputs at `format`, dequantized as
/// `QTensor::dequantize` does (`int * 2^-frac`), equal `reference`
/// exactly.
pub fn logits_match(ints: &[i64], format: QFormat, reference: &[f32]) -> bool {
    let scale = format.scale();
    ints.len() == reference.len()
        && ints
            .iter()
            .zip(reference)
            .all(|(&q, &r)| q as f32 * scale == r)
}

/// Multiply-accumulates of one run of `plan`: per conv/dense node (fused
/// or not), output elements times the reduction length.
pub fn macs(g: &IntGraph, plan: &IntPlan) -> u64 {
    g.nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| {
            let core = match &node.op {
                IntOp::Fused { core, .. } => core.as_ref(),
                op => op,
            };
            let out: usize = plan.shape(id).iter().product();
            let k = match core {
                IntOp::Conv { wdims, .. } => wdims[1] * wdims[2] * wdims[3],
                IntOp::Dense { in_dim, .. } => *in_dim,
                _ => 0,
            };
            (out * k) as u64
        })
        .sum()
}

/// Top-1 accuracy of row-major `logits` (`classes` per row) against
/// `labels`.
pub fn top1(logits: &[f32], classes: usize, labels: &[usize]) -> f64 {
    let hits = logits
        .chunks(classes)
        .zip(labels)
        .filter(|(row, &y)| {
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            best == Some(y)
        })
        .count();
    hits as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tqt_fixedpoint::lower::{IntNode, IntOp};
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions};
    use tqt_models::{ModelKind, INPUT_DIMS};
    use tqt_nn::Mode;
    use tqt_rt::queue::scoped_threads;
    use tqt_serve::Engine;
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn node(name: &str, op: IntOp, inputs: &[usize]) -> IntNode {
        IntNode {
            name: name.to_string(),
            op,
            inputs: inputs.to_vec(),
        }
    }

    #[test]
    fn macs_count_conv_depthwise_and_dense_reductions() {
        let f = QFormat::new(4, 8, true);
        let g = IntGraph::from_parts(
            vec![
                node("in", IntOp::Input, &[]),
                node("q", IntOp::QuantF32 { format: f }, &[0]),
                node(
                    "conv",
                    IntOp::Conv {
                        w: vec![1; 4 * 3 * 3 * 3],
                        wdims: [4, 3, 3, 3],
                        bias: None,
                        geom: Conv2dGeom::new(3, 1, 1),
                        depthwise: false,
                        w_frac: 0,
                    },
                    &[1],
                ),
                node("rq", IntOp::Requant { format: f }, &[2]),
                node(
                    "dw",
                    IntOp::Conv {
                        w: vec![1; 4 * 3 * 3],
                        wdims: [4, 1, 3, 3],
                        bias: None,
                        geom: Conv2dGeom::new(3, 2, 1),
                        depthwise: true,
                        w_frac: 0,
                    },
                    &[3],
                ),
                node("rq2", IntOp::Requant { format: f }, &[4]),
                node("flat", IntOp::Flatten, &[5]),
                node(
                    "fc",
                    IntOp::Dense {
                        w: vec![1; 4 * 4 * 4 * 10],
                        in_dim: 4 * 4 * 4,
                        out_dim: 10,
                        bias: None,
                        w_frac: 0,
                    },
                    &[6],
                ),
            ],
            7,
        );
        let plan = g.plan(&[2, 3, 8, 8]);
        // conv: [2,4,8,8] x 27, depthwise stride 2: [2,4,4,4] x 9,
        // dense: [2,10] x 64.
        assert_eq!(macs(&g, &plan), 512 * 27 + 128 * 9 + 20 * 64);
    }

    #[test]
    fn one_corrupted_reply_is_counted() {
        let mut g = ModelKind::VggA.build(5);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::static_int8());
        let mut rng = init::rng(6);
        g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
        let ig = tqt_fixedpoint::lower(&mut g);
        let images: Vec<_> = (0..6)
            .map(|_| init::normal(INPUT_DIMS, 0.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<Vec<f32>> = images
            .iter()
            .map(|x| g.forward(x, Mode::Eval).data().to_vec())
            .collect();
        let engine = Engine::build(ig, &INPUT_DIMS).expect("zoo plans prove");
        let (replies, _) = engine.serve(2, Duration::from_millis(1), |client| {
            let (mut out, ()) = scoped_threads(
                2,
                |c| {
                    images
                        .iter()
                        .skip(c)
                        .step_by(2)
                        .map(|x| client.infer(x.data()))
                        .collect::<Vec<_>>()
                },
                || {},
            );
            // Back to image order: client c served images c, c+2, ...
            let (odd, even) = (out.pop().unwrap(), out.pop().unwrap());
            even.into_iter()
                .zip(odd)
                .flat_map(|(a, b)| [a, b])
                .collect::<Vec<_>>()
        });
        let tally_of = |replies: &[tqt_serve::Reply]| {
            let mut t = Tally::default();
            for (r, want) in replies.iter().zip(&refs) {
                t.record(logits_match(&r.logits, r.format, want));
            }
            t
        };
        assert_eq!(
            tally_of(&replies),
            Tally {
                attempted: 6,
                failed: 0
            }
        );
        let mut corrupted = replies.clone();
        corrupted[3].logits[2] += 1;
        assert_eq!(
            tally_of(&corrupted),
            Tally {
                attempted: 6,
                failed: 1
            }
        );
    }

    #[test]
    fn panics_count_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.guard(|| 7), Some(7));
        let out: Option<()> = t.guard(|| panic!("deliberate test panic"));
        assert_eq!(out, None);
        assert_eq!(
            t,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
    }

    #[test]
    fn top1_reads_argmax() {
        let logits = [0.1, 0.9, 0.5, 0.2, 0.3, 0.1];
        assert_eq!(top1(&logits, 3, &[1, 0]), 0.5);
    }
}
