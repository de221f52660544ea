//! Distribution and threshold reporting for Figures 5, 6 and 10: per-layer
//! weight/activation histograms before and after TQT retraining, with the
//! initialized and trained raw thresholds.

use tqt_graph::{Graph, Op, ThresholdMode};
use tqt_nn::{Mode, ParamKind};
use tqt_tensor::Tensor;

/// A simple symmetric histogram of a tensor for plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct DistHist {
    /// Bin edges lower bound (symmetric range `[-max, max]`).
    pub max_abs: f32,
    /// Counts over `bins` equal-width bins spanning `[-max_abs, max_abs]`.
    pub counts: Vec<u32>,
}

impl DistHist {
    /// Builds a histogram with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the tensor is empty.
    pub fn of(t: &Tensor, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(!t.is_empty(), "histogram of empty tensor");
        let max_abs = t.abs_max().max(f32::MIN_POSITIVE);
        let mut counts = vec![0u32; bins];
        let scale = bins as f32 / (2.0 * max_abs);
        for &v in t.data() {
            let idx = (((v + max_abs) * scale) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        DistHist { max_abs, counts }
    }

    /// Serializes as `bin_center:count` pairs for CSV output.
    pub fn to_csv_cells(&self) -> String {
        let bins = self.counts.len();
        let width = 2.0 * self.max_abs / bins as f32;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let center = -self.max_abs + (i as f32 + 0.5) * width;
                format!("{center:.5}:{c}")
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// Per-quantized-layer report entry (one panel of Figure 5 / 10).
#[derive(Debug, Clone)]
pub struct LayerDist {
    /// Threshold parameter name.
    pub name: String,
    /// Quantizer bit-width.
    pub bits: u32,
    /// Raw threshold `t = 2^(log2 t)` at the given capture point.
    pub raw_threshold: f32,
    /// Histogram of the tensor the quantizer sees.
    pub hist: DistHist,
}

/// Captures the distribution seen by every quantizer in a quantized graph:
/// weight quantizers report the full-precision weight tensor, activation
/// quantizers the activation produced by their input node for `sample`.
/// Every parameter and batch-norm running statistic is left as found.
///
/// # Panics
///
/// Panics if the graph is not quantized/calibrated.
pub fn capture_distributions(g: &mut Graph, sample: &Tensor, bins: usize) -> Vec<LayerDist> {
    // A training-mode forward retains per-node activations, but it also
    // leaves each weight-quantized node holding its quantized weights (the
    // backward pass would restore them) and updates batch-norm running
    // statistics. Snapshot before and restore after.
    let saved = g.state_dict();
    let _ = g.forward(sample, Mode::Train);
    let acts: Vec<Tensor> = g.activations().to_vec();
    g.load_state_dict(&saved);
    let mut out = Vec::new();
    for id in 0..g.len() {
        // Activation quantizers: histogram of the input activation.
        if let Op::Quant { tid } = g.node(id).op {
            let input = g.node(id).inputs[0];
            let ts = &g.thresholds()[tid];
            if ts.mode == ThresholdMode::Trained {
                out.push(LayerDist {
                    name: ts.param.name.clone(),
                    bits: ts.spec.bits(),
                    raw_threshold: 2f32.powf(ts.log2_t()),
                    hist: DistHist::of(&acts[input], bins),
                });
            }
        }
        // Weight quantizers: histogram of the weights.
        if let Some(wq) = &g.node(id).wq {
            let tid = wq.tid;
            let ts = &g.thresholds()[tid];
            if ts.mode != ThresholdMode::Trained {
                continue;
            }
            let name = ts.param.name.clone();
            let bits_ = ts.spec.bits();
            let raw_t = 2f32.powf(ts.log2_t());
            let node = g.node_mut(id);
            let w = tqt_graph::ir::op_params_mut(&mut node.op)
                .into_iter()
                .find(|p| p.kind == ParamKind::Weight)
                .expect("weight quantizer without weights");
            out.push(LayerDist {
                name,
                bits: bits_,
                raw_threshold: raw_t,
                hist: DistHist::of(&w.value, bins),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
    use tqt_models::{ModelKind, INPUT_DIMS};
    use tqt_tensor::init;

    #[test]
    fn histogram_counts_all_values() {
        let t = Tensor::from_slice(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let h = DistHist::of(&t, 4);
        assert_eq!(h.counts.iter().sum::<u32>(), 5);
        assert_eq!(h.max_abs, 1.0);
    }

    #[test]
    fn csv_cells_parse_back() {
        let t = Tensor::from_slice(&[-1.0, 1.0]);
        let h = DistHist::of(&t, 2);
        let cells = h.to_csv_cells();
        assert_eq!(cells.split(';').count(), 2);
        assert!(cells.contains(':'));
    }

    #[test]
    fn capture_covers_all_trained_quantizers() {
        let mut g = ModelKind::MobileNetV1.build(1);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(9);
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        g.calibrate(&x);
        let dists = capture_distributions(&mut g, &x, 32);
        let trained = g
            .thresholds()
            .iter()
            .filter(|t| t.mode == ThresholdMode::Trained)
            .count();
        assert_eq!(dists.len(), trained);
        for d in &dists {
            assert!(d.raw_threshold > 0.0);
            assert!(d.hist.counts.iter().sum::<u32>() > 0);
        }
    }

    #[test]
    fn capture_leaves_the_state_dict_as_found() {
        let mut g = ModelKind::MobileNetV1.build(1);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(10);
        let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        g.calibrate(&x);
        let before = g.state_dict();
        let dists = capture_distributions(&mut g, &x, 32);
        assert!(!dists.is_empty());
        assert_eq!(g.state_dict(), before);
    }
}
