//! Symbolic shape inference agrees with execution: for every zoo model —
//! as built, optimized, and quantized — `Graph::infer_shapes` must return
//! exactly the dims of the per-node activations a training-mode legacy
//! forward retains, at batch 1 and 32.

use tqt_graph::{quantize_graph, transforms, Graph, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::Mode;
use tqt_tensor::init;

fn assert_agrees(g: &mut Graph, dims: &[usize], tag: &str) {
    let inferred = g.infer_shapes(dims);
    let mut rng = init::rng(11);
    let x = init::normal(dims.to_vec(), 0.0, 1.0, &mut rng);
    g.forward(&x, Mode::Train);
    let executed: Vec<Vec<usize>> = g.activations().iter().map(|t| t.dims().to_vec()).collect();
    assert_eq!(inferred.len(), g.len(), "{tag}: one shape per node");
    assert_eq!(executed.len(), g.len(), "{tag}: one activation per node");
    for (id, node) in g.iter() {
        assert_eq!(
            inferred[id], executed[id],
            "{tag}: node `{}` inferred vs executed dims",
            node.name
        );
    }
}

#[test]
fn inferred_shapes_match_executed_activations_zoo_wide() {
    for &kind in ModelKind::all() {
        for batch in [1, 32] {
            let mut dims = INPUT_DIMS;
            dims[0] = batch;
            let mut g = kind.build(3);
            assert_agrees(&mut g, &dims, &format!("{kind:?}/built/b{batch}"));

            let mut g = kind.build(3);
            transforms::optimize(&mut g, &dims);
            assert_agrees(&mut g, &dims, &format!("{kind:?}/optimized/b{batch}"));

            quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
            let mut rng = init::rng(12);
            g.calibrate(&init::normal(dims.to_vec(), 0.0, 1.0, &mut rng));
            assert_agrees(&mut g, &dims, &format!("{kind:?}/quantized/b{batch}"));
        }
    }
}
