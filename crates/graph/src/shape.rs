//! Symbolic shape inference: each node's output dims computed from op
//! metadata alone (weight dims, kernel geometry, channel counts), without
//! running any layer.
//!
//! [`output_dims`] is the single per-op shape rule. [`Graph::infer_shapes`]
//! walks it over the whole graph and panics on the first inconsistency;
//! the `tqt-verify` shape pass drives the same rule but keeps going,
//! reporting every failing node.

use crate::ir::{op_params, Graph, Op};
use tqt_nn::ParamKind;
use tqt_tensor::conv::Conv2dGeom;

impl Graph {
    /// Per-node output shapes for a given input shape, derived
    /// symbolically from op metadata (no kernel runs, no mutation).
    ///
    /// # Panics
    ///
    /// Panics if the graph has an edge that is not topological or if any
    /// node's input shapes are inconsistent with its op (the message names
    /// the node and the rule that failed).
    pub fn infer_shapes(&self, input_dims: &[usize]) -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.len());
        for (id, node) in self.iter() {
            let ins: Vec<&[usize]> = node
                .inputs
                .iter()
                .map(|&i| {
                    assert!(i < id, "node `{}` reads non-earlier node {i}", node.name);
                    shapes[i].as_slice()
                })
                .collect();
            match output_dims(&node.op, &ins, input_dims) {
                Ok(s) => shapes.push(s),
                Err(e) => panic!("shape inference failed at node `{}`: {e}", node.name),
            }
        }
        shapes
    }
}

/// Dims of an op's weight tensor, if it has one.
fn weight_dims(op: &Op) -> Option<Vec<usize>> {
    op_params(op)
        .into_iter()
        .find(|p| p.kind == ParamKind::Weight)
        .map(|p| p.value.dims().to_vec())
}

/// The output dims of `op` applied to inputs of dims `ins` (one entry per
/// input edge, in order). `Op::Input` yields `input_dims`, the `[n, c, h,
/// w]` the graph executes on.
///
/// # Errors
///
/// Returns a description of the inconsistency when the input dims do not
/// fit the op (wrong rank, channel mismatch, window larger than the padded
/// input, mismatched merge operands).
///
/// # Panics
///
/// Panics if `ins` holds fewer entries than the op's arity; structural
/// checks run before this rule.
pub fn output_dims(op: &Op, ins: &[&[usize]], input_dims: &[usize]) -> Result<Vec<usize>, String> {
    match op {
        Op::Input => Ok(input_dims.to_vec()),
        Op::Identity | Op::Relu(_) | Op::Quant { .. } => Ok(ins[0].to_vec()),
        Op::BatchNorm(_) => {
            let c = op_params(op).first().map_or(0, |p| p.value.len());
            if ins[0].len() < 2 || ins[0][1] != c {
                Err(format!(
                    "batch norm over {c} channels applied to input shape {:?}",
                    ins[0]
                ))
            } else {
                Ok(ins[0].to_vec())
            }
        }
        Op::Conv(l) => conv_shape(ins[0], weight_dims(op), l.geom(), false),
        Op::Depthwise(l) => conv_shape(ins[0], weight_dims(op), l.geom(), true),
        Op::Dense(_) => {
            let wd = weight_dims(op).unwrap_or_default();
            if ins[0].len() != 2 {
                Err(format!(
                    "dense needs a 2-D `[n, features]` input, got {:?}",
                    ins[0]
                ))
            } else if wd.len() != 2 || ins[0][1] != wd[0] {
                Err(format!(
                    "dense weight {:?} does not accept {} input features",
                    wd, ins[0][1]
                ))
            } else {
                Ok(vec![ins[0][0], wd[1]])
            }
        }
        Op::MaxPool(l) => pool_shape(ins[0], l.geom()),
        Op::AvgPool(l) => pool_shape(ins[0], l.geom()),
        Op::GlobalAvgPool(_) => {
            if ins[0].len() != 4 {
                Err(format!(
                    "global avg pool needs a 4-D input, got {:?}",
                    ins[0]
                ))
            } else {
                Ok(vec![ins[0][0], ins[0][1]])
            }
        }
        Op::Flatten(_) => match ins[0].split_first() {
            Some((&n, rest)) => Ok(vec![n, rest.iter().product::<usize>().max(1)]),
            None => Err("flatten needs at least a 1-D input".to_string()),
        },
        Op::Add(_) => {
            if ins.len() == 2 && ins[0] != ins[1] {
                Err(format!(
                    "eltwise add of mismatched shapes {:?} vs {:?}",
                    ins[0], ins[1]
                ))
            } else {
                Ok(ins[0].to_vec())
            }
        }
        Op::Concat(_) => {
            let first = ins[0];
            let mut channels = 0usize;
            let mut ok = first.len() >= 2;
            for s in ins {
                if s.len() != first.len() || s[0] != first[0] || s.get(2..) != first.get(2..) {
                    ok = false;
                }
                channels += s.get(1).copied().unwrap_or(0);
            }
            if !ok {
                Err(format!(
                    "concat inputs must agree outside the channel dim, got {:?}",
                    ins.iter().map(|s| s.to_vec()).collect::<Vec<_>>()
                ))
            } else {
                let mut out = first.to_vec();
                out[1] = channels;
                Ok(out)
            }
        }
    }
}

fn conv_shape(
    xin: &[usize],
    wdims: Option<Vec<usize>>,
    geom: Conv2dGeom,
    depthwise: bool,
) -> Result<Vec<usize>, String> {
    let wd = wdims.ok_or_else(|| "conv has no weight tensor".to_string())?;
    if xin.len() != 4 {
        return Err(format!(
            "conv needs a 4-D `[n, c, h, w]` input, got {xin:?}"
        ));
    }
    if wd.len() != 4 {
        return Err(format!(
            "conv weight must be 4-D `[co, ci, kh, kw]`, got {wd:?}"
        ));
    }
    let (n, c, h, w) = (xin[0], xin[1], xin[2], xin[3]);
    let expect_ci = if depthwise { 1 } else { c };
    let co = if depthwise { c } else { wd[0] };
    if wd[1] != expect_ci || (depthwise && wd[0] != c) {
        return Err(format!(
            "weight {wd:?} does not match {c} input channels (depthwise: {depthwise})"
        ));
    }
    if wd[2] != geom.kh || wd[3] != geom.kw {
        return Err(format!(
            "weight kernel {}x{} disagrees with geometry {}x{}",
            wd[2], wd[3], geom.kh, geom.kw
        ));
    }
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "kernel {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![n, co, oh, ow])
}

fn pool_shape(xin: &[usize], geom: Conv2dGeom) -> Result<Vec<usize>, String> {
    if xin.len() != 4 {
        return Err(format!(
            "pool needs a 4-D `[n, c, h, w]` input, got {xin:?}"
        ));
    }
    let (h, w) = (xin[2], xin[3]);
    if h + 2 * geom.pad < geom.kh || w + 2 * geom.pad < geom.kw {
        return Err(format!(
            "pool window {}x{} does not fit padded input {h}x{w} (pad {})",
            geom.kh, geom.kw, geom.pad
        ));
    }
    let (oh, ow) = geom.out_size(h, w);
    Ok(vec![xin[0], xin[1], oh, ow])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_nn::{Conv2d, Relu};
    use tqt_tensor::init;

    #[test]
    #[should_panic(expected = "shape inference failed at node `c1`")]
    fn infer_shapes_panics_on_the_first_inconsistent_node() {
        let mut rng = init::rng(7);
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add(
            "c1",
            Op::Conv(Conv2d::new("c1", 3, 8, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let r = g.add("r1", Op::Relu(Relu::new()), &[c]);
        g.set_output(r);
        g.infer_shapes(&[2, 5, 16, 16]);
    }
}
