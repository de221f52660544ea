//! Shared random-architecture generator for the root integration tests.
//!
//! Each test target compiles this module independently and may use only a
//! subset of it.
#![allow(dead_code)]

use tqt_graph::{Graph, Op};
use tqt_nn::{
    BatchNorm, Conv2d, Dense, DepthwiseConv2d, EltwiseAdd, GlobalAvgPool, MaxPool2d, Relu,
};
use tqt_rt::{Gen, Rng};
use tqt_tensor::conv::Conv2dGeom;
use tqt_tensor::init;

/// A random architecture description.
#[derive(Debug, Clone)]
pub struct NetSpec {
    pub blocks: Vec<BlockSpec>,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockSpec {
    Conv { ch: usize, bn: bool, relu6: bool },
    Depthwise { bn: bool },
    Residual,
    MaxPool,
    Leaky,
}

fn random_block(rng: &mut Rng) -> BlockSpec {
    match rng.gen_range(0..5u32) {
        0 => BlockSpec::Conv {
            ch: rng.gen_range(2usize..6),
            bn: rng.gen_bool(),
            relu6: rng.gen_bool(),
        },
        1 => BlockSpec::Depthwise { bn: rng.gen_bool() },
        2 => BlockSpec::Residual,
        3 => BlockSpec::MaxPool,
        _ => BlockSpec::Leaky,
    }
}

/// Generates a 1–4 block architecture with a weight seed. Shrinks by
/// dropping blocks (one at a time, then the whole tail) and zeroing the
/// seed, so failures reduce toward the smallest offending net.
pub fn net_gen() -> Gen<NetSpec> {
    Gen::new(
        |rng| {
            let n = rng.gen_range(1usize..5);
            NetSpec {
                blocks: (0..n).map(|_| random_block(rng)).collect(),
                seed: rng.gen_range(0u64..1000),
            }
        },
        |spec: &NetSpec| {
            let mut cands = Vec::new();
            for i in 0..spec.blocks.len() {
                if spec.blocks.len() > 1 {
                    let mut blocks = spec.blocks.clone();
                    blocks.remove(i);
                    cands.push(NetSpec {
                        blocks,
                        seed: spec.seed,
                    });
                }
            }
            if spec.seed != 0 {
                cands.push(NetSpec {
                    blocks: spec.blocks.clone(),
                    seed: 0,
                });
            }
            cands
        },
    )
}

/// Materializes the spec into a graph on 8x8 inputs with 2 input channels.
pub fn build(spec: &NetSpec) -> Graph {
    let mut rng = init::rng(spec.seed);
    let mut g = Graph::new();
    let mut x = g.add_input("input");
    let mut ch = 2usize;
    let mut size = 8usize;
    let mut n = 0usize;
    let name = |base: &str, n: &mut usize| {
        *n += 1;
        format!("{base}{n}")
    };
    for b in &spec.blocks {
        match *b {
            BlockSpec::Conv { ch: out, bn, relu6 } => {
                let nm = name("conv", &mut n);
                x = g.add(
                    nm.clone(),
                    Op::Conv(Conv2d::new(&nm, ch, out, Conv2dGeom::same(3), &mut rng)),
                    &[x],
                );
                if bn {
                    let bnm = name("bn", &mut n);
                    x = g.add(bnm.clone(), Op::BatchNorm(BatchNorm::new(&bnm, out, 0.9, 1e-5)), &[x]);
                }
                let r = if relu6 { Relu::relu6() } else { Relu::new() };
                x = g.add(name("relu", &mut n), Op::Relu(r), &[x]);
                ch = out;
            }
            BlockSpec::Depthwise { bn } => {
                let nm = name("dw", &mut n);
                x = g.add(
                    nm.clone(),
                    Op::Depthwise(DepthwiseConv2d::new(&nm, ch, Conv2dGeom::same(3), &mut rng)),
                    &[x],
                );
                if bn {
                    let bnm = name("bn", &mut n);
                    x = g.add(bnm.clone(), Op::BatchNorm(BatchNorm::new(&bnm, ch, 0.9, 1e-5)), &[x]);
                }
                x = g.add(name("relu", &mut n), Op::Relu(Relu::new()), &[x]);
            }
            BlockSpec::Residual => {
                let nm = name("resconv", &mut n);
                let main = g.add(
                    nm.clone(),
                    Op::Conv(Conv2d::new(&nm, ch, ch, Conv2dGeom::same(3), &mut rng)),
                    &[x],
                );
                x = g.add(name("add", &mut n), Op::Add(EltwiseAdd::new()), &[main, x]);
            }
            BlockSpec::MaxPool => {
                if size >= 4 {
                    x = g.add(name("pool", &mut n), Op::MaxPool(MaxPool2d::k2s2()), &[x]);
                    size /= 2;
                }
            }
            BlockSpec::Leaky => {
                let nm = name("lconv", &mut n);
                x = g.add(
                    nm.clone(),
                    Op::Conv(Conv2d::new(&nm, ch, ch, Conv2dGeom::same(3), &mut rng)),
                    &[x],
                );
                x = g.add(name("lrelu", &mut n), Op::Relu(Relu::leaky(0.1)), &[x]);
            }
        }
    }
    let gap = g.add("gap", Op::GlobalAvgPool(GlobalAvgPool::new()), &[x]);
    let mut rng2 = init::rng(spec.seed + 1);
    let fc = g.add("fc", Op::Dense(Dense::new("fc", ch, 3, &mut rng2)), &[gap]);
    g.set_output(fc);
    g
}

/// A hand-lowered integer graph on `[n, 2, 8, 8]` inputs that puts both
/// GEMM lanes to work: `conv_wide` reads a 16-bit input grid (`|x|` up
/// to 32768, beyond the narrow lane's i16 proof), the depthwise
/// `dw_wide` reads its 64-bit accumulator format (every channel on the
/// i128 loop), `conv_narrow` reads an 8-bit requantized grid, and `fc`
/// reads `conv_narrow`'s 64-bit accumulator format (wide again).
pub fn two_lane_int_graph(seed: u64) -> tqt_fixedpoint::IntGraph {
    use tqt_fixedpoint::lower::{IntNode, IntOp};
    use tqt_fixedpoint::QFormat;
    let mut rng = Rng::new(seed);
    let mut weights = |len: usize| {
        (0..len)
            .map(|_| rng.gen_range(-300i64..301))
            .collect::<Vec<_>>()
    };
    let conv = |w: Vec<i64>, cin: usize| IntOp::Conv {
        w,
        wdims: [4, cin, 3, 3],
        bias: None,
        geom: Conv2dGeom::same(3),
        depthwise: false,
        w_frac: 6,
    };
    let (w1, wdw) = (weights(4 * 2 * 9), weights(4 * 9));
    let (w2, w3) = (weights(4 * 4 * 9), weights(4 * 64 * 3));
    let node = |name: &str, op: IntOp, inputs: Vec<usize>| IntNode {
        name: name.into(),
        op,
        inputs,
    };
    let nodes = vec![
        node("input", IntOp::Input, vec![]),
        node(
            "q16",
            IntOp::QuantF32 {
                format: QFormat::new(10, 16, true),
            },
            vec![0],
        ),
        node("conv_wide", conv(w1, 2), vec![1]),
        node(
            "dw_wide",
            IntOp::Conv {
                w: wdw,
                wdims: [4, 1, 3, 3],
                bias: None,
                geom: Conv2dGeom::same(3),
                depthwise: true,
                w_frac: 6,
            },
            vec![2],
        ),
        node(
            "rq8",
            IntOp::Requant {
                format: QFormat::new(4, 8, false),
            },
            vec![3],
        ),
        node("conv_narrow", conv(w2, 4), vec![4]),
        node("flat", IntOp::Flatten, vec![5]),
        node(
            "fc",
            IntOp::Dense {
                w: w3,
                in_dim: 4 * 64,
                out_dim: 3,
                bias: Some(vec![5, -5, 0]),
                w_frac: 6,
            },
            vec![6],
        ),
    ];
    tqt_fixedpoint::IntGraph::from_parts(nodes, 7)
}
