//! Execution planning and the buffer-reusing executor for [`IntGraph`].
//!
//! The graph is static, so every node's output shape, Q-format and
//! lifetime are known before the first run. [`IntPlan`] computes exactly
//! that — shapes and formats by static inference (mirroring the runtime
//! rules one-to-one), then a liveness pass that assigns nodes to a small
//! set of reusable buffer *slots*: a node's buffer is recycled as soon as
//! its last consumer has executed. [`IntExecutor`] owns one allocation
//! per slot and reuses it across nodes *and* across runs.
//!
//! **Lanes.** Activations are stored as `i64`, but the arithmetic is
//! only as wide as the plan can prove it must be. Each conv/dense node
//! gets a [`Lane`] at plan time: [`Lane::Narrow`] — an `i16 × i16 → i32`
//! `madd` GEMM ([`crate::intgemm::narrow_micro`]) — when every value of
//! the node's input format and every weight fits `i16` and `max|x| ·
//! max_row Σ|w| < 2³¹`; [`Lane::Wide`] — the exact-`i128` GEMM — for
//! every other node. The proof alone decides; there is no knob. The
//! plan packs each node's weights once, in the chosen lane's panel
//! layout only, into a plan-owned arena. Depthwise convs take the same
//! proof per channel and accumulate proven channels in `i32`. Every
//! lane stores its accumulator rows through the shared row epilogue
//! ([`crate::intgemm::Epilogue::store_row`]: bias, narrow, fused steps),
//! so outputs and saturation/overflow counts do not depend on the lane
//! (`tests/narrow_lane_parity.rs`), and the plan verifier re-proves each
//! narrow lane independently (`TQT-V018`).
//!
//! The op kernels are the engine's hot path and are parallelized over
//! the `tqt-rt` pool with **fixed-size blocks** (narrow convs over
//! `(image, column tile)`), so the work partition — and therefore every
//! saturation/overflow count — is independent of the thread count.
//! Serial and parallel runs are bit-identical; counters are merged
//! through order-independent `tqt_rt::sync::Counter` sums.

use crate::intgemm::{
    depthwise_plane, fits_i16, gemm_i64_narrow_fused, gemm_narrow_packed, narrow_conv_kpairs,
    narrow_conv_lhs_len, narrow_lhs_len, narrow_micro, narrow_panel_len, narrow_rhs_len, pack_lhs,
    pack_narrow_conv, pack_narrow_lhs, pack_narrow_rhs, pack_rhs, packed_lhs_len, packed_rhs_len,
    to_i16, Epilogue, Lhs, Rhs, TileStep, NMR, NNR,
};
use crate::gemm_i8::has_avx2;
use crate::lower::{narrow, EpiStep, IntGraph, IntNode, IntOp, RunStats, LEAKY_ALPHA_FRAC};
use crate::qtensor::{QFormat, QTensor};
use crate::requant::shift_round;
use tqt_quant::round_half_even;
use tqt_rt::pool;
use tqt_rt::sync::Counter;
use tqt_tensor::conv::{im2col_into, Conv2dGeom};
use tqt_tensor::scratch::{ScratchI16, ScratchI64};
use tqt_tensor::Tensor;

/// Fixed block size for parallel elementwise kernels. Constant (never
/// derived from the thread count) so chunk boundaries — and with them
/// every per-chunk counter — are the same in serial and parallel runs.
const ELEM_BLOCK: usize = 4096;

/// The compute op a node actually runs: the core of a [`IntOp::Fused`]
/// node, the op itself otherwise.
fn core_op(op: &IntOp) -> &IntOp {
    match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    }
}

/// The GEMM lane a conv/dense node runs on, chosen at plan time by the
/// narrow-lane proof (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// `i16 × i16 → i32` `madd` GEMM: the plan proved `|acc| < 2³¹`.
    Narrow,
    /// `i64 × i64` GEMM with exact `i128` accumulation.
    Wide,
}

/// Where a conv/dense node's packed weights live: its lane, and the
/// `(offset, len)` of its panels in that lane's arena.
#[derive(Debug, Clone, Copy)]
struct Panel {
    lane: Lane,
    off: usize,
    len: usize,
}

/// Largest magnitude a value of format `f` can take.
fn max_abs(f: QFormat) -> u64 {
    f.qmin().unsigned_abs().max(f.qmax().unsigned_abs())
}

/// `Σ|w|` over one weight row (saturating: a sum that large is never
/// narrow anyway).
fn l1(row: impl Iterator<Item = i64>) -> u64 {
    row.fold(0u64, |s, v| s.saturating_add(v.unsigned_abs()))
}

/// The narrow-lane proof for weights `w` (row sums `row_l1`) over input
/// format `f`: every input value and every weight fits `i16`, and
/// `max|x| · Σ_k |w[row, k]| < 2³¹` for every row, so no i32 partial
/// sum can wrap.
fn lane_of(f: QFormat, w: &[i64], mut row_l1: impl Iterator<Item = u64>) -> Lane {
    let xmax = max_abs(f);
    let proven = xmax <= i16::MAX as u64
        && w.iter().all(|&v| fits_i16(v))
        && row_l1.all(|s| u128::from(xmax) * u128::from(s) < 1 << 31);
    if proven {
        Lane::Narrow
    } else {
        Lane::Wide
    }
}

/// Appends one zeroed `len`-element panel to `arena`, fills it with
/// `pack`, and returns its offset.
fn push_panel<T: Copy + Default>(
    arena: &mut Vec<T>,
    len: usize,
    pack: impl FnOnce(&mut [T]),
) -> usize {
    let off = arena.len();
    arena.resize(off + len, T::default());
    pack(&mut arena[off..]);
    off
}

/// Resolves a fused node's graph-level epilogue into tile steps against
/// the chain's running fractional length (shifts are relative, formats
/// absolute). `in_frac` is the core's input format.
fn tile_steps(core: &IntOp, epi: &[EpiStep], in_frac: i32) -> Vec<TileStep> {
    let w_frac = match core {
        IntOp::Conv { w_frac, .. } | IntOp::Dense { w_frac, .. } => *w_frac,
        other => panic!("fused core must be conv or dense, got {other:?}"),
    };
    let mut cur_frac = in_frac + w_frac;
    epi.iter()
        .map(|step| match step {
            EpiStep::Requant { format } => {
                let shift = cur_frac - format.frac;
                cur_frac = format.frac;
                TileStep::Requant {
                    shift,
                    qmin: format.qmin(),
                    qmax: format.qmax(),
                }
            }
            EpiStep::AddResidual => TileStep::AddResidual,
            EpiStep::Relu { cap_q } => TileStep::ReluCap(cap_q.unwrap_or(i64::MAX)),
            EpiStep::LeakyRelu { alpha_q } => {
                cur_frac += LEAKY_ALPHA_FRAC;
                TileStep::Leaky(*alpha_q)
            }
        })
        .collect()
}

/// High-water marks of the executor's scratch checkouts, the only
/// workspace outside the slot buffers: `(wide, narrow)` = the wide
/// lane's per-image `i64` im2col columns, and the narrow lane's `i16`
/// panels (one activation panel per conv column tile; a dense node's
/// packed input rows).
fn scratch_high_water(
    nodes: &[IntNode],
    shapes: &[Vec<usize>],
    panels: &[Option<Panel>],
) -> (usize, usize) {
    let (mut wide, mut narrow) = (0usize, 0usize);
    for (node, panel) in nodes.iter().zip(panels) {
        let (Some(p), Some(&i0)) = (panel, node.inputs.first()) else {
            continue;
        };
        let ish = &shapes[i0];
        match (core_op(&node.op), p.lane) {
            (IntOp::Conv { geom, .. }, Lane::Wide) => {
                let (oh, ow) = geom.out_size(ish[2], ish[3]);
                wide = wide.max(ish[1] * geom.kh * geom.kw * oh * ow);
            }
            (IntOp::Conv { wdims, .. }, Lane::Narrow) => {
                narrow = narrow.max(narrow_panel_len(2 * narrow_conv_kpairs(*wdims)));
            }
            (IntOp::Dense { in_dim, .. }, Lane::Narrow) => {
                narrow = narrow.max(narrow_lhs_len(ish[0], *in_dim));
            }
            _ => {}
        }
    }
    (wide, narrow)
}

/// A static execution plan for one [`IntGraph`] at one input shape:
/// per-node output shapes and Q-formats, a liveness-based assignment of
/// nodes to reusable buffer slots, each conv/dense node's proven lane
/// with its packed weights, and each fused node's resolved epilogue.
#[derive(Debug)]
pub struct IntPlan {
    input_dims: Vec<usize>,
    shapes: Vec<Vec<usize>>,
    formats: Vec<QFormat>,
    lens: Vec<usize>,
    slot: Vec<usize>,
    slot_lens: Vec<usize>,
    /// High-water mark of the wide lane's per-image `i64` im2col
    /// checkout.
    scratch_elems: usize,
    /// High-water mark of the narrow lane's `i16` activation-panel
    /// checkout.
    narrow_scratch_elems: usize,
    /// Plan-owned weight arenas: every conv/dense weight matrix (fused or
    /// not), packed once at build time in its lane's panel layout only.
    /// Read-only after construction, so any number of executors may
    /// share one plan ([`IntExecutor::with_plan`]) without
    /// synchronization.
    wpack: Vec<i64>,
    npack: Vec<i16>,
    /// Per node: lane and panel extent (conv/dense cores only).
    panels: Vec<Option<Panel>>,
    /// Per node: the fused epilogue as tile steps (empty when unfused).
    epis: Vec<Vec<TileStep>>,
    /// Per depthwise node: which channels the narrow proof covers.
    dw_narrow: Vec<Vec<bool>>,
}

impl IntPlan {
    /// Plans `g` for inputs of shape `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics where the runtime would: dense feature mismatches, add or
    /// concat format mismatches, non-power-of-two global average pools.
    pub fn new(g: &IntGraph, input_dims: &[usize]) -> Self {
        let nodes = g.nodes();
        let n = nodes.len();
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut formats: Vec<QFormat> = Vec::with_capacity(n);
        for node in nodes {
            let i0 = node.inputs.first().copied();
            let (shape, format) = match &node.op {
                // The raw float input placeholder owns no integer buffer;
                // its consumer (QuantF32) reads the float tensor directly.
                IntOp::Input => (vec![0], QFormat::new(0, 8, true)),
                IntOp::QuantF32 { format } => (input_dims.to_vec(), *format),
                IntOp::Requant { format } => {
                    let i0 = i0.expect("requant needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    (shapes[i0].clone(), *format)
                }
                IntOp::Conv {
                    wdims,
                    geom,
                    w_frac,
                    ..
                } => {
                    let i0 = i0.expect("conv needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    let ish = &shapes[i0];
                    let (oh, ow) = geom.out_size(ish[2], ish[3]);
                    (
                        vec![ish[0], wdims[0], oh, ow],
                        QFormat::new(formats[i0].frac + w_frac, 64, true),
                    )
                }
                IntOp::Dense {
                    in_dim,
                    out_dim,
                    w_frac,
                    ..
                } => {
                    let i0 = i0.expect("dense needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    let ish = &shapes[i0];
                    assert_eq!(ish[1], *in_dim, "dense input feature mismatch");
                    (
                        vec![ish[0], *out_dim],
                        QFormat::new(formats[i0].frac + w_frac, 64, true),
                    )
                }
                IntOp::Relu { .. } => {
                    let i0 = i0.expect("relu needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    (shapes[i0].clone(), formats[i0])
                }
                IntOp::LeakyRelu { .. } => {
                    let i0 = i0.expect("leaky relu needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    (
                        shapes[i0].clone(),
                        QFormat::new(formats[i0].frac + LEAKY_ALPHA_FRAC, 64, true),
                    )
                }
                IntOp::MaxPool { geom } => {
                    let i0 = i0.expect("maxpool needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    let ish = &shapes[i0];
                    let (oh, ow) = geom.out_size(ish[2], ish[3]);
                    (vec![ish[0], ish[1], oh, ow], formats[i0])
                }
                IntOp::GlobalAvgPool => {
                    let i0 = i0.expect("gap needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    let ish = &shapes[i0];
                    let hw = ish[2] * ish[3];
                    assert!(
                        hw.is_power_of_two(),
                        "global average pool needs power-of-two spatial size for exact \
                         fixed-point division, got {}x{}",
                        ish[2],
                        ish[3]
                    );
                    (
                        vec![ish[0], ish[1]],
                        QFormat::new(formats[i0].frac + hw.trailing_zeros() as i32, 64, true),
                    )
                }
                IntOp::Add => {
                    let (a, b) = (node.inputs[0], node.inputs[1]);
                    assert_eq!(
                        formats[a], formats[b],
                        "eltwise-add formats must match (scale merging)"
                    );
                    assert_eq!(
                        shapes[a].iter().product::<usize>(),
                        shapes[b].iter().product::<usize>(),
                        "eltwise-add operand sizes must match"
                    );
                    (shapes[a].clone(), QFormat::new(formats[a].frac, 64, true))
                }
                IntOp::Concat => {
                    let f = formats[node.inputs[0]];
                    for &i in &node.inputs {
                        assert_eq!(formats[i], f, "concat formats must match (scale merging)");
                    }
                    let ish = &shapes[node.inputs[0]];
                    let c_out: usize = node.inputs.iter().map(|&i| shapes[i][1]).sum();
                    let mut dims = vec![ish[0], c_out];
                    dims.extend(&ish[2..]);
                    (dims, f)
                }
                IntOp::Flatten => {
                    let i0 = i0.expect("flatten needs an input"); // tqt:allow(expect): from_parts guarantees arity for lowered graphs
                    let ish = &shapes[i0];
                    let feat: usize = ish.iter().product::<usize>() / ish[0];
                    (vec![ish[0], feat], formats[i0])
                }
                // A fused node's shape is its core's; its format folds the
                // epilogue through the exact per-step rules of the
                // standalone nodes it replaced.
                IntOp::Fused { core, epi } => {
                    let i0 = i0.expect("fused needs an input"); // tqt:allow(expect): the fuse pass guarantees arity
                    let (shape, mut f) = match core.as_ref() {
                        IntOp::Conv {
                            wdims,
                            geom,
                            w_frac,
                            ..
                        } => {
                            let ish = &shapes[i0];
                            let (oh, ow) = geom.out_size(ish[2], ish[3]);
                            (
                                vec![ish[0], wdims[0], oh, ow],
                                QFormat::new(formats[i0].frac + w_frac, 64, true),
                            )
                        }
                        IntOp::Dense {
                            in_dim,
                            out_dim,
                            w_frac,
                            ..
                        } => {
                            let ish = &shapes[i0];
                            assert_eq!(ish[1], *in_dim, "dense input feature mismatch");
                            (
                                vec![ish[0], *out_dim],
                                QFormat::new(formats[i0].frac + w_frac, 64, true),
                            )
                        }
                        other => panic!("fused core must be conv or dense, got {other:?}"),
                    };
                    for step in epi {
                        match step {
                            EpiStep::Requant { format } => f = *format,
                            EpiStep::AddResidual => {
                                let r = node.inputs[1];
                                assert_eq!(
                                    formats[r], f,
                                    "fused residual-add formats must match (scale merging)"
                                );
                                assert_eq!(
                                    shapes[r].iter().product::<usize>(),
                                    shape.iter().product::<usize>(),
                                    "fused residual operand size must match"
                                );
                                f = QFormat::new(f.frac, 64, true);
                            }
                            EpiStep::Relu { .. } => {}
                            EpiStep::LeakyRelu { .. } => {
                                f = QFormat::new(f.frac + LEAKY_ALPHA_FRAC, 64, true);
                            }
                        }
                    }
                    (shape, f)
                }
            };
            shapes.push(shape);
            formats.push(format);
        }
        let lens: Vec<usize> = shapes.iter().map(|s| s.iter().product()).collect();

        // Lanes and the plan-owned weight arenas: prove each conv/dense
        // core narrow or not against its input format, then pack its
        // weights once, in that lane's panel layout only, so per-call
        // packing cost is zero. Packing only permutes the operand.
        let mut panels: Vec<Option<Panel>> = vec![None; n];
        let mut dw_narrow: Vec<Vec<bool>> = vec![Vec::new(); n];
        let (mut wpack, mut npack): (Vec<i64>, Vec<i16>) = (Vec::new(), Vec::new());
        for (id, node) in nodes.iter().enumerate() {
            let Some(&i0) = node.inputs.first() else {
                continue;
            };
            let f = formats[i0];
            panels[id] = match core_op(&node.op) {
                IntOp::Conv {
                    w,
                    wdims,
                    depthwise: true,
                    ..
                } => {
                    let taps = (wdims[2] * wdims[3]).max(1);
                    dw_narrow[id] = w
                        .chunks(taps)
                        .map(|wk| lane_of(f, wk, std::iter::once(l1(wk.iter().copied()))))
                        .map(|lane| lane == Lane::Narrow)
                        .collect();
                    None
                }
                IntOp::Conv { w, wdims, .. } => {
                    let (m, k) = (wdims[0], wdims[1] * wdims[2] * wdims[3]);
                    let lane = lane_of(f, w, w.chunks(k.max(1)).map(|r| l1(r.iter().copied())));
                    Some(match lane {
                        Lane::Narrow => {
                            let len = narrow_conv_lhs_len(*wdims);
                            let off =
                                push_panel(&mut npack, len, |d| pack_narrow_conv(w, *wdims, d));
                            Panel { lane, off, len }
                        }
                        Lane::Wide => {
                            let len = packed_lhs_len(m, k);
                            let off = push_panel(&mut wpack, len, |d| pack_lhs(w, m, k, d));
                            Panel { lane, off, len }
                        }
                    })
                }
                IntOp::Dense {
                    w,
                    in_dim,
                    out_dim,
                    ..
                } => {
                    let (k, m) = (*in_dim, *out_dim);
                    let cols = (0..m).map(|o| l1(w.iter().skip(o).step_by(m.max(1)).copied()));
                    let lane = lane_of(f, w, cols);
                    Some(match lane {
                        Lane::Narrow => {
                            let len = narrow_rhs_len(k, m);
                            let off = push_panel(&mut npack, len, |d| pack_narrow_rhs(w, k, m, d));
                            Panel { lane, off, len }
                        }
                        Lane::Wide => {
                            let len = packed_rhs_len(k, m);
                            let off = push_panel(&mut wpack, len, |d| pack_rhs(w, k, m, d));
                            Panel { lane, off, len }
                        }
                    })
                }
                _ => None,
            };
        }
        wpack.shrink_to_fit();
        npack.shrink_to_fit();
        let (scratch_elems, narrow_scratch_elems) = scratch_high_water(nodes, &shapes, &panels);
        let epis: Vec<Vec<TileStep>> = nodes
            .iter()
            .map(|node| match &node.op {
                IntOp::Fused { core, epi } => tile_steps(core, epi, formats[node.inputs[0]].frac),
                _ => Vec::new(),
            })
            .collect();

        // Liveness-based slot assignment via the shared dtype-generic
        // planner: one single-write tape step per node (write its own
        // value, read its inputs), output pinned live. The planner claims
        // a step's write slot *before* its reads are released, so an op
        // never writes into a buffer it is reading.
        let steps: Vec<tqt_plan::TapeStep> = nodes
            .iter()
            .enumerate()
            .map(|(id, node)| tqt_plan::TapeStep::new(vec![id], node.inputs.clone()))
            .collect();
        let assignment = tqt_plan::assign_slots(&lens, &steps, &[g.output_id()]);
        let (slot, slot_lens) = (assignment.slot, assignment.slot_lens);
        IntPlan {
            input_dims: input_dims.to_vec(),
            shapes,
            formats,
            lens,
            slot,
            slot_lens,
            scratch_elems,
            narrow_scratch_elems,
            wpack,
            npack,
            panels,
            epis,
            dw_narrow,
        }
    }

    /// Output shape of node `id`.
    pub fn shape(&self, id: usize) -> &[usize] {
        &self.shapes[id]
    }

    /// Output Q-format of node `id`.
    pub fn format(&self, id: usize) -> QFormat {
        self.formats[id]
    }

    /// Number of physical activation buffers the executor allocates.
    pub fn num_slots(&self) -> usize {
        self.slot_lens.len()
    }

    /// Total elements across the reusable slot buffers.
    pub fn total_buffer_elems(&self) -> usize {
        self.slot_lens.iter().sum()
    }

    /// Total elements a per-node allocation scheme would hold live (what
    /// the executor saves against).
    pub fn activation_elems(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Number of planned nodes.
    pub fn num_nodes(&self) -> usize {
        self.slot.len()
    }

    /// The slot node `id` writes its output into.
    pub fn slot_of(&self, id: usize) -> usize {
        self.slot[id]
    }

    /// Output element count of node `id`.
    pub fn len_of(&self, id: usize) -> usize {
        self.lens[id]
    }

    /// Allocated element capacity of slot `s`.
    pub fn slot_len(&self, s: usize) -> usize {
        self.slot_lens[s]
    }

    /// The input shape this plan was built for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// High-water mark (elements) of the wide lane's per-image `i64`
    /// im2col checkout — workspace held in the thread-local arena,
    /// disjoint from the slot buffers by construction. The plan verifier
    /// re-derives this number independently (`TQT-V018`).
    pub fn scratch_elems(&self) -> usize {
        self.scratch_elems
    }

    /// High-water mark (elements) of the narrow lane's `i16` panel
    /// checkout: one activation panel per conv column tile, or a dense
    /// node's packed input rows (`TQT-V018` re-derives it).
    pub fn narrow_scratch_elems(&self) -> usize {
        self.narrow_scratch_elems
    }

    /// Total elements of the plan-owned packed weight arenas, both lanes
    /// (read-only after construction; shared by every executor on this
    /// plan).
    pub fn weight_arena_elems(&self) -> usize {
        self.wpack.len() + self.npack.len()
    }

    /// Elements of one lane's weight arena (`i64` for [`Lane::Wide`],
    /// `i16` for [`Lane::Narrow`]).
    pub fn arena_elems(&self, lane: Lane) -> usize {
        match lane {
            Lane::Narrow => self.npack.len(),
            Lane::Wide => self.wpack.len(),
        }
    }

    /// The lane node `id` runs on, or `None` for nodes without a packed
    /// GEMM operand (everything but non-depthwise conv and dense cores).
    pub fn lane(&self, id: usize) -> Option<Lane> {
        self.panels[id].map(|p| p.lane)
    }

    /// `(offset, len)` of node `id`'s packed weight panels in its lane's
    /// arena, or `None` for nodes without a packed GEMM operand. The plan
    /// verifier re-derives these extents independently (`TQT-V018`).
    pub fn weight_panel(&self, id: usize) -> Option<(usize, usize)> {
        self.panels[id].map(|p| (p.off, p.len))
    }

    /// Which channels of depthwise node `id` accumulate in `i32` (empty
    /// for every other node).
    pub fn depthwise_narrow(&self, id: usize) -> &[bool] {
        &self.dw_narrow[id]
    }

    /// The fused epilogue of node `id`, resolved to tile steps at plan
    /// time (empty for unfused nodes).
    pub fn tile_steps(&self, id: usize) -> &[TileStep] {
        &self.epis[id]
    }

    /// Runs node `id`'s compute core (`core`, the node's op or its fused
    /// core) over input `a` of shape `ish` on the node's lane, with the
    /// epilogue `epi` (steps and residual; the core's bias is added
    /// here). Returns `(wrapped, saturated)` counts.
    fn run_core(
        &self,
        id: usize,
        core: &IntOp,
        a: &[i64],
        ish: &[usize],
        epi: Epilogue,
        out: &mut [i64],
    ) -> (u64, u64) {
        match (core, self.panels[id]) {
            (
                IntOp::Conv {
                    w,
                    bias,
                    geom,
                    depthwise: true,
                    ..
                },
                _,
            ) => {
                let epi = Epilogue {
                    bias_row: bias.as_deref(),
                    ..epi
                };
                depthwise_into(a, ish, w, *geom, &self.dw_narrow[id], epi, out)
            }
            (
                IntOp::Conv {
                    wdims, bias, geom, ..
                },
                Some(p),
            ) => {
                let epi = Epilogue {
                    bias_row: bias.as_deref(),
                    ..epi
                };
                let (wdims, geom) = (*wdims, *geom);
                match p.lane {
                    Lane::Narrow => {
                        let w = &self.npack[p.off..p.off + p.len];
                        conv_narrow_into(a, ish, w, wdims, geom, epi, out)
                    }
                    Lane::Wide => {
                        let w = &self.wpack[p.off..p.off + p.len];
                        conv_into(a, ish, w, wdims, geom, epi, out)
                    }
                }
            }
            (
                IntOp::Dense {
                    in_dim,
                    out_dim,
                    bias,
                    ..
                },
                Some(p),
            ) => {
                let epi = Epilogue {
                    bias_col: bias.as_deref(),
                    ..epi
                };
                let (ovf, sat) = (Counter::new(), Counter::new());
                match p.lane {
                    Lane::Narrow => {
                        let mut apack = ScratchI16::uninit(narrow_lhs_len(ish[0], *in_dim));
                        pack_narrow_lhs(a, ish[0], *in_dim, &mut apack);
                        let (mut o, mut s) = (0, 0);
                        let b = &self.npack[p.off..p.off + p.len];
                        gemm_narrow_packed(
                            ish[0], *out_dim, *in_dim, &apack, b, epi, out, &mut o, &mut s,
                        );
                        ovf.add(o);
                        sat.add(s);
                    }
                    Lane::Wide => gemm_i64_narrow_fused(
                        ish[0],
                        *out_dim,
                        *in_dim,
                        Lhs::Rows(a),
                        Rhs::Packed(&self.wpack[p.off..p.off + p.len]),
                        epi,
                        out,
                        &ovf,
                        &sat,
                        true,
                    ),
                }
                (ovf.get(), sat.get())
            }
            (other, _) => panic!("node {id}: no packed GEMM core for {other:?}"),
        }
    }

    /// Test-only mutation hook: moves the first wide-lane GEMM node onto
    /// the narrow lane (with a zeroed panel of the narrow length, and the
    /// scratch accounting updated to match), simulating a planner that
    /// skipped the narrow-lane proof. Returns the node, or `None` if
    /// every GEMM node is already narrow. The mutated plan must never be
    /// executed — it exists to prove the plan verifier refutes it
    /// (`TQT-V018`).
    #[doc(hidden)]
    pub fn inject_unproven_narrow(&mut self, g: &IntGraph) -> Option<usize> {
        let nodes = g.nodes();
        let id = (0..nodes.len()).find(|&id| self.lane(id) == Some(Lane::Wide))?;
        let len = match core_op(&nodes[id].op) {
            IntOp::Conv { wdims, .. } => narrow_conv_lhs_len(*wdims),
            IntOp::Dense { in_dim, out_dim, .. } => narrow_rhs_len(*in_dim, *out_dim),
            _ => return None,
        };
        let off = push_panel(&mut self.npack, len, |_| {});
        self.panels[id] = Some(Panel {
            lane: Lane::Narrow,
            off,
            len,
        });
        (self.scratch_elems, self.narrow_scratch_elems) =
            scratch_high_water(nodes, &self.shapes, &self.panels);
        Some(id)
    }

    /// Test-only mutation hook: flags the first depthwise channel the
    /// plan left on the `i128` loop as narrow, simulating a planner that
    /// skipped the per-channel proof. Returns `(node, channel)`, or `None`
    /// if every depthwise channel is already narrow. The mutated plan must
    /// never be executed — it exists to prove the plan verifier refutes
    /// it (`TQT-V018`).
    #[doc(hidden)]
    pub fn inject_unproven_narrow_depthwise(&mut self) -> Option<(usize, usize)> {
        let (id, ch) = self
            .dw_narrow
            .iter()
            .enumerate()
            .find_map(|(id, flags)| Some((id, flags.iter().position(|&n| !n)?)))?;
        self.dw_narrow[id][ch] = true;
        Some((id, ch))
    }

    /// Test-only mutation hook: shrinks one slot's capacity below a
    /// tensor assigned to it, simulating a length bookkeeping bug.
    /// Returns the node whose storage is now short (`TQT-V018`).
    #[doc(hidden)]
    pub fn inject_slot_shrink(&mut self) -> Option<usize> {
        for (id, &s) in self.slot.iter().enumerate() {
            if self.lens[id] > 1 && self.slot_lens[s] >= self.lens[id] {
                self.slot_lens[s] = self.lens[id] - 1;
                return Some(id);
            }
        }
        None
    }

    /// Test-only mutation hook: re-aliases one node onto the slot of one
    /// of its *live* inputs, simulating an off-by-one in the liveness
    /// pass (input released before the consumer's slot is picked). The
    /// slot capacity is widened so only the aliasing bug is observable.
    /// Returns `(clobbering_node, input)` or `None` if the graph has no
    /// eligible pair. The mutated plan must never be executed — it
    /// exists to prove the plan verifier refutes it (`TQT-V016`).
    #[doc(hidden)]
    pub fn inject_liveness_off_by_one(&mut self, g: &IntGraph) -> Option<(usize, usize)> {
        for (id, node) in g.nodes().iter().enumerate() {
            for &i in &node.inputs {
                if self.lens[i] > 0 && self.lens[id] > 0 && self.slot[id] != self.slot[i] {
                    self.slot[id] = self.slot[i];
                    self.slot_lens[self.slot[i]] =
                        self.slot_lens[self.slot[i]].max(self.lens[id]);
                    return Some((id, i));
                }
            }
        }
        None
    }

    /// Test-only mutation hook: releases a producer's slot one consumer
    /// too early by re-aliasing an intermediate node onto it while a
    /// later consumer still needs the value. Returns `(producer,
    /// intermediate, stranded_consumer)` or `None`. As with
    /// [`inject_liveness_off_by_one`], the mutated plan is only ever fed
    /// to the plan verifier, which must refute it (`TQT-V017`).
    #[doc(hidden)]
    pub fn inject_premature_release(&mut self, g: &IntGraph) -> Option<(usize, usize, usize)> {
        let nodes = g.nodes();
        for p in 0..nodes.len() {
            if self.lens[p] == 0 {
                continue;
            }
            let Some(last_consumer) = (0..nodes.len())
                .filter(|&c| nodes[c].inputs.contains(&p))
                .max()
            else {
                continue;
            };
            for (m, node) in nodes.iter().enumerate().take(last_consumer).skip(p + 1) {
                if self.lens[m] > 0
                    && self.slot[m] != self.slot[p]
                    && !node.inputs.contains(&p)
                {
                    self.slot[m] = self.slot[p];
                    self.slot_lens[self.slot[p]] =
                        self.slot_lens[self.slot[p]].max(self.lens[m]);
                    return Some((p, m, last_consumer));
                }
            }
        }
        None
    }

    /// Test-only mutation hook: resurrects a fused node's slot for an
    /// unrelated later node while a consumer of the fused value is still
    /// pending — the bug a fusion rewrite would introduce if it released
    /// the chain's (now eliminated) intermediate storage but wrongly
    /// treated the fused output itself as part of the dead chain.
    /// Returns `(fused_producer, resurrector, stranded_consumer)` or
    /// `None` if the graph has no fused node with a non-adjacent
    /// consumer. The mutated plan is only ever fed to the plan verifier,
    /// which must refute it (`TQT-V017`).
    #[doc(hidden)]
    pub fn inject_fused_slot_resurrection(
        &mut self,
        g: &IntGraph,
    ) -> Option<(usize, usize, usize)> {
        let nodes = g.nodes();
        for p in 0..nodes.len() {
            if self.lens[p] == 0 || !matches!(nodes[p].op, IntOp::Fused { .. }) {
                continue;
            }
            let Some(last_consumer) = (0..nodes.len())
                .filter(|&c| nodes[c].inputs.contains(&p))
                .max()
            else {
                continue;
            };
            for (m, node) in nodes.iter().enumerate().take(last_consumer).skip(p + 1) {
                if self.lens[m] > 0
                    && self.slot[m] != self.slot[p]
                    && !node.inputs.contains(&p)
                {
                    self.slot[m] = self.slot[p];
                    self.slot_lens[self.slot[p]] =
                        self.slot_lens[self.slot[p]].max(self.lens[m]);
                    return Some((p, m, last_consumer));
                }
            }
        }
        None
    }
}

/// A reusable integer-inference engine: one [`IntPlan`] plus one owned
/// buffer per plan slot, reused across nodes and across runs. Build once
/// per (graph, input shape) and call [`run`](Self::run) in a loop — no
/// per-run activation allocation happens after construction.
pub struct IntExecutor<'g> {
    graph: &'g IntGraph,
    plan: PlanRef<'g>,
    bufs: Vec<Vec<i64>>,
    /// Cumulative slot-buffer allocations (see
    /// [`slot_allocs`](Self::slot_allocs)).
    slot_allocs: u64,
}

/// An executor's plan: owned (the default), or borrowed from a shared
/// plan so several sessions reuse one packed weight arena. The plan is
/// read-only during execution either way — each executor owns its slot
/// buffers, so sharing a plan shares only immutable state.
enum PlanRef<'g> {
    Owned(Box<IntPlan>),
    Shared(&'g IntPlan),
}

impl PlanRef<'_> {
    fn get(&self) -> &IntPlan {
        match self {
            PlanRef::Owned(p) => p,
            PlanRef::Shared(p) => p,
        }
    }
}

impl IntGraph {
    /// Plans this graph for inputs of shape `input_dims`.
    pub fn plan(&self, input_dims: &[usize]) -> IntPlan {
        IntPlan::new(self, input_dims)
    }

    /// Builds a reusable executor for inputs of shape `input_dims`.
    pub fn executor(&self, input_dims: &[usize]) -> IntExecutor<'_> {
        IntExecutor::new(self, input_dims)
    }
}

fn input_slice<'a>(bufs: &'a [Vec<i64>], plan: &IntPlan, i: usize) -> &'a [i64] {
    &bufs[plan.slot[i]][..plan.lens[i]]
}

impl<'g> IntExecutor<'g> {
    /// Creates an executor with freshly planned, zeroed slot buffers.
    pub fn new(graph: &'g IntGraph, input_dims: &[usize]) -> Self {
        let plan = IntPlan::new(graph, input_dims);
        let bufs: Vec<Vec<i64>> = plan.slot_lens.iter().map(|&l| vec![0i64; l]).collect();
        let slot_allocs = bufs.len() as u64;
        IntExecutor {
            graph,
            plan: PlanRef::Owned(Box::new(plan)),
            bufs,
            slot_allocs,
        }
    }

    /// Creates an executor borrowing an existing plan — the way several
    /// concurrent inference sessions share one packed weight arena
    /// instead of planning (and packing) per session. Each executor
    /// still owns its slot buffers; the shared plan is never written.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not built for `graph` (node count mismatch).
    pub fn with_plan(graph: &'g IntGraph, plan: &'g IntPlan) -> Self {
        assert_eq!(
            plan.num_nodes(),
            graph.nodes().len(),
            "plan was built for a different graph"
        );
        let bufs: Vec<Vec<i64>> = plan.slot_lens.iter().map(|&l| vec![0i64; l]).collect();
        let slot_allocs = bufs.len() as u64;
        IntExecutor {
            graph,
            plan: PlanRef::Shared(plan),
            bufs,
            slot_allocs,
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &IntPlan {
        self.plan.get()
    }

    /// Runs integer inference, skipping the per-node range observation
    /// pass (the cheap saturation/overflow counters still run). With the
    /// `sanitize` feature enabled, asserts no i64 accumulator wrapped.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the planned input shape.
    pub fn run(&mut self, x: &Tensor) -> QTensor {
        let stats = self.run_inner(x, false, &mut |_, _| {});
        self.assert_no_wrap(&stats);
        self.output()
    }

    /// Instrumented run: like [`run`](Self::run) but additionally records
    /// each node's observed output range (see
    /// [`IntGraph::run_with_stats`]).
    pub fn run_with_stats(&mut self, x: &Tensor) -> (QTensor, RunStats) {
        let stats = self.run_inner(x, true, &mut |_, _| {});
        (self.output(), stats)
    }

    /// The serving hot path: runs inference like [`run`](Self::run) but
    /// writes the output values into `out` (cleared and refilled)
    /// instead of materializing a fresh [`QTensor`], and returns the
    /// output format with the run's counters. With a warmed-up `out`
    /// capacity the call grows no slot buffer, which
    /// [`slot_allocs`](Self::slot_allocs) lets serving tests assert (the
    /// run's counters and the pool's region bookkeeping still allocate).
    pub fn run_into(&mut self, x: &Tensor, out: &mut Vec<i64>) -> (QFormat, RunStats) {
        let stats = self.run_inner(x, false, &mut |_, _| {});
        self.assert_no_wrap(&stats);
        let plan = self.plan.get();
        let out_id = self.graph.output_id();
        out.clear();
        out.extend_from_slice(input_slice(&self.bufs, plan, out_id));
        (plan.formats[out_id], stats)
    }

    /// Re-zeroes the slot buffers in place, without reallocating — an
    /// explicit fresh-session state for executors reused across serving
    /// requests. Not required for correctness (every node fully writes
    /// its output range before any consumer reads it), so the serving
    /// loop skips it per request.
    pub fn reset(&mut self) {
        for b in &mut self.bufs {
            b.fill(0);
        }
    }

    /// Cumulative slot-buffer allocations over this executor's
    /// lifetime: the plan-sized allocations at construction plus any
    /// mid-run resize (which would indicate a planning bug). A reused
    /// session must hold this constant across requests. It counts slot
    /// buffers only, not heap allocations in general.
    pub fn slot_allocs(&self) -> u64 {
        self.slot_allocs
    }

    fn assert_no_wrap(&self, stats: &RunStats) {
        #[cfg(feature = "sanitize")]
        for (node, st) in self.graph.nodes().iter().zip(&stats.nodes) {
            assert_eq!(
                st.overflowed, 0,
                "sanitize: i64 accumulator wrapped in node {}",
                node.name
            );
        }
        let _ = stats;
    }

    /// Materializes the output tensor from its slot.
    fn output(&self) -> QTensor {
        let plan = self.plan.get();
        let out_id = self.graph.output_id();
        QTensor::from_ints(
            plan.shapes[out_id].clone(),
            input_slice(&self.bufs, plan, out_id).to_vec(),
            plan.formats[out_id],
        )
    }

    /// Test-only differential hook: runs like
    /// [`run_with_stats`](Self::run_with_stats) and hands every node's
    /// output to `tap(node_id, values)` the moment it is written, before
    /// its slot can be reused — so a test can recompute any node from its
    /// real operands.
    #[doc(hidden)]
    pub fn run_tapped(&mut self, x: &Tensor, tap: &mut dyn FnMut(usize, &[i64])) -> RunStats {
        self.run_inner(x, true, tap)
    }

    fn run_inner(
        &mut self,
        x: &Tensor,
        observe: bool,
        tap: &mut dyn FnMut(usize, &[i64]),
    ) -> RunStats {
        let plan = self.plan.get();
        assert_eq!(
            x.dims(),
            &plan.input_dims[..],
            "executor planned for different input dims"
        );
        let n = self.graph.nodes().len();
        let mut stats = RunStats::new(n);
        let mut float_consumed = false;
        for (id, node) in self.graph.nodes().iter().enumerate() {
            let slot_id = plan.slot[id];
            let len = plan.lens[id];
            let mut outbuf = std::mem::take(&mut self.bufs[slot_id]);
            if outbuf.len() < len {
                // Never taken when the plan sized the slots correctly —
                // counted so serving tests can assert an allocation-free
                // steady state.
                outbuf.resize(len, 0);
                self.slot_allocs += 1;
            }
            {
                let bufs = &self.bufs;
                let out = &mut outbuf[..len];
                let st = &mut stats.nodes[id];
                match &node.op {
                    IntOp::Input => {}
                    IntOp::QuantF32 { format } => {
                        assert!(!float_consumed, "input consumed twice");
                        float_consumed = true;
                        st.saturated += quantf32_into(x.data(), *format, out);
                    }
                    IntOp::Requant { format } => {
                        let i0 = node.inputs[0];
                        st.saturated += requant_into(
                            input_slice(bufs, plan, i0),
                            plan.formats[i0].frac,
                            *format,
                            out,
                        );
                    }
                    IntOp::Conv { .. } | IntOp::Dense { .. } | IntOp::Fused { .. } => {
                        let i0 = node.inputs[0];
                        // A fused node's second input, if any, is its
                        // residual operand.
                        let epi = Epilogue {
                            steps: plan.tile_steps(id),
                            residual: node.inputs.get(1).map(|&r| input_slice(bufs, plan, r)),
                            ..Epilogue::default()
                        };
                        let (ovf, sat) = plan.run_core(
                            id,
                            core_op(&node.op),
                            input_slice(bufs, plan, i0),
                            &plan.shapes[i0],
                            epi,
                            out,
                        );
                        st.overflowed += ovf;
                        st.saturated += sat;
                    }
                    IntOp::Relu { cap_q } => {
                        let a = input_slice(bufs, plan, node.inputs[0]);
                        let cap = *cap_q;
                        pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
                            let base = ci * ELEM_BLOCK;
                            let end = base + chunk.len();
                            for (o, &v) in chunk.iter_mut().zip(&a[base..end]) {
                                let mut y = v.max(0);
                                if let Some(c) = cap {
                                    y = y.min(c);
                                }
                                *o = y;
                            }
                        });
                    }
                    IntOp::LeakyRelu { alpha_q } => {
                        let a = input_slice(bufs, plan, node.inputs[0]);
                        let alpha = *alpha_q;
                        let ovf = Counter::new();
                        pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
                            let base = ci * ELEM_BLOCK;
                            let mut local = 0u64;
                            let end = base + chunk.len();
                            for (o, &v) in chunk.iter_mut().zip(&a[base..end]) {
                                let wide = (i128::from(v) << LEAKY_ALPHA_FRAC)
                                    .max(i128::from(v) * i128::from(alpha));
                                *o = narrow(wide, &mut local);
                            }
                            ovf.add(local);
                        });
                        st.overflowed += ovf.get();
                    }
                    IntOp::MaxPool { geom } => {
                        let i0 = node.inputs[0];
                        maxpool_into(input_slice(bufs, plan, i0), &plan.shapes[i0], *geom, out);
                    }
                    IntOp::GlobalAvgPool => {
                        let i0 = node.inputs[0];
                        gap_into(
                            input_slice(bufs, plan, i0),
                            &plan.shapes[i0],
                            out,
                            &mut st.overflowed,
                        );
                    }
                    IntOp::Add => {
                        let a = input_slice(bufs, plan, node.inputs[0]);
                        let b = input_slice(bufs, plan, node.inputs[1]);
                        let ovf = Counter::new();
                        pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
                            let base = ci * ELEM_BLOCK;
                            let mut local = 0u64;
                            for (j, o) in chunk.iter_mut().enumerate() {
                                *o = narrow(
                                    i128::from(a[base + j]) + i128::from(b[base + j]),
                                    &mut local,
                                );
                            }
                            ovf.add(local);
                        });
                        st.overflowed += ovf.get();
                    }
                    IntOp::Concat => {
                        let ins: Vec<(&[i64], &[usize])> = node
                            .inputs
                            .iter()
                            .map(|&i| (input_slice(bufs, plan, i), plan.shapes[i].as_slice()))
                            .collect();
                        concat_into(&ins, out);
                    }
                    IntOp::Flatten => {
                        out.copy_from_slice(input_slice(bufs, plan, node.inputs[0]));
                    }
                }
            }
            if !matches!(node.op, IntOp::Input) {
                if observe {
                    stats.nodes[id].observe(&outbuf[..len]);
                }
                tap(id, &outbuf[..len]);
                // Mirror the width check QTensor::from_ints used to apply
                // at every node (debug builds only — the hot path trusts
                // the plan's format inference, which tests validate).
                #[cfg(debug_assertions)]
                {
                    let f = plan.formats[id];
                    for &v in &outbuf[..len] {
                        debug_assert!(
                            v >= f.qmin() && v <= f.qmax(),
                            "value {v} overflows {f:?} in node {}",
                            node.name
                        );
                    }
                }
            }
            self.bufs[slot_id] = outbuf;
        }
        stats
    }
}

/// Quantizes a float slice into `format` (round-half-even, saturating),
/// returning the number of clamped elements. Bit-identical to
/// [`QTensor::quantize`] plus the legacy saturation count.
fn quantf32_into(xd: &[f32], format: QFormat, out: &mut [i64]) -> u64 {
    assert_eq!(xd.len(), out.len(), "quantize length mismatch");
    let s = format.scale();
    let (qmin, qmax) = (format.qmin(), format.qmax());
    let sat = Counter::new();
    pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
        let base = ci * ELEM_BLOCK;
        let mut local = 0u64;
        let end = base + chunk.len();
        for (o, &v) in chunk.iter_mut().zip(&xd[base..end]) {
            let raw = round_half_even(v / s) as i64;
            let c = raw.clamp(qmin, qmax);
            if c != raw {
                local += 1;
            }
            *o = c;
        }
        sat.add(local);
    });
    sat.get()
}

/// Requantizes from `in_frac` into `format` by round-half-even bit-shift
/// with saturation (eq. 16), returning the number of clamped elements.
fn requant_into(a: &[i64], in_frac: i32, format: QFormat, out: &mut [i64]) -> u64 {
    assert_eq!(a.len(), out.len(), "requant length mismatch");
    let shift = in_frac - format.frac;
    let (qmin, qmax) = (format.qmin(), format.qmax());
    let sat = Counter::new();
    pool::par_chunks_mut(out, ELEM_BLOCK, |ci, chunk| {
        let base = ci * ELEM_BLOCK;
        let mut local = 0u64;
        let end = base + chunk.len();
        for (o, &v) in chunk.iter_mut().zip(&a[base..end]) {
            let r = shift_round(v, shift);
            let c = r.clamp(qmin, qmax);
            if c != r {
                local += 1;
            }
            *o = c;
        }
        sat.add(local);
    });
    sat.get()
}

/// Wide-lane convolution: per-image `i64` im2col into the thread-local
/// scratch arena, then the blocked exact GEMM over the packed weights
/// `w` (parallel over output-row blocks) with the fused epilogue applied
/// in the tile store. Returns `(wrapped, saturated)` counts.
fn conv_into(
    x: &[i64],
    ish: &[usize],
    w: &[i64],
    wdims: [usize; 4],
    geom: Conv2dGeom,
    epi: Epilogue,
    out: &mut [i64],
) -> (u64, u64) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let cout = wdims[0];
    let krows = c * geom.kh * geom.kw;
    let plane = cout * oh * ow;
    let (ovf, sat) = (Counter::new(), Counter::new());
    for ni in 0..nb {
        let mut cols = ScratchI64::uninit(krows * oh * ow);
        im2col_into(
            &x[ni * c * h * wd..(ni + 1) * c * h * wd],
            0i64,
            c,
            h,
            wd,
            geom,
            &mut cols,
        );
        // The residual covers the whole batch; the GEMM sees one image.
        let epi_img = Epilogue {
            residual: epi.residual.map(|r| &r[ni * plane..(ni + 1) * plane]),
            ..epi
        };
        gemm_i64_narrow_fused(
            cout,
            oh * ow,
            krows,
            Lhs::Packed(w),
            Rhs::Rows(&cols),
            epi_img,
            &mut out[ni * plane..(ni + 1) * plane],
            &ovf,
            &sat,
            true,
        );
    }
    (ovf.get(), sat.get())
}

/// Output columns per narrow-conv work tile: two activation panels. A
/// fixed size, so the partition (and every count) is independent of the
/// thread count, and small, so an 8×8 output plane still splits across
/// two cores at batch 1.
const CONV_TILE_COLS: usize = 2 * NNR;

/// Narrow-lane convolution over the [`pack_narrow_conv`] weight panels
/// `w`, in fixed `(image, CONV_TILE_COLS-column)` tiles across the pool.
/// Each tile builds one [`NNR`]-column activation panel at a time
/// straight from the input ([`conv_panel`]), runs every weight panel
/// against it, and stores each `i32` tile row through the row
/// epilogue. Returns `(wrapped, saturated)` counts.
fn conv_narrow_into(
    x: &[i64],
    ish: &[usize],
    w: &[i16],
    wdims: [usize; 4],
    geom: Conv2dGeom,
    epi: Epilogue,
    out: &mut [i64],
) -> (u64, u64) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let (cout, ncols) = (wdims[0], oh * ow);
    let kpairs = narrow_conv_kpairs(wdims);
    assert_eq!(wdims[1], c, "conv input channel mismatch");
    assert_eq!(w.len(), narrow_conv_lhs_len(wdims), "narrow weight panel length mismatch");
    assert_eq!(out.len(), nb * cout * ncols, "conv output length mismatch");
    epi.check(nb * cout, ncols, cout);
    if out.is_empty() {
        return (0, 0);
    }
    let avx = has_avx2();
    let alen = kpairs * NMR * 2;
    let (ovf, sat) = (Counter::new(), Counter::new());
    // Rows of the tile grid are the `cout` channels of one image.
    pool::par_tiles_mut(out, ncols, cout, CONV_TILE_COLS, |ni, tc, tile| {
        let xim = &x[ni * c * h * wd..(ni + 1) * c * h * wd];
        let mut panel = ScratchI16::uninit(narrow_panel_len(2 * kpairs));
        let mut acc = [0i32; NMR * NNR];
        let (mut lo, mut ls) = (0u64, 0u64);
        for j0 in (0..tile.cols()).step_by(NNR) {
            let col0 = tc * CONV_TILE_COLS + j0;
            let nc = NNR.min(tile.cols() - j0);
            conv_panel(xim, [c, h, wd], geom, ow, (col0, nc), &mut panel);
            for p in 0..cout.div_ceil(NMR) {
                narrow_micro(kpairs, &w[p * alen..(p + 1) * alen], &panel, &mut acc, avx);
                for r in 0..NMR.min(cout - p * NMR) {
                    let co = p * NMR + r;
                    let at = (ni * cout + co) * ncols + col0;
                    let arow = &acc[r * NNR..r * NNR + nc];
                    let row = &mut tile.row(co)[j0..j0 + nc];
                    epi.store_row(arow, co, col0, at, row, &mut lo, &mut ls);
                }
            }
        }
        ovf.add(lo);
        sat.add(ls);
    });
    (ovf.get(), sat.get())
}

/// Builds one narrow activation panel — the im2col of output columns
/// `[col0, col0 + nc)` of one image `xim` (`[c, h, w]`) — in the
/// [`pack_narrow_conv`] reduction order: pair `kp = (ki·kw + kj)·cpairs +
/// cp` of column `j` is `(x[2cp], x[2cp + 1])` at that column's input
/// position for tap `(ki, kj)`, stored at `panel[kp·2·NNR + 2j ..]`.
/// Both halves of a pair share one position, so every run of columns
/// inside one output row reads two channel planes with a fixed stride.
/// Padding taps, a missing odd channel and columns past `nc` are zero.
fn conv_panel(
    xim: &[i64],
    [c, h, wd]: [usize; 3],
    geom: Conv2dGeom,
    ow: usize,
    (col0, nc): (usize, usize),
    panel: &mut [i16],
) {
    let (s, pad, hw, cpairs) = (geom.stride, geom.pad, h * wd, c.div_ceil(2));
    panel.fill(0);
    let mut j0 = 0;
    while j0 < nc {
        // One run: the panel columns that share output row `oi`.
        let (oi, oj0) = ((col0 + j0) / ow, (col0 + j0) % ow);
        let run = (ow - oj0).min(nc - j0);
        for ki in 0..geom.kh {
            let Some(ii) = (oi * s + ki).checked_sub(pad).filter(|&ii| ii < h) else {
                continue;
            };
            for kj in 0..geom.kw {
                // Columns `j` of the run whose tap column `(oj0 + j)·s +
                // kj - pad` lies inside `[0, wd)`.
                let Some(last) = (wd + pad).checked_sub(kj + 1) else {
                    continue;
                };
                let lo = pad.saturating_sub(kj).div_ceil(s).saturating_sub(oj0).min(run);
                let hi = (last / s + 1).saturating_sub(oj0).min(run);
                if lo >= hi {
                    continue;
                }
                let src = ii * wd + (oj0 + lo) * s + kj - pad;
                let len = (hi - lo - 1) * s + 1;
                for cp in 0..cpairs {
                    let kp = (ki * geom.kw + kj) * cpairs + cp;
                    let at = kp * 2 * NNR + 2 * (j0 + lo);
                    let dst = &mut panel[at..at + 2 * (hi - lo)];
                    let x0 = &xim[2 * cp * hw + src..][..len];
                    if 2 * cp + 1 < c {
                        let x1 = &xim[(2 * cp + 1) * hw + src..][..len];
                        if s == 1 {
                            for ((d, &v0), &v1) in dst.chunks_exact_mut(2).zip(x0).zip(x1) {
                                d[0] = to_i16(v0);
                                d[1] = to_i16(v1);
                            }
                        } else {
                            for (j, d) in dst.chunks_exact_mut(2).enumerate() {
                                d[0] = to_i16(x0[j * s]);
                                d[1] = to_i16(x1[j * s]);
                            }
                        }
                    } else {
                        for (j, d) in dst.chunks_exact_mut(2).enumerate() {
                            d[0] = to_i16(x0[j * s]);
                        }
                    }
                }
            }
        }
        j0 += run;
    }
}

/// Depthwise convolution, parallel over `(image, channel)` planes, each
/// computed row-wise by [`depthwise_plane`]: a channel the plan proved
/// narrow (`narrow_ch`) accumulates in `i32`, any other in exact `i128`;
/// both store through the row epilogue (`epi.bias_row` is the
/// per-channel bias). Returns `(wrapped, saturated)` counts.
fn depthwise_into(
    x: &[i64],
    ish: &[usize],
    w: &[i64],
    geom: Conv2dGeom,
    narrow_ch: &[bool],
    epi: Epilogue,
    out: &mut [i64],
) -> (u64, u64) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let ncols = oh * ow;
    let taps = geom.kh * geom.kw;
    assert_eq!(out.len(), nb * c * ncols, "depthwise output length mismatch");
    epi.check(nb * c, ncols, c);
    let (ovf, sat) = (Counter::new(), Counter::new());
    pool::par_chunks_mut(out, ncols, |img, ochunk| {
        let co = img % c;
        let xim = &x[img * h * wd..(img + 1) * h * wd];
        let wk = &w[co * taps..(co + 1) * taps];
        let (mut lo, mut ls) = (0u64, 0u64);
        let at = (co, img * ncols);
        if narrow_ch.get(co).copied().unwrap_or(false) {
            depthwise_plane::<i32>(xim, (h, wd), wk, geom, &epi, at, ochunk, &mut lo, &mut ls);
        } else {
            depthwise_plane::<i128>(xim, (h, wd), wk, geom, &epi, at, ochunk, &mut lo, &mut ls);
        }
        ovf.add(lo);
        sat.add(ls);
    });
    (ovf.get(), sat.get())
}

/// Max pooling, parallel over `(image, channel)` planes. Padding
/// positions are skipped (never compared), exactly like the reference.
fn maxpool_into(x: &[i64], ish: &[usize], geom: Conv2dGeom, out: &mut [i64]) {
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let ncols = oh * ow;
    assert_eq!(out.len(), nb * c * ncols, "maxpool output length mismatch");
    pool::par_chunks_mut(out, ncols, |img, ochunk| {
        let xim = &x[img * h * wd..(img + 1) * h * wd];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = i64::MIN;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                        if jj < 0 || jj >= wd as isize {
                            continue;
                        }
                        best = best.max(xim[ii as usize * wd + jj as usize]);
                    }
                }
                ochunk[oi * ow + oj] = best;
            }
        }
    });
}

/// Global average pool: exact channel sums (division is the `frac +=
/// log2(hw)` format change, applied by the plan).
fn gap_into(x: &[i64], ish: &[usize], out: &mut [i64], overflowed: &mut u64) {
    let hw = ish[2] * ish[3];
    assert_eq!(out.len(), ish[0] * ish[1], "gap output length mismatch");
    for (i, o) in out.iter_mut().enumerate() {
        let acc: i128 = x[i * hw..(i + 1) * hw].iter().map(|&v| i128::from(v)).sum();
        *o = narrow(acc, overflowed);
    }
}

/// Channel concat of `(data, shape)` pairs (formats pre-checked by the
/// plan).
fn concat_into(inputs: &[(&[i64], &[usize])], out: &mut [i64]) {
    let ish0 = inputs[0].1;
    let nb = ish0[0];
    let spatial_len: usize = ish0[2..].iter().product::<usize>().max(1);
    let c_out: usize = inputs.iter().map(|(_, s)| s[1]).sum();
    for ni in 0..nb {
        let mut c_off = 0;
        for (data, sh) in inputs {
            let c = sh[1];
            let src = &data[ni * c * spatial_len..(ni + 1) * c * spatial_len];
            let dst = (ni * c_out + c_off) * spatial_len;
            out[dst..dst + c * spatial_len].copy_from_slice(src);
            c_off += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::IntNode;

    fn chain(ops: Vec<IntOp>) -> IntGraph {
        let nodes = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| IntNode {
                name: format!("n{i}"),
                op,
                inputs: if i == 0 { vec![] } else { vec![i - 1] },
            })
            .collect::<Vec<_>>();
        let out = nodes.len() - 1;
        IntGraph::from_parts(nodes, out)
    }

    #[test]
    fn requant_into_shifts_between_formats() {
        let a = [100i64, -100, 3];
        let mut r = [0i64; 3];
        let sat = requant_into(&a, 6, QFormat::new(4, 8, true), &mut r);
        assert_eq!(r, [25, -25, 1]); // 3/4 = 0.75 -> 1
        let mut l = [0i64; 3];
        let sat2 = requant_into(&a, 6, QFormat::new(8, 16, true), &mut l);
        assert_eq!(l, [400, -400, 12]); // exact left shift
        assert_eq!(sat + sat2, 0, "no value saturates in either direction");
    }

    #[test]
    fn chain_reuses_slots() {
        let g = chain(vec![
            IntOp::Input,
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: None },
            IntOp::Requant {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: Some(100) },
        ]);
        let plan = g.plan(&[2, 8]);
        // A straight-line chain only ever needs two live buffers (plus the
        // zero-length input placeholder slot).
        assert!(
            plan.num_slots() <= 3,
            "expected ping-pong buffering, got {} slots",
            plan.num_slots()
        );
        assert!(plan.total_buffer_elems() < plan.activation_elems());
    }

    #[test]
    fn executor_is_reusable_and_matches_one_shot_run() {
        let g = chain(vec![
            IntOp::Input,
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            IntOp::Relu { cap_q: Some(90) },
            IntOp::Requant {
                format: QFormat::new(2, 8, true),
            },
        ]);
        let mut rng = tqt_tensor::init::rng(7);
        let mut ex = g.executor(&[3, 16]);
        for _ in 0..3 {
            let x = tqt_tensor::init::normal([3, 16], 0.0, 4.0, &mut rng);
            let (y1, s1) = g.run_with_stats(&x);
            let (y2, s2) = ex.run_with_stats(&x);
            assert_eq!(y1, y2);
            assert_eq!(s1.nodes, s2.nodes);
            assert_eq!(ex.run(&x), y1, "uninstrumented run must agree");
        }
    }

    #[test]
    fn output_slot_is_never_an_input_slot() {
        // Diamond: q -> (relu, requant) -> add; the add must not write
        // into either operand's buffer.
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![0],
            },
            IntNode {
                name: "relu".into(),
                op: IntOp::Relu { cap_q: None },
                inputs: vec![1],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant {
                    format: QFormat::new(4, 8, true),
                },
                inputs: vec![1],
            },
            IntNode {
                name: "add".into(),
                op: IntOp::Add,
                inputs: vec![2, 3],
            },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let plan = g.plan(&[1, 32]);
        for (id, node) in g.nodes().iter().enumerate() {
            for &i in &node.inputs {
                if plan.lens[i] > 0 {
                    assert_ne!(
                        plan.slot[id], plan.slot[i],
                        "node {id} writes the slot of its live input {i}"
                    );
                }
            }
        }
        let mut rng = tqt_tensor::init::rng(11);
        let x = tqt_tensor::init::normal([1, 32], 0.0, 3.0, &mut rng);
        let (y, _) = g.run_with_stats(&x);
        // add of relu(q) + q on the same grid: spot-check one element.
        let q = QTensor::quantize(&x, QFormat::new(4, 8, true));
        let expect: Vec<i64> = q.data().iter().map(|&v| v.max(0) + v).collect();
        assert_eq!(y.data(), &expect[..]);
    }
}
