//! Plan verifier (`TQT-V016`–`TQT-V018`): an independent alias-freedom
//! proof over [`IntPlan`]'s buffer-slot assignment.
//!
//! The executor ([`tqt_fixedpoint::IntExecutor`]) reads every operand
//! from, and writes every result into, a small set of reusable slots the
//! planner assigned by liveness analysis. One off-by-one in that
//! analysis silently corrupts inference — a node would read a buffer
//! another node already overwrote — so this pass re-proves the plan from
//! scratch, **treating the planner as untrusted**:
//!
//! * per-node element counts are re-derived from the graph's shape rules
//!   (a mirror written against the runtime kernels, not a call into the
//!   planner) and compared with the plan (`TQT-V018`);
//! * per-node liveness is re-derived (a value is live from its
//!   definition to its last consumer; the graph output is live forever)
//!   and the whole execution is simulated over slot occupancy: every
//!   write into a slot holding a live value is `TQT-V016`, every read
//!   that does not see its producing write is `TQT-V017`, every
//!   capacity shortfall is `TQT-V018`;
//! * every conv/dense node's GEMM lane is re-proven: a node the plan put
//!   on the narrow `i16 × i16 → i32` lane must discharge the narrow
//!   obligation (input and weights fit `i16`, `max|x| · max_row Σ|w| <
//!   2³¹`) against the **interval analysis's** input bound, not the
//!   planner's format-based proof; an unproven narrow node is
//!   `TQT-V018`. Its packed panel must have the re-derived length of its
//!   lane's layout, inside that lane's arena. Each depthwise channel the
//!   plan accumulates in `i32` discharges the same obligation over its
//!   own `kh·kw` taps;
//! * the executor's only workspace outside the slots — the wide lane's
//!   per-image `i64` im2col checkout and the narrow lane's `i16` panel
//!   checkouts from the thread-local scratch arenas — is re-derived per
//!   lane and compared with the plan's accounting (`TQT-V018`), proving
//!   scratch is sized and held apart from slot storage (the arenas are
//!   distinct allocations by construction; the sanitizer's `TQT-V022`
//!   covers their checkout discipline at runtime).
//!
//! Every refutation carries the producer-chain path of the offending
//! node as a counterexample. The mutation tests
//! (`crates/verify/tests/plan_mutations.rs`) inject a liveness
//! off-by-one and a premature slot release, and
//! `tests/certifier_soundness.rs` an unproven narrow GEMM lane and an
//! unproven narrow depthwise channel; this pass refutes each with the
//! correct node.

use crate::diag::{Code, Report};
use crate::interval::{analyze, path_to, NodeFacts};
use tqt_fixedpoint::intgemm::{
    narrow_conv_kpairs, narrow_conv_lhs_len, narrow_lhs_len, narrow_panel_len, narrow_rhs_len,
    packed_lhs_len, packed_rhs_len,
};
use tqt_fixedpoint::lower::{IntGraph, IntOp, LEAKY_ALPHA_FRAC};
use tqt_fixedpoint::{IntPlan, Lane};
use tqt_graph::fplan::FloatPlan;
use tqt_graph::{Graph, Op as FOp};
use tqt_tensor::conv::{conv2d_bwd_ws, conv2d_fwd_ws};
use tqt_tensor::gemm::packed_a_len;

/// Independently re-derived facts about one planned graph.
#[derive(Debug)]
struct Derived {
    /// Output dims per node (`[0]` for the float-input placeholder).
    dims: Vec<Vec<usize>>,
    /// Element count per node.
    lens: Vec<usize>,
    /// Last node id that needs each node's value (`usize::MAX` for the
    /// graph output, which must survive the whole run).
    last_use: Vec<usize>,
}

/// The compute op a node runs: the core of a fused node, the op itself
/// otherwise.
fn core(op: &IntOp) -> &IntOp {
    match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    }
}

/// Re-derives per-node output dims from the op semantics. This
/// intentionally re-implements the shape rules against the kernel
/// contracts instead of calling the planner, so a planner bug cannot
/// vouch for itself.
fn derive(g: &IntGraph, input_dims: &[usize]) -> Derived {
    let nodes = g.nodes();
    let n = nodes.len();
    let mut dims: Vec<Vec<usize>> = Vec::with_capacity(n);
    for node in nodes {
        let i0 = node.inputs.first().copied();
        let d = match &node.op {
            // The float input placeholder owns no integer storage.
            IntOp::Input => vec![0],
            IntOp::QuantF32 { .. } => input_dims.to_vec(),
            IntOp::Requant { .. } | IntOp::Relu { .. } | IntOp::LeakyRelu { .. } => {
                let _ = LEAKY_ALPHA_FRAC; // format-only ops: size-preserving
                dims[i0.expect("unary op arity")].clone() // tqt:allow(expect): from_parts guarantees arity
            }
            IntOp::MaxPool { geom } => {
                let ish = &dims[i0.expect("maxpool arity")]; // tqt:allow(expect): from_parts guarantees arity
                let (oh, ow) = geom.out_size(ish[2], ish[3]);
                vec![ish[0], ish[1], oh, ow]
            }
            IntOp::GlobalAvgPool => {
                let ish = &dims[i0.expect("gap arity")]; // tqt:allow(expect): from_parts guarantees arity
                vec![ish[0], ish[1]]
            }
            IntOp::Add => dims[node.inputs[0]].clone(),
            IntOp::Concat => {
                let ish = &dims[node.inputs[0]];
                let c: usize = node.inputs.iter().map(|&i| dims[i][1]).sum();
                let mut d = vec![ish[0], c];
                d.extend(&ish[2..]);
                d
            }
            IntOp::Flatten => {
                let ish = &dims[i0.expect("flatten arity")]; // tqt:allow(expect): from_parts guarantees arity
                vec![ish[0], ish.iter().product::<usize>() / ish[0]]
            }
            // A fused node's epilogue (requant/add/relu) is
            // size-preserving, so its storage is exactly its core's
            // output.
            IntOp::Conv { .. } | IntOp::Dense { .. } | IntOp::Fused { .. } => {
                let ish = &dims[i0.expect("compute arity")]; // tqt:allow(expect): from_parts guarantees arity
                match core(&node.op) {
                    IntOp::Conv { wdims, geom, .. } => {
                        let (oh, ow) = geom.out_size(ish[2], ish[3]);
                        vec![ish[0], wdims[0], oh, ow]
                    }
                    IntOp::Dense { out_dim, .. } => vec![ish[0], *out_dim],
                    // Illegal core: the interval pass refutes it as
                    // TQT-V023; keep the storage derivation harmless.
                    _ => vec![0],
                }
            }
        };
        dims.push(d);
    }
    let lens: Vec<usize> = dims.iter().map(|d| d.iter().product()).collect();
    let mut last_use = vec![0usize; n];
    for (id, node) in nodes.iter().enumerate() {
        for &i in &node.inputs {
            last_use[i] = last_use[i].max(id);
        }
    }
    last_use[g.output_id()] = usize::MAX;
    Derived {
        dims,
        lens,
        last_use,
    }
}

/// The packed-panel element count the weight arena must reserve for a
/// node on `lane`, re-derived from the packing contracts in
/// [`tqt_fixedpoint::intgemm`]. Conv weights pack as an LHS over `cout ×
/// (cin·kh·kw)`: MRB-row `i64` panels wide, NMR-row `i16` panels of one
/// k-pair per tap and channel pair narrow. Dense weights pack as an RHS
/// over `in_dim × out_dim`: NCB-column panels wide, NNR-column k-pair
/// panels narrow. Depthwise convs and non-compute ops pack nothing.
fn expected_panel_len(op: &IntOp, lane: Lane) -> Option<usize> {
    match (core(op), lane) {
        (
            IntOp::Conv {
                wdims,
                depthwise: false,
                ..
            },
            lane,
        ) => {
            let (m, k) = (wdims[0], wdims[1] * wdims[2] * wdims[3]);
            Some(match lane {
                Lane::Wide => packed_lhs_len(m, k),
                Lane::Narrow => narrow_conv_lhs_len(*wdims),
            })
        }
        (
            IntOp::Dense {
                in_dim, out_dim, ..
            },
            lane,
        ) => Some(match lane {
            Lane::Wide => packed_rhs_len(*in_dim, *out_dim),
            Lane::Narrow => narrow_rhs_len(*in_dim, *out_dim),
        }),
        _ => None,
    }
}

/// `Σ|w|` over one weight row, exact.
fn l1(row: impl Iterator<Item = i64>) -> u128 {
    row.map(|v| u128::from(v.unsigned_abs())).sum()
}

/// A GEMM core's weights and their per-output-row `Σ|w|`: conv rows are
/// output channels over `cin·kh·kw`, dense rows the output features.
fn gemm_rows(op: &IntOp) -> Option<(&[i64], Vec<u128>)> {
    match core(op) {
        IntOp::Conv { w, wdims, .. } => {
            let k = (wdims[1] * wdims[2] * wdims[3]).max(1);
            Some((w, w.chunks(k).map(|r| l1(r.iter().copied())).collect()))
        }
        IntOp::Dense { w, out_dim, .. } => {
            let m = (*out_dim).max(1);
            let rows = (0..m)
                .map(|o| l1(w.iter().skip(o).step_by(m).copied()))
                .collect();
            Some((w, rows))
        }
        _ => None,
    }
}

/// The narrow-lane obligation for weights `w` with per-row sums `rows`
/// over an input the interval proof bounds by `|x| <= xmax`: every input
/// value and every weight fits `i16`, and `xmax · Σ_k |w[row, k]| < 2³¹`
/// for every row, so no `i32` partial sum can wrap. Returns why the
/// obligation fails, or `None` when it holds.
fn narrow_obligation(w: &[i64], rows: &[u128], xmax: u128) -> Option<String> {
    if xmax > i16::MAX as u128 {
        return Some(format!("input bound |x| <= {xmax} escapes i16"));
    }
    if let Some(v) = w.iter().find(|&&v| i16::try_from(v).is_err()) {
        return Some(format!("weight {v} escapes i16"));
    }
    let (row, l1) = rows
        .iter()
        .enumerate()
        .max_by_key(|&(_, l1)| *l1)
        .map(|(r, &l1)| (r, l1))
        .unwrap_or((0, 0));
    (xmax * l1 >= 1 << 31).then(|| {
        format!(
            "row {row}: |x| <= {xmax} times sum|w| = {l1} reaches 2^31 — an i32 \
             accumulator can wrap"
        )
    })
}

/// Proves (or refutes, with a counterexample node path) that `plan` is
/// alias-free for `g`: every read sees its producing write, no write
/// lands on a live value, every slot fits its tensors, and scratch
/// accounting matches. A clean [`Report`] is the proof. Runs the
/// interval analysis the narrow-lane re-proofs need; a caller that
/// already holds it passes its facts to [`check_plan_with`] instead.
pub fn check_plan(g: &IntGraph, plan: &IntPlan) -> Report {
    check_plan_with(g, plan, &analyze(g, plan.input_dims()).nodes)
}

/// [`check_plan`] against the per-node interval `facts` that
/// [`analyze`] computed for `g` on `plan`'s input dims.
pub fn check_plan_with(g: &IntGraph, plan: &IntPlan, facts: &[NodeFacts]) -> Report {
    let mut r = Report::new();
    let nodes = g.nodes();
    let n = nodes.len();
    let d = derive(g, plan.input_dims());

    if plan.num_nodes() != n || facts.len() != n {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan covers {} nodes and the interval facts {}, graph has {n}",
                plan.num_nodes(),
                facts.len()
            ),
        );
        return r;
    }
    // `|x|` bound of node `id`'s first input, from the interval facts.
    let xmax = |id: usize| {
        nodes[id].inputs.first().map_or(u128::MAX, |&i| {
            facts[i].lo.unsigned_abs().max(facts[i].hi.unsigned_abs())
        })
    };

    // 1. Storage facts: re-derived lengths and slot capacities (V018).
    for id in 0..n {
        if plan.len_of(id) != d.lens[id] {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!(
                    "plan says {} elements, shape re-derivation says {} (path: {})",
                    plan.len_of(id),
                    d.lens[id],
                    path_to(nodes, id)
                ),
            );
        }
        let s = plan.slot_of(id);
        if s >= plan.num_slots() {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!("assigned slot {s} out of range ({} slots)", plan.num_slots()),
            );
        } else if plan.slot_len(s) < d.lens[id] {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!(
                    "slot {s} holds {} elements but node needs {} (path: {})",
                    plan.slot_len(s),
                    d.lens[id],
                    path_to(nodes, id)
                ),
            );
        }
    }
    // 1b. Lanes and weight arenas (V018). Every non-depthwise conv /
    // dense core (standalone or fused) must own a packed panel of the
    // re-derived length for its lane, inside that lane's arena, pairwise
    // disjoint — a wrong extent would make the GEMM read another layer's
    // weights. A narrow lane must discharge the narrow obligation
    // against the interval proof's input bound, independently of the
    // planner's own format-based proof.
    let mut panels: Vec<(Lane, usize, usize, usize)> = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let lane = plan.lane(id);
        let want = expected_panel_len(&node.op, lane.unwrap_or(Lane::Wide));
        match (lane.zip(plan.weight_panel(id)), want) {
            (Some((lane, (off, len))), Some(el)) => {
                let arena = plan.arena_elems(lane);
                if len != el {
                    r.push(
                        Code::PlanStorage,
                        &nodes[id].name,
                        format!(
                            "packed {lane:?}-lane weight panel holds {len} elements, packing \
                             re-derivation says {el} (path: {})",
                            path_to(nodes, id)
                        ),
                    );
                } else if off + len > arena {
                    r.push(
                        Code::PlanStorage,
                        &nodes[id].name,
                        format!(
                            "packed weight panel [{off}, {}) escapes the {arena}-element \
                             {lane:?}-lane arena (path: {})",
                            off + len,
                            path_to(nodes, id)
                        ),
                    );
                } else {
                    panels.push((lane, off, len, id));
                }
                let rows = if lane == Lane::Narrow { gemm_rows(&node.op) } else { None };
                if let Some(why) = rows.and_then(|(w, rows)| narrow_obligation(w, &rows, xmax(id))) {
                    r.push(
                        Code::PlanStorage,
                        &nodes[id].name,
                        format!(
                            "planned on the narrow i16/i32 lane without proof: {why} \
                             (path: {})",
                            path_to(nodes, id)
                        ),
                    );
                }
            }
            (None, Some(_)) => {
                r.push(
                    Code::PlanStorage,
                    &nodes[id].name,
                    format!(
                        "no packed weight panel for a packable core (path: {})",
                        path_to(nodes, id)
                    ),
                );
            }
            (Some(_), None) => {
                r.push(
                    Code::PlanStorage,
                    &nodes[id].name,
                    "packed weight panel assigned to a node with no packable weights",
                );
            }
            (None, None) => {}
        }
    }
    panels.sort_unstable();
    for pair in panels.windows(2) {
        let (lane_a, off_a, len_a, a) = pair[0];
        let (lane_b, off_b, _, b) = pair[1];
        if lane_a == lane_b && off_a + len_a > off_b {
            r.push(
                Code::PlanStorage,
                &nodes[b].name,
                format!(
                    "packed weight panel at {off_b} overlaps `{}`'s panel \
                     [{off_a}, {})",
                    nodes[a].name,
                    off_a + len_a
                ),
            );
        }
    }

    // 1c. Depthwise channels the plan accumulates in i32 discharge the
    // same obligation per channel, each a single row of kh·kw taps.
    for (id, node) in nodes.iter().enumerate() {
        let flags = plan.depthwise_narrow(id);
        let channels: Vec<&[i64]> = match core(&node.op) {
            IntOp::Conv {
                w,
                wdims,
                depthwise: true,
                ..
            } => w.chunks((wdims[2] * wdims[3]).max(1)).collect(),
            _ => Vec::new(),
        };
        if flags.len() != channels.len() {
            r.push(
                Code::PlanStorage,
                &nodes[id].name,
                format!(
                    "plan flags {} depthwise channels, node has {} (path: {})",
                    flags.len(),
                    channels.len(),
                    path_to(nodes, id)
                ),
            );
            continue;
        }
        for (ch, wk) in channels.iter().enumerate().filter(|&(ch, _)| flags[ch]) {
            if let Some(why) = narrow_obligation(wk, &[l1(wk.iter().copied())], xmax(id)) {
                r.push(
                    Code::PlanStorage,
                    &nodes[id].name,
                    format!(
                        "depthwise channel {ch} accumulates in i32 without proof: {why} \
                         (path: {})",
                        path_to(nodes, id)
                    ),
                );
            }
        }
    }

    // 1d. Scratch accounting (V018): the wide lane checks out per-image
    // i64 im2col columns, the narrow lane one i16 activation panel per
    // conv column tile or a dense node's packed input rows.
    let (mut wide_ws, mut narrow_ws) = (0usize, 0usize);
    for (id, node) in nodes.iter().enumerate() {
        let (Some(lane), Some(&i0)) = (plan.lane(id), node.inputs.first()) else {
            continue;
        };
        let ish = &d.dims[i0];
        match (core(&node.op), lane) {
            (IntOp::Conv { geom, .. }, Lane::Wide) if ish.len() == 4 => {
                let (oh, ow) = geom.out_size(ish[2], ish[3]);
                wide_ws = wide_ws.max(ish[1] * geom.kh * geom.kw * oh * ow);
            }
            (IntOp::Conv { wdims, .. }, Lane::Narrow) => {
                narrow_ws = narrow_ws.max(narrow_panel_len(2 * narrow_conv_kpairs(*wdims)));
            }
            (IntOp::Dense { in_dim, .. }, Lane::Narrow) => {
                narrow_ws = narrow_ws.max(narrow_lhs_len(ish[0], *in_dim));
            }
            _ => {}
        }
    }
    for (what, planned, need) in [
        ("i64 im2col", plan.scratch_elems(), wide_ws),
        ("i16 narrow-panel", plan.narrow_scratch_elems(), narrow_ws),
    ] {
        if planned != need {
            r.push_global(
                Code::PlanStorage,
                format!(
                    "plan accounts {planned} {what} scratch elements, kernel contracts \
                     require {need}"
                ),
            );
        }
    }

    if !r.is_clean() {
        // Occupancy simulation below indexes by the storage facts just
        // refuted; stop at the stronger finding.
        return r;
    }

    // 2. Occupancy simulation over the re-derived liveness (V016/V017).
    let mut occupant: Vec<Option<usize>> = vec![None; plan.num_slots()];
    for (id, node) in nodes.iter().enumerate() {
        // Reads: each live operand must still be in its slot.
        for &i in &node.inputs {
            if d.lens[i] == 0 {
                continue;
            }
            let s = plan.slot_of(i);
            if occupant[s] != Some(i) {
                let holder = match occupant[s] {
                    Some(v) => format!("now holds `{}`", nodes[v].name),
                    None => "was never written".to_string(),
                };
                r.push(
                    Code::PlanStaleRead,
                    &nodes[id].name,
                    format!(
                        "reads operand `{}` from slot {s}, but the slot {holder} — the \
                         producing write was released or overwritten early \
                         (counterexample path: {})",
                        nodes[i].name,
                        path_to(nodes, id)
                    ),
                );
            }
        }
        // Write: the node's slot must hold no live value.
        if d.lens[id] == 0 {
            continue;
        }
        let s = plan.slot_of(id);
        if let Some(v) = occupant[s] {
            let live = d.last_use[v] >= id && v != id;
            if live {
                let stranded = if d.last_use[v] == usize::MAX {
                    "the graph output".to_string()
                } else {
                    format!("consumer `{}`", nodes[d.last_use[v].min(n - 1)].name)
                };
                r.push(
                    Code::PlanAlias,
                    &nodes[id].name,
                    format!(
                        "writes slot {s} while `{}` (produced at node {v}) is still \
                         live — {stranded} would read clobbered data \
                         (counterexample path: {})",
                        nodes[v].name,
                        path_to(nodes, id)
                    ),
                );
            }
        }
        occupant[s] = Some(id);
    }

    // 3. The graph output must have survived the whole run.
    let out = g.output_id();
    if d.lens[out] > 0 && occupant[plan.slot_of(out)] != Some(out) {
        r.push(
            Code::PlanStaleRead,
            &nodes[out].name,
            format!(
                "graph output no longer occupies slot {} after the final node",
                plan.slot_of(out)
            ),
        );
    }
    r
}

/// Proves (or refutes) that a [`FloatPlan`] — the training-step tape of
/// forward activations, xhats, gradients, and fan-in temps — is
/// alias-free for `g`, extending the `TQT-V016`–`TQT-V018` proofs from
/// inference plans to the full forward+backward tape. The planner is
/// again untrusted:
///
/// * value element counts are re-derived from `Graph::infer_shapes` (the
///   symbolic per-op shape rule, itself tested against the dims the
///   legacy forward produces zoo-wide) and compared per value
///   (`TQT-V018`);
/// * the plan-owned `ws`/`wpack`/`qw` arena accounting is re-derived from
///   the kernel workspace contracts (`conv2d_fwd_ws`, `conv2d_bwd_ws`,
///   depthwise `n·kelems`, `packed_a_len`) and the graph's weight
///   quantizers (`TQT-V018`);
/// * the forward tape must structurally match the graph (step *i*
///   defines activation *i* and reads exactly node *i*'s inputs);
/// * the whole tape is simulated over slot occupancy with the same
///   clobber/stale-read refutations as the inference checker
///   (`TQT-V016`/`TQT-V017`). Unlike inference plans, a training step may
///   legally write a value and read it in the same step (fan-in temps):
///   reads of earlier-defined values are validated *before* the step's
///   writes land, reads of step-local values after.
///
/// A clean [`Report`] is the proof; the float mutation test injects a
/// premature slot release and asserts the refutation names the victim
/// value.
pub fn check_float_plan(g: &Graph, plan: &FloatPlan) -> Report {
    let mut r = Report::new();
    let n = g.len();
    let shapes = g.infer_shapes(plan.input_dims());
    let ref_lens: Vec<usize> = shapes.iter().map(|s| s.iter().product()).collect();
    let nv = plan.num_values();

    // 1. Value storage facts (V018): re-derived lengths, slot ranges and
    // capacities.
    for v in 0..nv {
        let node = plan.kind_of(v).node();
        if node >= n {
            r.push_global(
                Code::PlanStorage,
                format!("value {v} refers to node {node}, graph has {n}"),
            );
            return r;
        }
        let name = plan.value_name(g, v);
        if plan.len_of(v) != ref_lens[node] {
            r.push(
                Code::PlanStorage,
                &name,
                format!(
                    "plan says {} elements, the reference executor's shape \
                     inference says {}",
                    plan.len_of(v),
                    ref_lens[node]
                ),
            );
        }
        let s = plan.slot_of(v);
        if s >= plan.num_slots() {
            r.push(
                Code::PlanStorage,
                &name,
                format!("assigned slot {s} out of range ({} slots)", plan.num_slots()),
            );
        } else if plan.slot_len(s) < plan.len_of(v) {
            r.push(
                Code::PlanStorage,
                &name,
                format!(
                    "slot {s} holds {} elements but the value needs {}",
                    plan.slot_len(s),
                    plan.len_of(v)
                ),
            );
        }
    }
    // Xhat values must exist exactly on batch-norm nodes: the backward
    // pass reads them instead of the raw input.
    for id in 0..n {
        let is_bn = matches!(g.node(id).op, FOp::BatchNorm(_));
        if plan.xhat_of(id).is_some() != is_bn {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                if is_bn {
                    "batch-norm node has no planned xhat value"
                } else {
                    "non-batch-norm node carries an xhat value"
                },
            );
        }
    }

    // 2. Plan-owned arena accounting (V018): mirror the kernel workspace
    // contracts instead of trusting the planner's own sums.
    let (mut ws_need, mut wpack_need, mut qw_total) = (0usize, 0usize, 0usize);
    let mut qw_segs: Vec<(usize, usize, usize)> = Vec::new();
    for id in 0..n {
        let node = g.node(id);
        let ish = &shapes[node.inputs.first().copied().unwrap_or(id)];
        let weight_elems = tqt_graph::ir::op_params(&node.op)
            .into_iter()
            .find(|p| p.kind == tqt_nn::ParamKind::Weight)
            .map(|p| p.value.len());
        match &node.op {
            FOp::Conv(l) => {
                let (nb, c, h, w) = (ish[0], ish[1], ish[2], ish[3]);
                let g2 = l.geom();
                let cout = shapes[id][1];
                ws_need = ws_need
                    .max(nb * conv2d_fwd_ws(c, h, w, g2))
                    .max(nb * conv2d_bwd_ws(c, h, w, cout, g2));
                wpack_need = wpack_need.max(packed_a_len(cout, c * g2.kh * g2.kw));
            }
            FOp::Depthwise(_) => {
                let kelems = weight_elems.unwrap_or(0);
                ws_need = ws_need.max(ish[0] * kelems);
            }
            _ => {}
        }
        match (node.wq.is_some(), plan.qw_seg(id), weight_elems) {
            (true, Some((off, len)), Some(el)) => {
                if len != el {
                    r.push(
                        Code::PlanStorage,
                        &node.name,
                        format!("quantized-weight segment holds {len} elements, weight has {el}"),
                    );
                } else {
                    qw_segs.push((off, len, id));
                }
                qw_total += el;
            }
            (true, None, Some(el)) => {
                r.push(
                    Code::PlanStorage,
                    &node.name,
                    "weight-quantized node has no quantized-weight segment",
                );
                qw_total += el;
            }
            (false, Some(_), _) => {
                r.push(
                    Code::PlanStorage,
                    &node.name,
                    "quantized-weight segment on a node without a weight quantizer",
                );
            }
            _ => {}
        }
    }
    if plan.scratch_elems() != ws_need {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} workspace elements, kernel contracts require {ws_need}",
                plan.scratch_elems()
            ),
        );
    }
    if plan.wpack_elems() != wpack_need {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} packed-filter elements, packing contracts require {wpack_need}",
                plan.wpack_elems()
            ),
        );
    }
    if plan.qw_elems() != qw_total {
        r.push_global(
            Code::PlanStorage,
            format!(
                "plan accounts {} quantized-weight elements, weight quantizers require {qw_total}",
                plan.qw_elems()
            ),
        );
    }
    qw_segs.sort_unstable();
    for pair in qw_segs.windows(2) {
        let (off_a, len_a, a) = pair[0];
        let (off_b, _, b) = pair[1];
        if off_a + len_a > off_b {
            r.push(
                Code::PlanStorage,
                &g.node(b).name,
                format!(
                    "quantized-weight segment at {off_b} overlaps `{}`'s segment [{off_a}, {})",
                    g.node(a).name,
                    off_a + len_a
                ),
            );
        }
    }
    if let Some(&(off, len, ref_id)) = qw_segs.last() {
        if off + len > plan.qw_elems() {
            r.push(
                Code::PlanStorage,
                &g.node(ref_id).name,
                format!(
                    "quantized-weight segment [{off}, {}) escapes the {}-element arena",
                    off + len,
                    plan.qw_elems()
                ),
            );
        }
    }

    // 3. Forward-tape structure: step i must define activation i from
    // exactly node i's inputs (the executor dispatches by node id).
    let steps = plan.steps();
    if steps.len() != n + 1 + plan.bwd_steps().len() {
        r.push_global(
            Code::PlanStorage,
            format!(
                "tape has {} steps; graph requires {} forward + 1 seed + {} backward",
                steps.len(),
                n,
                plan.bwd_steps().len()
            ),
        );
    }
    for (id, st) in steps.iter().enumerate().take(n) {
        if st.writes.first() != Some(&id) {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                "forward step does not define the node's activation first",
            );
        }
        if st.reads != g.node(id).inputs {
            r.push(
                Code::PlanStorage,
                &g.node(id).name,
                "forward step reads disagree with the node's inputs",
            );
        }
    }

    if !r.is_clean() {
        // The occupancy simulation indexes by the storage facts just
        // refuted; stop at the stronger finding.
        return r;
    }

    // 4. Occupancy simulation over re-derived liveness (V016/V017).
    let mut last_read = vec![0usize; nv];
    for (si, step) in steps.iter().enumerate() {
        for &rd in &step.reads {
            last_read[rd] = last_read[rd].max(si);
        }
    }
    let out_act = g.output_id();
    last_read[out_act] = usize::MAX; // pinned: logits survive the run
    let mut occupant: Vec<Option<usize>> = vec![None; plan.num_slots()];
    let mut defined_at: Vec<Option<usize>> = vec![None; nv];
    for (si, step) in steps.iter().enumerate() {
        // Reads of values defined in earlier steps must still be in
        // their slots *before* this step's writes land.
        for &rd in &step.reads {
            match defined_at[rd] {
                Some(_) => {
                    if occupant[plan.slot_of(rd)] != Some(rd) {
                        stale_read(&mut r, g, plan, rd, si, occupant[plan.slot_of(rd)]);
                    }
                }
                None => {
                    if !step.writes.contains(&rd) {
                        r.push(
                            Code::PlanStaleRead,
                            plan.value_name(g, rd),
                            format!("read at step {si} before any write defines it"),
                        );
                    }
                }
            }
        }
        for &w in &step.writes {
            if defined_at[w].is_some() {
                r.push(
                    Code::PlanStorage,
                    plan.value_name(g, w),
                    format!("defined twice (again at step {si}); the tape is not SSA"),
                );
            }
            let s = plan.slot_of(w);
            if let Some(v) = occupant[s] {
                if v != w && last_read[v] >= si {
                    r.push(
                        Code::PlanAlias,
                        plan.value_name(g, w),
                        format!(
                            "step {si} writes slot {s} while `{}` is still live \
                             (last read at step {}) — the pending consumer would \
                             read clobbered data",
                            plan.value_name(g, v),
                            if last_read[v] == usize::MAX {
                                "end-of-tape (pinned)".to_string()
                            } else {
                                last_read[v].to_string()
                            }
                        ),
                    );
                }
            }
            occupant[s] = Some(w);
            defined_at[w] = Some(si);
        }
        // Same-step write-then-read (fan-in accumulation) is legal;
        // validate those reads now that the writes landed.
        for &rd in &step.reads {
            if defined_at[rd] == Some(si) && occupant[plan.slot_of(rd)] != Some(rd) {
                stale_read(&mut r, g, plan, rd, si, occupant[plan.slot_of(rd)]);
            }
        }
    }

    // 5. The logits must have survived the whole training step.
    if occupant[plan.slot_of(out_act)] != Some(out_act) {
        r.push(
            Code::PlanStaleRead,
            &g.node(out_act).name,
            format!(
                "graph output no longer occupies slot {} after the final step",
                plan.slot_of(out_act)
            ),
        );
    }
    r
}

/// Pushes the V017 refutation for a stranded read, naming the victim
/// value so mutation tests can pin the counterexample.
fn stale_read(
    r: &mut Report,
    g: &Graph,
    plan: &FloatPlan,
    rd: usize,
    si: usize,
    holder: Option<usize>,
) {
    let holder = match holder {
        Some(v) => format!("now holds `{}`", plan.value_name(g, v)),
        None => "was never written".to_string(),
    };
    r.push(
        Code::PlanStaleRead,
        plan.value_name(g, rd),
        format!(
            "read at step {si} from slot {}, but the slot {holder} — the \
             producing write was released or overwritten early",
            plan.slot_of(rd)
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqt_fixedpoint::lower::IntNode;
    use tqt_fixedpoint::QFormat;

    fn q8(frac: i32) -> QFormat {
        QFormat::new(frac, 8, true)
    }

    fn diamond() -> IntGraph {
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q8(4) },
                inputs: vec![0],
            },
            IntNode {
                name: "relu".into(),
                op: IntOp::Relu { cap_q: None },
                inputs: vec![1],
            },
            IntNode {
                name: "rq".into(),
                op: IntOp::Requant { format: q8(4) },
                inputs: vec![1],
            },
            IntNode {
                name: "add".into(),
                op: IntOp::Add,
                inputs: vec![2, 3],
            },
        ];
        IntGraph::from_parts(nodes, 4)
    }

    #[test]
    fn clean_plans_are_proven() {
        let g = diamond();
        for dims in [vec![1, 32], vec![4, 32]] {
            let plan = g.plan(&dims);
            let r = check_plan(&g, &plan);
            assert!(r.is_clean(), "{r}");
        }
    }

    #[test]
    fn chain_plan_is_proven() {
        let nodes = vec![
            IntNode {
                name: "in".into(),
                op: IntOp::Input,
                inputs: vec![],
            },
            IntNode {
                name: "q".into(),
                op: IntOp::QuantF32 { format: q8(4) },
                inputs: vec![0],
            },
            IntNode {
                name: "r1".into(),
                op: IntOp::Requant { format: q8(3) },
                inputs: vec![1],
            },
            IntNode {
                name: "r2".into(),
                op: IntOp::Requant { format: q8(2) },
                inputs: vec![2],
            },
            IntNode {
                name: "flat".into(),
                op: IntOp::Flatten,
                inputs: vec![3],
            },
        ];
        let g = IntGraph::from_parts(nodes, 4);
        let plan = g.plan(&[2, 16]);
        let r = check_plan(&g, &plan);
        assert!(r.is_clean(), "{r}");
    }
}
