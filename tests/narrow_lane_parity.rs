//! Differential gate for the proven-narrow GEMM lane.
//!
//! The plan runs a conv/dense node on the `i16 × i16 → i32` lane only
//! when it proves every accumulator fits i32; everything else stays on
//! the exact-i128 wide lane. The narrow lane must be a pure speed change:
//!
//! * zoo-wide, at 4/8/16-bit weights, batch 1 and 8, fused and unfused,
//!   every narrow node's output and saturation/overflow counters equal
//!   the wide oracle (`gemm_i64_narrow_fused`, or an exact i128 loop for
//!   depthwise channels) on the very operands the engine saw;
//! * every conv and dense node of every 8-bit zoo model is narrow, every
//!   16-bit zoo node sits on the lane its bound dictates, and nodes on
//!   16-bit input grids or 64-bit accumulator formats stay wide;
//! * the micro-kernel's scalar and AVX2 paths are bit-identical, across
//!   ragged tile edges, odd `k`, and an accumulator of exactly `2³¹ − 1`;
//! * the row-wise depthwise kernel matches the i128 path on hand-built
//!   edge geometry (stride 2, pad 1, odd 5×7 planes, planes smaller than
//!   the kernel, rows wider than its accumulator block), fused and
//!   unfused, values and counters, without a heap allocation per plane.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tqt_fixedpoint::intgemm::{
    depthwise_plane, gemm_i64_narrow_fused, gemm_narrow_packed, narrow_lhs_len, narrow_micro,
    narrow_rhs_len, pack_narrow_lhs, pack_narrow_rhs, Epilogue, Lhs, Rhs, NMR, NNR,
};
use tqt_fixedpoint::lower::{IntNode, IntOp};
use tqt_fixedpoint::{fuse, lower, IntGraph, IntPlan, Lane, QFormat};
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::check::{self, Config, Gen};
use tqt_rt::sync::Counter;
use tqt_rt::{prop_assert, Rng};
use tqt_tensor::conv::{im2col_into, Conv2dGeom};
use tqt_tensor::{init, Tensor};

/// The system allocator, counting the allocations each thread makes —
/// how the depthwise test shows its kernel allocates nothing per plane.
struct ThreadCounting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

impl ThreadCounting {
    fn tick() {
        // `try_with`: an allocation during thread teardown is not counted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the thread-local counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        // SAFETY: `ptr` came from `System`; the caller's guarantees for
        // `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

/// Allocations the calling thread made while `f` ran.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn lowered(kind: ModelKind, bits: WeightBits, seed: u64) -> IntGraph {
    let mut g = kind.build(seed);
    transforms::optimize(&mut g, &INPUT_DIMS);
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(bits));
    let mut rng = init::rng(seed + 200);
    g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
    lower(&mut g)
}

fn core(op: &IntOp) -> &IntOp {
    match op {
        IntOp::Fused { core, .. } => core,
        other => other,
    }
}

/// The wide-lane oracle for GEMM node `id` on operand `x` (and residual
/// `res`): `(output, overflowed, saturated)`.
fn wide_oracle(
    plan: &IntPlan,
    id: usize,
    op: &IntOp,
    x: &[i64],
    ish: &[usize],
    res: Option<&[i64]>,
) -> (Vec<i64>, u64, u64) {
    let (ovf, sat) = (Counter::new(), Counter::new());
    let steps = plan.tile_steps(id);
    let out = match core(op) {
        IntOp::Conv {
            w,
            wdims,
            bias,
            geom,
            ..
        } => {
            let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
            let (oh, ow) = geom.out_size(h, wd);
            let (krows, plane) = (c * geom.kh * geom.kw, wdims[0] * oh * ow);
            let mut out = vec![0i64; nb * plane];
            for ni in 0..nb {
                let mut cols = vec![0i64; krows * oh * ow];
                im2col_into(
                    &x[ni * c * h * wd..(ni + 1) * c * h * wd],
                    0i64,
                    c,
                    h,
                    wd,
                    *geom,
                    &mut cols,
                );
                let epi = Epilogue {
                    bias_row: bias.as_deref(),
                    bias_col: None,
                    steps,
                    residual: res.map(|r| &r[ni * plane..(ni + 1) * plane]),
                };
                gemm_i64_narrow_fused(
                    wdims[0],
                    oh * ow,
                    krows,
                    Lhs::Rows(w),
                    Rhs::Rows(&cols),
                    epi,
                    &mut out[ni * plane..(ni + 1) * plane],
                    &ovf,
                    &sat,
                    false,
                );
            }
            out
        }
        IntOp::Dense {
            w,
            in_dim,
            out_dim,
            bias,
            ..
        } => {
            let mut out = vec![0i64; ish[0] * out_dim];
            let epi = Epilogue {
                bias_row: None,
                bias_col: bias.as_deref(),
                steps,
                residual: res,
            };
            gemm_i64_narrow_fused(
                ish[0],
                *out_dim,
                *in_dim,
                Lhs::Rows(x),
                Rhs::Rows(w),
                epi,
                &mut out,
                &ovf,
                &sat,
                false,
            );
            out
        }
        other => panic!("not a GEMM core: {other:?}"),
    };
    (out, ovf.get(), sat.get())
}

/// Exact i128 accumulators of one depthwise plane `x` (`h × wd`) with
/// kernel `wk`, by direct per-pixel, per-tap summation.
fn depthwise_exact(x: &[i64], (h, wd): (usize, usize), wk: &[i64], geom: Conv2dGeom) -> Vec<i128> {
    let (oh, ow) = geom.out_size(h, wd);
    let mut out = Vec::with_capacity(oh * ow);
    for oi in 0..oh {
        for oj in 0..ow {
            let mut acc = 0i128;
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let ii = (oi * geom.stride + ki) as isize - geom.pad as isize;
                    let jj = (oj * geom.stride + kj) as isize - geom.pad as isize;
                    if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < wd {
                        let xv = x[ii as usize * wd + jj as usize];
                        acc += i128::from(xv) * i128::from(wk[ki * geom.kw + kj]);
                    }
                }
            }
            out.push(acc);
        }
    }
    out
}

/// The i128 path for depthwise node `id` (fused or not) on operand `x`
/// (and residual `res`): exact i128 accumulators stored through the
/// node's bias and fused epilogue. `(output, overflowed, saturated)`.
fn depthwise_oracle(
    plan: &IntPlan,
    id: usize,
    op: &IntOp,
    x: &[i64],
    ish: &[usize],
    res: Option<&[i64]>,
) -> (Vec<i64>, u64, u64) {
    let IntOp::Conv { w, bias, geom, .. } = core(op) else {
        panic!("not a depthwise conv")
    };
    let epi = Epilogue {
        bias_row: bias.as_deref(),
        bias_col: None,
        steps: plan.tile_steps(id),
        residual: res,
    };
    let (nb, c, h, wd) = (ish[0], ish[1], ish[2], ish[3]);
    let (oh, ow) = geom.out_size(h, wd);
    let (taps, ncols) = (geom.kh * geom.kw, oh * ow);
    let mut out = vec![0i64; nb * c * ncols];
    let (mut ovf, mut sat) = (0, 0);
    for (img, plane) in out.chunks_exact_mut(ncols).enumerate() {
        let co = img % c;
        let xim = &x[img * h * wd..(img + 1) * h * wd];
        let acc = depthwise_exact(xim, (h, wd), &w[co * taps..(co + 1) * taps], *geom);
        epi.store_row(&acc, co, 0, img * ncols, plane, &mut ovf, &mut sat);
    }
    (out, ovf, sat)
}

/// Runs `g` on `x` with every node's output tapped, then checks every
/// GEMM node against the wide oracle, and every depthwise node (fused or
/// not) with a narrow channel against the i128 path, on the tapped
/// operands. Returns how many narrow GEMM nodes it checked.
fn check_gemm_nodes(label: &str, g: &IntGraph, x: &Tensor) -> usize {
    let plan = g.plan(x.dims());
    let mut taps: Vec<Vec<i64>> = vec![Vec::new(); g.nodes().len()];
    let mut ex = tqt_fixedpoint::IntExecutor::with_plan(g, &plan);
    let stats = ex.run_tapped(x, &mut |id, v| taps[id] = v.to_vec());
    let mut narrow = 0;
    for (id, node) in g.nodes().iter().enumerate() {
        let Some(&i0) = node.inputs.first() else {
            continue;
        };
        let ish = plan.shape(i0);
        let st = &stats.nodes[id];
        match plan.lane(id) {
            Some(lane) => {
                let res = node.inputs.get(1).map(|&r| taps[r].as_slice());
                let (want, ovf, sat) = wide_oracle(&plan, id, &node.op, &taps[i0], ish, res);
                assert!(
                    want == taps[id],
                    "{label}: {lane:?} node `{}` differs from the wide oracle",
                    node.name
                );
                assert_eq!(
                    (st.overflowed, st.saturated),
                    (ovf, sat),
                    "{label}: `{}` counters",
                    node.name
                );
                if lane == Lane::Narrow {
                    assert_eq!(
                        st.overflowed, 0,
                        "{label}: `{}` proven narrow but wrapped",
                        node.name
                    );
                    narrow += 1;
                }
            }
            None if plan.depthwise_narrow(id).contains(&true) => {
                let res = node.inputs.get(1).map(|&r| taps[r].as_slice());
                let (want, ovf, sat) = depthwise_oracle(&plan, id, &node.op, &taps[i0], ish, res);
                assert!(
                    want == taps[id],
                    "{label}: depthwise `{}` differs from the i128 oracle",
                    node.name
                );
                assert_eq!(
                    (st.overflowed, st.saturated),
                    (ovf, sat),
                    "{label}: depthwise `{}` counters",
                    node.name
                );
            }
            None => {}
        }
    }
    narrow
}

#[test]
fn narrow_nodes_match_the_wide_oracle_zoo_wide() {
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        for bits in [WeightBits::Int4, WeightBits::Int8, WeightBits::Int16] {
            let ig = lowered(kind, bits, 300 + i as u64);
            let fg = fuse(ig.clone());
            let mut rng = init::rng(900 + i as u64);
            for batch in [1usize, 8] {
                let x = init::normal([batch, 3, 32, 32], 0.0, 1.5, &mut rng);
                for (form, g) in [("unfused", &ig), ("fused", &fg)] {
                    let label = format!("{} {bits:?} batch {batch} {form}", kind.name());
                    let n = check_gemm_nodes(&label, g, &x);
                    if bits != WeightBits::Int16 {
                        assert!(n > 0, "{label}: no narrow node to check");
                    }
                }
            }
        }
    }
}

/// The narrow-lane bound recomputed here from the node's input format
/// and weights: `Some(true)` when it holds.
fn bound_holds(plan: &IntPlan, node: &IntNode) -> Option<bool> {
    let f = plan.format(*node.inputs.first()?);
    let xmax = f.qmin().unsigned_abs().max(f.qmax().unsigned_abs()) as u128;
    let (w, rows): (&Vec<i64>, Vec<u128>) = match core(&node.op) {
        IntOp::Conv {
            w,
            wdims,
            depthwise: false,
            ..
        } => {
            let k = wdims[1] * wdims[2] * wdims[3];
            (
                w,
                w.chunks(k)
                    .map(|r| r.iter().map(|v| v.unsigned_abs() as u128).sum())
                    .collect(),
            )
        }
        IntOp::Dense { w, out_dim, .. } => (
            w,
            (0..*out_dim)
                .map(|o| {
                    w.iter()
                        .skip(o)
                        .step_by(*out_dim)
                        .map(|v| v.unsigned_abs() as u128)
                        .sum()
                })
                .collect(),
        ),
        _ => return None,
    };
    let fits = xmax <= i16::MAX as u128 && w.iter().all(|&v| i16::try_from(v).is_ok());
    Some(fits && rows.iter().all(|&l1| xmax * l1 < 1 << 31))
}

#[test]
fn zoo_lanes_follow_the_bound_and_every_8bit_gemm_is_narrow() {
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        for bits in [WeightBits::Int8, WeightBits::Int16] {
            let ig = lowered(kind, bits, 500 + i as u64);
            for g in [ig.clone(), fuse(ig)] {
                let plan = g.plan(&INPUT_DIMS);
                for (id, node) in g.nodes().iter().enumerate() {
                    let Some(holds) = bound_holds(&plan, node) else {
                        if let IntOp::Conv {
                            depthwise: true, ..
                        } = core(&node.op)
                        {
                            if bits == WeightBits::Int8 {
                                assert!(
                                    plan.depthwise_narrow(id).iter().all(|&n| n),
                                    "{}: 8-bit depthwise `{}` has a wide channel",
                                    kind.name(),
                                    node.name
                                );
                            }
                        }
                        continue;
                    };
                    let lane = plan.lane(id);
                    if bits == WeightBits::Int8 {
                        assert_eq!(
                            lane,
                            Some(Lane::Narrow),
                            "{}: 8-bit `{}`",
                            kind.name(),
                            node.name
                        );
                    }
                    let want = if holds { Lane::Narrow } else { Lane::Wide };
                    assert_eq!(
                        lane,
                        Some(want),
                        "{}: `{}` (bound holds: {holds})",
                        kind.name(),
                        node.name
                    );
                }
            }
        }
    }
}

#[test]
fn sixteen_bit_grids_and_accumulator_inputs_stay_wide() {
    let g = common::two_lane_int_graph(17);
    let mut rng = init::rng(18);
    for batch in [1usize, 8] {
        let plan = g.plan(&[batch, 2, 8, 8]);
        let lanes: Vec<_> = ["conv_wide", "conv_narrow", "fc"]
            .iter()
            .map(|name| plan.lane(g.nodes().iter().position(|n| n.name == *name).unwrap()))
            .collect();
        assert_eq!(
            lanes,
            [Some(Lane::Wide), Some(Lane::Narrow), Some(Lane::Wide)]
        );
        let dw = g.nodes().iter().position(|n| n.name == "dw_wide").unwrap();
        assert_eq!(plan.depthwise_narrow(dw), [false; 4]);
        let x = init::normal([batch, 2, 8, 8], 0.0, 8.0, &mut rng);
        assert_eq!(
            check_gemm_nodes(&format!("two-lane batch {batch}"), &g, &x),
            1
        );
    }
}

/// A one-dense-node graph over an unsigned 1-bit input (`|x| <= 1`)
/// whose single output row sums to `l1`.
fn dense_with_row_l1(l1: u64) -> (IntGraph, usize) {
    let mut w = Vec::new();
    let mut left = l1;
    while left > 0 {
        let v = left.min(i16::MAX as u64);
        w.push(v as i64);
        left -= v;
    }
    let in_dim = w.len();
    let nodes = vec![
        IntNode {
            name: "input".into(),
            op: IntOp::Input,
            inputs: vec![],
        },
        IntNode {
            name: "q".into(),
            op: IntOp::QuantF32 {
                format: QFormat::new(0, 1, false),
            },
            inputs: vec![0],
        },
        IntNode {
            name: "fc".into(),
            op: IntOp::Dense {
                w,
                in_dim,
                out_dim: 1,
                bias: None,
                w_frac: 0,
            },
            inputs: vec![1],
        },
    ];
    (IntGraph::from_parts(nodes, 2), in_dim)
}

#[test]
fn plan_bound_edge_is_exactly_two_to_the_31() {
    // |x| * sum|w| = 2^31 - 1: narrow, and the all-ones input drives the
    // i32 accumulator to exactly i32::MAX.
    let (g, k) = dense_with_row_l1((1 << 31) - 1);
    let plan = g.plan(&[1, k]);
    assert_eq!(plan.lane(2), Some(Lane::Narrow));
    let y = g.run(&Tensor::from_vec([1, k], vec![1.0; k]));
    assert_eq!(y.data(), &[i64::from(i32::MAX)]);
    // One more unit of weight reaches 2^31: wide.
    let (g, k) = dense_with_row_l1(1 << 31);
    assert_eq!(g.plan(&[1, k]).lane(2), Some(Lane::Wide));
    let y = g.run(&Tensor::from_vec([1, k], vec![1.0; k]));
    assert_eq!(y.data(), &[1i64 << 31]);
}

#[derive(Debug, Clone)]
struct KernelCase {
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
}

fn kernel_gen() -> Gen<KernelCase> {
    Gen::new(
        |rng: &mut Rng| KernelCase {
            // Crosses the NMR=6 / NNR=16 tile edges, odd and even k.
            m: rng.gen_range(1usize..20),
            n: rng.gen_range(1usize..40),
            k: rng.gen_range(1usize..70),
            seed: rng.gen_range(0u64..1 << 32),
        },
        |c: &KernelCase| {
            let mut out = Vec::new();
            for (m, n, k) in [
                (c.m / 2, c.n, c.k),
                (c.m, c.n / 2, c.k),
                (c.m, c.n, c.k / 2),
            ] {
                if m > 0 && n > 0 && k > 0 && (m, n, k) != (c.m, c.n, c.k) {
                    out.push(KernelCase {
                        m,
                        n,
                        k,
                        seed: c.seed,
                    });
                }
            }
            out
        },
    )
}

#[test]
fn narrow_gemm_matches_the_wide_oracle_on_ragged_shapes() {
    check::run(
        "narrow_gemm_matches_the_wide_oracle_on_ragged_shapes",
        Config::cases(150),
        kernel_gen(),
        |c: &KernelCase| {
            let mut rng = Rng::new(c.seed);
            // |x| <= 255 (post-ReLU unsigned 8-bit), |w| <= 32767 scaled so
            // 255 * k * |w| < 2^31: the lane's proof holds.
            let wmax = ((1i64 << 31) / (255 * c.k as i64 + 1)).min(i16::MAX as i64);
            let a: Vec<i64> = (0..c.m * c.k)
                .map(|_| rng.gen_range(-wmax..wmax + 1))
                .collect();
            let b: Vec<i64> = (0..c.k * c.n).map(|_| rng.gen_range(0i64..256)).collect();
            let bias: Vec<i64> = (0..c.m).map(|_| rng.gen_range(-5000i64..5000)).collect();
            let mut ap = vec![0i16; narrow_lhs_len(c.m, c.k)];
            pack_narrow_lhs(&a, c.m, c.k, &mut ap);
            let mut bp = vec![0i16; narrow_rhs_len(c.k, c.n)];
            pack_narrow_rhs(&b, c.k, c.n, &mut bp);
            let epi = Epilogue {
                bias_row: Some(&bias),
                ..Epilogue::default()
            };
            let mut got = vec![0i64; c.m * c.n];
            let (mut ovf, mut sat) = (0, 0);
            gemm_narrow_packed(c.m, c.n, c.k, &ap, &bp, epi, &mut got, &mut ovf, &mut sat);
            let mut want = vec![0i64; c.m * c.n];
            let (wo, ws) = (Counter::new(), Counter::new());
            gemm_i64_narrow_fused(
                c.m,
                c.n,
                c.k,
                Lhs::Rows(&a),
                Rhs::Rows(&b),
                epi,
                &mut want,
                &wo,
                &ws,
                false,
            );
            prop_assert!(got == want, "narrow GEMM diverged on {c:?}");
            prop_assert!(
                (ovf, sat) == (wo.get(), ws.get()),
                "counters diverged on {c:?}"
            );
            Ok(())
        },
    );
}

/// One packed weight panel and one packed activation panel of `kpairs`
/// k-pairs with arbitrary (unproven) i16 contents.
fn random_panels(kpairs: usize, rng: &mut Rng) -> (Vec<i16>, Vec<i16>) {
    let mut v = |len| {
        (0..len)
            .map(|_| rng.gen_range(-32768i32..32768) as i16)
            .collect::<Vec<_>>()
    };
    (v(kpairs * NMR * 2), v(kpairs * NNR * 2))
}

/// `avx = true` only allows the AVX2 kernel: on a CPU without AVX2 the
/// call falls back to the scalar loop, so this holds on every host.
#[test]
fn scalar_and_avx2_micro_kernels_are_bit_identical() {
    check::run(
        "scalar_and_avx2_micro_kernels_are_bit_identical",
        Config::cases(200),
        kernel_gen(),
        |c: &KernelCase| {
            let mut rng = Rng::new(c.seed ^ 0x6d61_6464);
            // Full-range operands: the i32 sums wrap, and both kernels
            // must wrap identically (madd's one overflow case included).
            let kpairs = c.k.div_ceil(2);
            let (mut a, mut b) = random_panels(kpairs, &mut rng);
            if c.seed.is_multiple_of(3) {
                a.fill(i16::MIN);
                b.fill(i16::MIN);
            }
            let (mut scalar, mut simd) = ([0i32; NMR * NNR], [0i32; NMR * NNR]);
            narrow_micro(kpairs, &a, &b, &mut scalar, false);
            narrow_micro(kpairs, &a, &b, &mut simd, true);
            prop_assert!(scalar == simd, "scalar and AVX2 kernels diverged on {c:?}");
            Ok(())
        },
    );
}

#[test]
fn accumulator_of_exactly_i32_max_is_exact_on_both_kernels() {
    // k = 65539 weights summing to 2^31 - 1 against an all-ones
    // activation: the largest accumulator the proof admits, once per
    // sign, in every row and column of a full tile.
    let mut row = vec![i64::from(i16::MAX); 65536];
    row.extend([i64::from(i16::MAX), i64::from(i16::MAX), 1]);
    let k = row.len();
    assert_eq!(row.iter().sum::<i64>(), (1 << 31) - 1);
    let a: Vec<i64> = (0..NMR)
        .flat_map(|r| row.iter().map(move |&v| if r % 2 == 0 { v } else { -v }))
        .collect();
    let b = vec![1i64; k * NNR];
    let mut ap = vec![0i16; narrow_lhs_len(NMR, k)];
    pack_narrow_lhs(&a, NMR, k, &mut ap);
    let mut bp = vec![0i16; narrow_rhs_len(k, NNR)];
    pack_narrow_rhs(&b, k, NNR, &mut bp);
    for avx in [false, true] {
        let mut acc = [0i32; NMR * NNR];
        narrow_micro(k.div_ceil(2), &ap, &bp, &mut acc, avx);
        for (r, accrow) in acc.chunks(NNR).enumerate() {
            let want = if r % 2 == 0 { i32::MAX } else { -i32::MAX };
            assert!(
                accrow.iter().all(|&v| v == want),
                "avx={avx} row {r}: {accrow:?}"
            );
        }
    }
}

/// Depthwise edge geometry: `(h, w, geom)` of one input plane and a 3×3
/// kernel — stride 2 with pad 1, odd planes, planes smaller than the
/// kernel, and rows wider than the kernel's 64-element accumulator block
/// (stride 1 and 2).
fn dw_edge_geometries() -> Vec<(usize, usize, Conv2dGeom)> {
    let (s1, s2) = (Conv2dGeom::new(3, 1, 1), Conv2dGeom::new(3, 2, 1));
    vec![
        (8, 8, s2),
        (5, 7, s1),
        (5, 7, s2),
        (1, 1, s1),
        (2, 2, s1),
        (2, 2, s2),
        (3, 70, s1),
        (4, 131, s2),
    ]
}

/// `input → q8 → depthwise(3 channels, bias) → requant u8 → relu`: the
/// requant saturates on both sides, and `fuse` folds the chain into one
/// depthwise-core node.
fn depthwise_graph(geom: Conv2dGeom, seed: u64) -> IntGraph {
    let mut rng = Rng::new(seed);
    let w: Vec<i64> = (0..3 * 9).map(|_| rng.gen_range(-300i64..301)).collect();
    let node = |name: &str, op: IntOp, inputs: Vec<usize>| IntNode {
        name: name.into(),
        op,
        inputs,
    };
    let nodes = vec![
        node("input", IntOp::Input, vec![]),
        node(
            "q8",
            IntOp::QuantF32 {
                format: QFormat::new(4, 8, true),
            },
            vec![0],
        ),
        node(
            "dw",
            IntOp::Conv {
                w,
                wdims: [3, 1, 3, 3],
                bias: Some(vec![700, -900, 5]),
                geom,
                depthwise: true,
                w_frac: 6,
            },
            vec![1],
        ),
        node(
            "rq",
            IntOp::Requant {
                format: QFormat::new(3, 8, false),
            },
            vec![2],
        ),
        node("relu", IntOp::Relu { cap_q: Some(200) }, vec![3]),
    ];
    IntGraph::from_parts(nodes, 4)
}

#[test]
fn depthwise_edge_geometry_matches_the_i128_path() {
    for (gi, (h, wd, geom)) in dw_edge_geometries().into_iter().enumerate() {
        let g = depthwise_graph(geom, 40 + gi as u64);
        let fg = fuse(g.clone());
        assert!(
            fg.nodes().iter().any(|n| matches!(
                &n.op,
                IntOp::Fused { core, .. } if matches!(**core, IntOp::Conv { depthwise: true, .. })
            )),
            "{h}x{wd}: the depthwise chain did not fuse"
        );
        let mut rng = init::rng(60 + gi as u64);
        for batch in [1usize, 2] {
            let x = init::normal([batch, 3, h, wd], 0.0, 4.0, &mut rng);
            for (form, g) in [("unfused", &g), ("fused", &fg)] {
                let plan = g.plan(x.dims());
                let dw = (0..g.nodes().len())
                    .find(|&id| !plan.depthwise_narrow(id).is_empty())
                    .expect("the graph has a depthwise node");
                assert_eq!(
                    plan.depthwise_narrow(dw),
                    [true; 3],
                    "{h}x{wd}: narrow proof"
                );
                let label = format!(
                    "depthwise {h}x{wd} stride {} batch {batch} {form}",
                    geom.stride
                );
                check_gemm_nodes(&label, g, &x);
            }
        }
    }
}

#[test]
fn depthwise_plane_allocates_nothing_and_is_lane_independent() {
    use tqt_fixedpoint::intgemm::TileStep;
    let steps = [
        TileStep::Requant {
            shift: 7,
            qmin: 0,
            qmax: 255,
        },
        TileStep::ReluCap(200),
    ];
    let mut rng = Rng::new(77);
    for (h, wd, geom) in dw_edge_geometries() {
        let (oh, ow) = geom.out_size(h, wd);
        let x: Vec<i64> = (0..h * wd).map(|_| rng.gen_range(-128i64..128)).collect();
        let wk: Vec<i64> = (0..9).map(|_| rng.gen_range(-300i64..301)).collect();
        let bias = [rng.gen_range(-2000i64..2001)];
        for steps in [&steps[..0], &steps[..]] {
            let epi = Epilogue {
                bias_row: Some(&bias),
                steps,
                ..Epilogue::default()
            };
            let (mut narrow, mut wide) = (vec![0i64; oh * ow], vec![0i64; oh * ow]);
            let (mut nc, mut wc) = ((0u64, 0u64), (0u64, 0u64));
            let allocs = allocs_during(|| {
                depthwise_plane::<i32>(
                    &x,
                    (h, wd),
                    &wk,
                    geom,
                    &epi,
                    (0, 0),
                    &mut narrow,
                    &mut nc.0,
                    &mut nc.1,
                );
            });
            assert_eq!(allocs, 0, "{h}x{wd}: the narrow depthwise plane allocated");
            depthwise_plane::<i128>(
                &x,
                (h, wd),
                &wk,
                geom,
                &epi,
                (0, 0),
                &mut wide,
                &mut wc.0,
                &mut wc.1,
            );
            assert_eq!(narrow, wide, "{h}x{wd}: i32 and i128 accumulation differ");
            assert_eq!(nc, wc, "{h}x{wd}: counters differ between lanes");
            let mut exact = vec![0i64; oh * ow];
            let mut ec = (0u64, 0u64);
            epi.store_row(
                &depthwise_exact(&x, (h, wd), &wk, geom),
                0,
                0,
                0,
                &mut exact,
                &mut ec.0,
                &mut ec.1,
            );
            assert_eq!(
                narrow, exact,
                "{h}x{wd}: row-wise kernel differs from per-pixel sums"
            );
            assert_eq!(nc, ec, "{h}x{wd}: counters differ from per-pixel sums");
            if !steps.is_empty() {
                assert!(nc.1 > 0, "{h}x{wd}: the requant never clamped");
            }
        }
    }
}
