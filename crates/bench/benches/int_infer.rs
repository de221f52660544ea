//! Integer-inference bench: the blocked, packed, fused i8 GEMM vs the
//! retained naive oracle (matmul + separate requant pass) across the
//! square sweep the float suite uses, the three requant epilogues at the
//! headline shape, and end-to-end int8 forward latency for every zoo
//! model through the buffer-reusing [`IntExecutor`].
//!
//! With `--json <path>` (as driven by `scripts/bench.sh`) the results are
//! also written as a machine-readable report.

use tqt_fixedpoint::gemm_i8::has_avx2;
use tqt_fixedpoint::kernels::{
    col_sums, matmul_i8_acc32_into, requant_buffer_affine_into, requant_buffer_pow2_into,
    requant_buffer_real_into, row_sums,
};
use tqt_fixedpoint::requant::NormalizedMultiplier;
use tqt_fixedpoint::{
    fuse, gemm_i8_fused_prepacked, lower, rebalance, IntExecutor, PackedB, RequantMode,
};
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_nn::Mode;
use tqt_rt::bench::{black_box, Bench, Report};
use tqt_tensor::{init, Tensor};

fn fill_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = init::rng(seed);
    (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
}

fn main() {
    let mut report = Report::from_args("int_infer");
    let bench = if report.smoke() {
        Bench::smoke()
    } else {
        Bench::with_samples(20)
    };

    // i8 GEMM square sweep incl. the headline 256^3: blocked+fused kernel
    // vs the naive oracle path (triple-loop matmul, then a separate
    // full-buffer requant pass) that PR 4 replaced. The weight operand is
    // packed ONCE outside the timed closure (`PackedB`), matching
    // deployment where the executor plan owns the packed panels — earlier
    // revisions re-packed B on every timed call.
    let square: &[usize] = if report.smoke() { &[64] } else { &[64, 128, 256, 384] };
    for &s in square {
        let (m, n, k) = (s, s, s);
        let a = fill_i8(m * k, 1);
        let b = fill_i8(k * n, 2);
        let bpack = PackedB::pack(&b, k, n);
        let ops = 2 * m as u64 * n as u64 * k as u64;
        let mut out = vec![0i8; m * n];
        report.push(bench.run_with_throughput(
            &format!("gemm_i8/blocked_fused/{m}x{n}x{k}"),
            ops,
            || {
                gemm_i8_fused_prepacked(
                    m,
                    n,
                    k,
                    black_box(&a),
                    black_box(&bpack),
                    None,
                    RequantMode::Pow2 { shift: 8 },
                    &mut out,
                    true,
                );
                black_box(&out);
            },
        ));
        let mut acc = vec![0i32; m * n];
        let mut out = vec![0i8; m * n];
        report.push(bench.run_with_throughput(
            &format!("gemm_i8/naive/{m}x{n}x{k}"),
            ops,
            || {
                matmul_i8_acc32_into(black_box(&a), black_box(&b), m, k, n, &mut acc);
                requant_buffer_pow2_into(&acc, 8, &mut out);
                black_box(&out);
            },
        ));
    }

    // The three requant epilogues at one representative shape: the fused
    // kernel keeps the i32 accumulator tile resident, the naive path
    // round-trips the full buffer through memory.
    let s = if report.smoke() { 48 } else { 256 };
    let (m, n, k) = (s, s, s);
    let a = fill_i8(m * k, 3);
    let b = fill_i8(k * n, 4);
    let bpack = PackedB::pack(&b, k, n);
    let ops = 2 * m as u64 * n as u64 * k as u64;
    let mult = NormalizedMultiplier::from_f64(0.0042);
    let asums = row_sums(&a, m, k);
    let bsums = col_sums(&b, k, n);
    let modes: &[(&str, RequantMode)] = &[
        ("pow2", RequantMode::Pow2 { shift: 8 }),
        ("real", RequantMode::Real { m: mult }),
        (
            "affine",
            RequantMode::Affine {
                a_sums: &asums,
                b_sums: &bsums,
                z1: 3,
                z2: -5,
                z3: 7,
                m: mult,
            },
        ),
    ];
    for (label, mode) in modes {
        let mut out = vec![0i8; m * n];
        report.push(bench.run_with_throughput(
            &format!("gemm_i8/fused_{label}/{m}x{n}x{k}"),
            ops,
            || {
                gemm_i8_fused_prepacked(
                    m,
                    n,
                    k,
                    black_box(&a),
                    black_box(&bpack),
                    None,
                    *mode,
                    &mut out,
                    true,
                );
                black_box(&out);
            },
        ));
        let mut acc = vec![0i32; m * n];
        let mut out = vec![0i8; m * n];
        report.push(bench.run_with_throughput(
            &format!("gemm_i8/naive_{label}/{m}x{n}x{k}"),
            ops,
            || {
                matmul_i8_acc32_into(black_box(&a), black_box(&b), m, k, n, &mut acc);
                match mode {
                    RequantMode::Pow2 { shift } => requant_buffer_pow2_into(&acc, *shift, &mut out),
                    RequantMode::Real { m } => requant_buffer_real_into(&acc, *m, &mut out),
                    RequantMode::Affine {
                        a_sums,
                        b_sums,
                        z1,
                        z2,
                        z3,
                        m,
                    } => requant_buffer_affine_into(
                        &acc, a_sums, b_sums, k, *z1, *z2, *z3, *m, &mut out,
                    ),
                }
                black_box(&out);
            },
        ));
    }

    // Zoo int8 end-to-end: quantize, calibrate, lower, then time repeated
    // batch-1 forward passes through a persistent executor (the planned
    // activation buffers and the plan-owned packed weight arena are built
    // once, outside the timed region, as in deployment). The fused-graph
    // entries run the same model after conv->relu->add epilogue fusion;
    // the rebal_fused entries quantize with per-operand (unmerged) scales,
    // repair the merges with the rebalance pass, and fuse through the
    // inserted coercions — the cost of keeping independent thresholds.
    // Each model's fp32 baseline (eval forward of the unquantized,
    // BN-folded graph) is timed in the same run, and the
    // `int8_over_fp32/<model>` metrics divide the unfused and fused int8
    // medians by it, so the ratios compare across hosts.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.push_metric("host/cpus", cpus as f64);
    report.push_metric("host/pool_threads", tqt_rt::pool::threads() as f64);
    report.push_metric("host/avx2", f64::from(u8::from(has_avx2())));
    let zoo: &[ModelKind] = if report.smoke() {
        &[ModelKind::ResNet8]
    } else {
        ModelKind::all()
    };
    for (i, &kind) in zoo.iter().enumerate() {
        let seed = 40 + i as u64;
        let mut g = kind.build(seed);
        transforms::optimize(&mut g, &INPUT_DIMS);
        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(seed + 100);
        g.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut rng));
        let ig = lower(&mut g);
        let fg = fuse(ig.clone());
        let mut ug = kind.build(seed);
        transforms::optimize(&mut ug, &INPUT_DIMS);
        quantize_graph(&mut ug, QuantizeOptions::retrain_wt_th(WeightBits::Int8).unmerged());
        let mut urng = init::rng(seed + 100);
        ug.calibrate(&init::normal([8, 3, 32, 32], 0.0, 1.0, &mut urng));
        let rfg = fuse(rebalance(lower(&mut ug)));
        let dims = [1usize, 3, 32, 32];
        let mut ex = IntExecutor::new(&ig, &dims);
        let mut fex = IntExecutor::new(&fg, &dims);
        let mut rfex = IntExecutor::new(&rfg, &dims);
        let x: Tensor = init::normal(dims, 0.0, 1.0, &mut rng);
        let mut fp = kind.build(seed);
        transforms::optimize(&mut fp, &INPUT_DIMS);
        let fp32 = bench.run(&format!("int_infer/{kind:?}/fp32_batch1"), || {
            black_box(fp.forward(black_box(&x), Mode::Eval));
        });
        let int8 = bench.run(&format!("int_infer/{kind:?}/batch1"), || {
            black_box(ex.run(black_box(&x)));
        });
        let fused = bench.run(&format!("int_infer/{kind:?}/batch1_fused"), || {
            black_box(fex.run(black_box(&x)));
        });
        let base = fp32.median.as_secs_f64();
        report.push_metric(&format!("int8_over_fp32/{kind:?}"), int8.median.as_secs_f64() / base);
        report.push_metric(
            &format!("int8_fused_over_fp32/{kind:?}"),
            fused.median.as_secs_f64() / base,
        );
        report.push(fp32);
        report.push(int8);
        report.push(fused);
        report.push(bench.run(&format!("int_infer/{kind:?}/batch1_rebal_fused"), || {
            black_box(rfex.run(black_box(&x)));
        }));
    }

    report.finish();
}
