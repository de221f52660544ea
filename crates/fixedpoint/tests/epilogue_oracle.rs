//! Property test for the row epilogue every integer kernel stores
//! through: [`Epilogue::store_row`] must equal the per-element reference
//! below — bias add, narrow, then each [`TileStep`] applied to one value
//! at a time in exact `i128` arithmetic — on random step chains
//! (`Requant` / `AddResidual` / `ReluCap` / `Leaky`), with row and
//! column biases and a residual, over `i32` (narrow lane) and `i128`
//! (wide lane) accumulators. Values are drawn toward the `qmin`/`qmax`
//! clamp edges and the `i64` wrap edges, and outputs, saturation counts
//! and wrap counts must all match. Two seeded bugs (one clamp or one
//! wrap left uncounted) must be refuted, so the generator provably
//! reaches both counters.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tqt_fixedpoint::intgemm::{Acc, Epilogue, TileStep};
use tqt_fixedpoint::lower::LEAKY_ALPHA_FRAC;
use tqt_fixedpoint::requant::shift_round;
use tqt_rt::check::{self, Config, Gen};
use tqt_rt::{prop_assert, Rng};

/// `acc` narrowed to `i64` (two's-complement truncation), counting a
/// value outside the `i64` range.
fn narrow(acc: i128, ovf: &mut u64) -> i64 {
    if acc > i128::from(i64::MAX) || acc < i128::from(i64::MIN) {
        *ovf += 1;
    }
    acc as i64
}

/// The per-element reference: the stored value of one output element
/// with accumulator `acc` in row `row`, column `col`, residual element
/// `at` — exactly the standalone node kernels applied in order.
fn apply(
    epi: &Epilogue,
    acc: i128,
    row: usize,
    col: usize,
    at: usize,
    ovf: &mut u64,
    sat: &mut u64,
) -> i64 {
    let mut wide = acc;
    if let Some(br) = epi.bias_row {
        wide += i128::from(br[row]);
    }
    if let Some(bc) = epi.bias_col {
        wide += i128::from(bc[col]);
    }
    let mut v = narrow(wide, ovf);
    for step in epi.steps {
        match *step {
            TileStep::Requant { shift, qmin, qmax } => {
                let r = shift_round(v, shift);
                let c = r.clamp(qmin, qmax);
                if c != r {
                    *sat += 1;
                }
                v = c;
            }
            TileStep::AddResidual => {
                let res = epi.residual.map_or(0, |r| r[at]);
                v = narrow(i128::from(v) + i128::from(res), ovf);
            }
            TileStep::ReluCap(cap) => v = v.max(0).min(cap),
            TileStep::Leaky(alpha) => {
                let wide =
                    (i128::from(v) << LEAKY_ALPHA_FRAC).max(i128::from(v) * i128::from(alpha));
                v = narrow(wide, ovf);
            }
        }
    }
    v
}

/// One row-store case. The steps are explicit (so they shrink); the
/// operand values derive from `seed`.
#[derive(Debug, Clone)]
struct RowCase {
    /// `i128` accumulators (wide lane), else `i32` (narrow lane).
    wide: bool,
    len: usize,
    steps: Vec<TileStep>,
    bias_row: bool,
    bias_col: bool,
    residual: bool,
    seed: u64,
}

/// A value near one of the `i64` wrap edges, the `i32` edges, zero, or
/// anywhere in `i64`.
fn edge_i64(rng: &mut Rng) -> i64 {
    let d = rng.gen_range(-3i64..4);
    match rng.gen_range(0u32..6) {
        0 => i64::MAX - d.abs(),
        1 => i64::MIN + d.abs(),
        2 => i64::from(i32::MAX) + d,
        3 => i64::from(i32::MIN) + d,
        4 => rng.next_u64() as i64,
        _ => rng.gen_range(-1000i64..1001),
    }
}

/// A value whose requantization by the case's first `Requant` step lands
/// on, just inside or just outside its clamp range, with a rounding
/// remainder at or around the half-way tie.
fn clamp_edge(steps: &[TileStep], rng: &mut Rng) -> i64 {
    let Some(&TileStep::Requant { shift, qmin, qmax }) =
        steps.iter().find(|s| matches!(s, TileStep::Requant { .. }))
    else {
        return edge_i64(rng);
    };
    let q = [qmin, qmax, qmin - 1, qmax + 1][rng.gen_range(0usize..4)];
    if shift <= 0 {
        return q >> -shift;
    }
    let half = 1i64 << (shift - 1);
    (q << shift) + [-half, half, half - 1, half + 1, 0][rng.gen_range(0usize..5)]
}

fn random_step(rng: &mut Rng) -> TileStep {
    match rng.gen_range(0u32..4) {
        0 => {
            let bits = [2u32, 4, 8, 16][rng.gen_range(0usize..4)];
            let (qmin, qmax) = if rng.gen_bool() {
                (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1)
            } else {
                (0, (1i64 << bits) - 1)
            };
            TileStep::Requant {
                shift: rng.gen_range(-2i32..17),
                qmin,
                qmax,
            }
        }
        1 => TileStep::AddResidual,
        2 => TileStep::ReluCap(if rng.gen_bool() {
            i64::MAX
        } else {
            rng.gen_range(0i64..300)
        }),
        _ => TileStep::Leaky(if rng.gen_bool() {
            rng.gen_range(0i64..1 << LEAKY_ALPHA_FRAC)
        } else {
            edge_i64(rng)
        }),
    }
}

fn row_gen() -> Gen<RowCase> {
    Gen::new(
        |rng: &mut Rng| {
            let nsteps = rng.gen_range(0usize..5);
            RowCase {
                wide: rng.gen_bool(),
                len: rng.gen_range(1usize..40),
                steps: (0..nsteps).map(|_| random_step(rng)).collect(),
                bias_row: rng.gen_bool(),
                bias_col: rng.gen_bool(),
                residual: rng.gen_bool(),
                seed: rng.gen_range(0u64..1 << 32),
            }
        },
        |c: &RowCase| {
            let mut out = Vec::new();
            if c.len > 1 {
                out.push(RowCase {
                    len: c.len / 2,
                    ..c.clone()
                });
            }
            for i in 0..c.steps.len() {
                let mut steps = c.steps.clone();
                steps.remove(i);
                out.push(RowCase { steps, ..c.clone() });
            }
            out
        },
    )
}

/// The row store under test: `(out, wraps, clamps)` of one row segment.
type Store = fn(&Epilogue, &[i128], bool, (usize, usize, usize), &mut [i64]) -> (u64, u64);

/// [`Epilogue::store_row`] over accumulators of type `A`.
fn store_as<A: Acc + TryFrom<i128>>(
    epi: &Epilogue,
    acc: &[i128],
    (row, col0, at0): (usize, usize, usize),
    out: &mut [i64],
) -> (u64, u64) {
    let acc: Vec<A> = acc
        .iter()
        .map(|&v| A::try_from(v).ok().expect("accumulator fits its lane"))
        .collect();
    let (mut ovf, mut sat) = (0, 0);
    epi.store_row(&acc, row, col0, at0, out, &mut ovf, &mut sat);
    (ovf, sat)
}

fn store_row(
    epi: &Epilogue,
    acc: &[i128],
    wide: bool,
    at: (usize, usize, usize),
    out: &mut [i64],
) -> (u64, u64) {
    if wide {
        store_as::<i128>(epi, acc, at, out)
    } else {
        store_as::<i32>(epi, acc, at, out)
    }
}

/// Checks `store` against the per-element reference on one case.
fn row_matches(store: Store, c: &RowCase) -> Result<(), String> {
    let mut rng = Rng::new(c.seed);
    let (row, col0, at0) = (
        rng.gen_range(0usize..3),
        rng.gen_range(0usize..5),
        rng.gen_range(0usize..5),
    );
    let acc: Vec<i128> = (0..c.len)
        .map(|_| {
            let v = if rng.gen_range(0u32..3) == 0 {
                i128::from(clamp_edge(&c.steps, &mut rng))
            } else {
                i128::from(edge_i64(&mut rng))
            };
            if c.wide {
                // Past the i64 range on either side, to reach the wrap.
                v + [0, 0, 1i128 << 64, -(1i128 << 64), 1][rng.gen_range(0usize..5)]
            } else {
                i128::from(v as i32)
            }
        })
        .collect();
    let small = |rng: &mut Rng| {
        if rng.gen_bool() {
            rng.gen_range(-50i64..51)
        } else {
            edge_i64(rng)
        }
    };
    let bias_row: Vec<i64> = (0..3).map(|_| small(&mut rng)).collect();
    let bias_col: Vec<i64> = (0..col0 + c.len + 2).map(|_| small(&mut rng)).collect();
    let residual: Vec<i64> = (0..at0 + c.len + 2).map(|_| small(&mut rng)).collect();
    let epi = Epilogue {
        bias_row: c.bias_row.then_some(&bias_row[..]),
        bias_col: c.bias_col.then_some(&bias_col[..]),
        steps: &c.steps,
        residual: c.residual.then_some(&residual[..]),
    };
    let (mut want_ovf, mut want_sat) = (0, 0);
    let want: Vec<i64> = acc
        .iter()
        .enumerate()
        .map(|(j, &a)| {
            apply(
                &epi,
                a,
                row,
                col0 + j,
                at0 + j,
                &mut want_ovf,
                &mut want_sat,
            )
        })
        .collect();
    let mut got = vec![0i64; c.len];
    let (ovf, sat) = store(&epi, &acc, c.wide, (row, col0, at0), &mut got);
    prop_assert!(got == want, "values differ: got {got:?}, want {want:?}");
    prop_assert!(sat == want_sat, "saturation count {sat}, want {want_sat}");
    prop_assert!(ovf == want_ovf, "wrap count {ovf}, want {want_ovf}");
    Ok(())
}

#[test]
fn row_epilogue_equals_the_per_element_reference() {
    tqt_rt::check!(Config::cases(3000), row_gen(), |c: &RowCase| row_matches(
        store_row, c
    ));
}

/// Runs the property against a deliberately wrong row store and returns
/// whether the harness refuted it.
fn refutes(store: Store) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        check::run(
            "row_epilogue_seeded_bug",
            Config::cases(3000),
            row_gen(),
            |c: &RowCase| row_matches(store, c),
        );
    }))
    .is_err()
}

#[test]
fn seeded_counter_bugs_are_refuted() {
    fn one_clamp_uncounted(
        epi: &Epilogue,
        acc: &[i128],
        wide: bool,
        at: (usize, usize, usize),
        out: &mut [i64],
    ) -> (u64, u64) {
        let (ovf, sat) = store_row(epi, acc, wide, at, out);
        (ovf, sat.saturating_sub(1))
    }
    fn one_wrap_uncounted(
        epi: &Epilogue,
        acc: &[i128],
        wide: bool,
        at: (usize, usize, usize),
        out: &mut [i64],
    ) -> (u64, u64) {
        let (ovf, sat) = store_row(epi, acc, wide, at, out);
        (ovf.saturating_sub(1), sat)
    }
    assert!(
        refutes(one_clamp_uncounted),
        "an uncounted clamp went unnoticed"
    );
    assert!(
        refutes(one_wrap_uncounted),
        "an uncounted wrap went unnoticed"
    );
}
