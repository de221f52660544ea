//! The integer engine's two GEMM **lanes**, chosen per conv/dense node
//! by a proof at plan time ([`crate::plan`]), never by a knob:
//!
//! * **Narrow lane** — `i16 × i16 → i32` with `_mm256_madd_epi16`. A
//!   node runs here when the plan proves every input value and every
//!   weight fits `i16` and `max|x| · max_row Σ_k |w[row, k]| < 2³¹`, so
//!   no i32 partial sum can wrap. Conv weights are packed once into
//!   [`NMR`]-row k-pair panels ([`pack_narrow_conv`], one pair per tap
//!   and channel pair), dense weights into [`NNR`]-column panels
//!   ([`pack_narrow_rhs`]); activations are packed per call into
//!   [`NNR`]-column k-pair panels of `i16` (dense rows by
//!   [`pack_narrow_lhs`]). The pair layout
//!   is that of the `i8` deployment kernel in [`crate::gemm_i8`], but
//!   with `i16` activation panels: post-ReLU unsigned 8-bit values reach
//!   255, which no `i8` panel holds. [`narrow_micro`] accumulates one
//!   `NMR × NNR` i32 tile (AVX2 when the CPU has it, a scalar loop over
//!   the same layout otherwise; the two are bit-identical, wrapping
//!   included). Each finished `i32` tile row is stored through the same
//!   row [`Epilogue`] as the wide lane's `i128` rows, so outputs and
//!   saturation/overflow counts are bit-identical to it.
//! * **Wide lane** — [`gemm_i64_narrow_fused`]: `i64 × i64` with exact
//!   `i128` accumulation over `MRB × NCB` stack tiles, narrowed to `i64`
//!   per element with every out-of-range accumulator counted (`narrow`
//!   semantics: truncation equals two's-complement wrapping, so stored
//!   bits match a pure-i64 engine while the count feeds the `sanitize`
//!   feature and the tqt-verify containment check). It serves every node
//!   the narrow proof cannot cover — 16-bit grids and inputs on 64-bit
//!   accumulator formats — and is the oracle the narrow lane is tested
//!   against (`tests/narrow_lane_parity.rs`).
//!
//! **Packed operands (wide lane).** Either operand may be supplied
//! pre-packed in the panel layout the kernel walks ([`Lhs::Packed`] /
//! [`Rhs::Packed`], from [`pack_lhs`] / [`pack_rhs`]). Packing only
//! permutes the operand; every product is still accumulated in
//! ascending-`k` order, so packed and row-major calls are bit-identical.
//!
//! **Row epilogue.** Every kernel stores its accumulators one output row
//! segment at a time through [`Epilogue::store_row`]: one pass adds the
//! row/column biases to each accumulator ([`Acc`]: the narrow lane's
//! `i32`, the wide lane's exact `i128`) and narrows it into the output
//! row, then each [`TileStep`] runs as its own tight loop over that row:
//! requantization (with saturation counting), a residual add (with wrap
//! counting), (capped) ReLU and leaky ReLU. Each step performs exactly
//! the per-element operation of the corresponding standalone kernel of
//! [`crate::plan`], which is what makes graph-level fusion bit-exact
//! (`tests/fusion_parity.rs`; the row form against a per-element oracle
//! in `crates/fixedpoint/tests/epilogue_oracle.rs`). The row store is one
//! body compiled twice, for the baseline target and for AVX2, and picks
//! the AVX2 build at run time when the CPU has it, like [`narrow_micro`].
//! The step list holds no borrowed data, so the plan builds it once per
//! node; the residual operand is resolved per run.
//!
//! **Depthwise.** [`depthwise_plane`] computes one `(image, channel)`
//! plane row-wise: for each block of output rows it accumulates every
//! in-bounds tap range into a stack row of [`Acc`] (`i32` on channels
//! the plan proved narrow, `i128` otherwise), then stores the row
//! through the epilogue. The proof bounds every partial sum, so the
//! tap-major summation order cannot change a value.
//!
//! **Determinism.** Every output element is accumulated by exactly one
//! closure invocation, and integer addition is associative, so serial
//! and parallel runs are bit-identical — including the overflow *count*,
//! which depends only on each element's exact value. Per-block counts
//! are merged into one [`Counter`] (a sum of non-negative integers,
//! order-independent).

use std::ops::AddAssign;

use crate::gemm_i8::has_avx2;
use crate::lower::{narrow, LEAKY_ALPHA_FRAC};
use crate::requant::shift_round;
use tqt_rt::pool;
use tqt_rt::sync::Counter;
use tqt_tensor::conv::Conv2dGeom;

/// Accumulator-tile rows.
const MRB: usize = 4;
/// Accumulator-tile columns (the tile is `4×64` i128 = 4 KiB of stack).
const NCB: usize = 64;
/// Rows of C per parallel row block.
const ROWS_PER_BLOCK: usize = 16;

/// Narrow-lane register-tile rows: the height of a packed weight panel.
pub const NMR: usize = 6;
/// Narrow-lane register-tile columns: two 8-lane i32 AVX2 vectors per
/// accumulator row, the width of a packed activation panel.
pub const NNR: usize = 16;

/// The left operand: row-major `[m, k]`, or pre-packed by [`pack_lhs`].
#[derive(Clone, Copy)]
pub enum Lhs<'a> {
    /// Row-major `a[i*k + kk]`.
    Rows(&'a [i64]),
    /// [`pack_lhs`] layout: `MRB`-tall k-major panels.
    Packed(&'a [i64]),
}

/// The right operand: row-major `[k, n]`, or pre-packed by [`pack_rhs`].
#[derive(Clone, Copy)]
pub enum Rhs<'a> {
    /// Row-major `b[kk*n + j]`.
    Rows(&'a [i64]),
    /// [`pack_rhs`] layout: `NCB`-wide k-major panels.
    Packed(&'a [i64]),
}

/// Element count of the [`pack_lhs`] buffer for an `[m, k]` operand.
pub const fn packed_lhs_len(m: usize, k: usize) -> usize {
    m.div_ceil(MRB) * MRB * k
}

/// Packs a row-major `[m, k]` left operand into `MRB`-tall k-major
/// panels: panel `p` covers rows `p*MRB..`, and element
/// `dst[p*MRB*k + kk*MRB + r] = a[(p*MRB + r)*k + kk]` (zero-padded
/// rows past `m`). This is exactly the order the kernel reads A, so a
/// packed call touches the operand with unit stride.
pub fn pack_lhs(a: &[i64], m: usize, k: usize, dst: &mut [i64]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(dst.len(), packed_lhs_len(m, k), "packed lhs length mismatch");
    dst.fill(0);
    for p in 0..m.div_ceil(MRB) {
        let panel = &mut dst[p * MRB * k..(p + 1) * MRB * k];
        for r in 0..MRB.min(m - p * MRB) {
            let row = &a[(p * MRB + r) * k..(p * MRB + r + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * MRB + r] = v;
            }
        }
    }
}

/// Element count of the [`pack_rhs`] buffer for a `[k, n]` operand.
pub const fn packed_rhs_len(k: usize, n: usize) -> usize {
    n.div_ceil(NCB) * NCB * k
}

/// Packs a row-major `[k, n]` right operand into `NCB`-wide k-major
/// panels: panel `q` covers columns `q*NCB..`, and element
/// `dst[q*NCB*k + kk*NCB + j] = b[kk*n + q*NCB + j]` (zero-padded
/// columns past `n`).
pub fn pack_rhs(b: &[i64], k: usize, n: usize, dst: &mut [i64]) {
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(dst.len(), packed_rhs_len(k, n), "packed rhs length mismatch");
    dst.fill(0);
    for q in 0..n.div_ceil(NCB) {
        let jc = q * NCB;
        let nc = NCB.min(n - jc);
        let panel = &mut dst[q * NCB * k..(q + 1) * NCB * k];
        for kk in 0..k {
            panel[kk * NCB..kk * NCB + nc].copy_from_slice(&b[kk * n + jc..kk * n + jc + nc]);
        }
    }
}

/// One register-resident epilogue step, applied per element after the
/// narrowed accumulator (plus biases) is formed. Each variant replays
/// the corresponding standalone executor kernel bit-for-bit, including
/// its saturation / wrap counting — the fused-graph parity contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileStep {
    /// Round-half-even shift by `shift` then clamp to `[qmin, qmax]`,
    /// counting clamped elements (the `Requant` node kernel).
    Requant { shift: i32, qmin: i64, qmax: i64 },
    /// Exact i128 add of the same-index element of the
    /// [`Epilogue::residual`] operand, narrowed with wrap counting (the
    /// `Add` node kernel).
    AddResidual,
    /// `max(0)` then `min(cap)` (the `Relu` node kernel; pass
    /// `i64::MAX` for an uncapped ReLU).
    ReluCap(i64),
    /// `max(v << LEAKY_ALPHA_FRAC, v * alpha_q)` narrowed with wrap
    /// counting (the `LeakyRelu` node kernel; the element moves to the
    /// `frac + LEAKY_ALPHA_FRAC` grid).
    Leaky(i64),
}

/// What happens to an exact accumulator before it is stored: per-row and
/// per-column biases, the `narrow` to i64, then the [`TileStep`]s.
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// One value per output row (conv channel bias).
    pub bias_row: Option<&'a [i64]>,
    /// One value per output column (dense feature bias).
    pub bias_col: Option<&'a [i64]>,
    /// Steps applied in order to the narrowed value.
    pub steps: &'a [TileStep],
    /// The operand [`TileStep::AddResidual`] reads, indexed like the
    /// output the kernel writes.
    pub residual: Option<&'a [i64]>,
}

impl Epilogue<'_> {
    /// Checks operand lengths for an `[m, n]` output whose row bias has
    /// `bias_rows` entries (`m` for a GEMM; the channel count for a conv
    /// over a batch, whose rows are image-major channels).
    pub(crate) fn check(&self, m: usize, n: usize, bias_rows: usize) {
        if let Some(br) = self.bias_row {
            assert_eq!(br.len(), bias_rows, "row-bias length mismatch");
        }
        if let Some(bc) = self.bias_col {
            assert_eq!(bc.len(), n, "column-bias length mismatch");
        }
        if self.steps.contains(&TileStep::AddResidual) {
            let res = self.residual.map_or(0, <[i64]>::len);
            assert_eq!(res, m * n, "residual length mismatch");
        }
    }

    /// Stores one output row segment: `out[j]` is accumulator `acc[j]`
    /// of row `row`, column `col0 + j`, plus the biases of that row and
    /// column, narrowed to `i64`, then every step in order (residual
    /// element `at0 + j`). Each step is one loop over the row. Wraps go to
    /// `ovf`, clamps to `sat`; both counts, like every value, equal those
    /// of applying the standalone node kernels element by element.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `out` differ in length or a bias or residual
    /// is shorter than the segment it is indexed at.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn store_row<A: Acc>(
        &self,
        acc: &[A],
        row: usize,
        col0: usize,
        at0: usize,
        out: &mut [i64],
        ovf: &mut u64,
        sat: &mut u64,
    ) {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: has_avx2() confirmed the CPU supports AVX2.
            unsafe { store_row_avx2(self, acc, row, col0, at0, out, ovf, sat) }; // tqt:allow(unsafe): AVX2 dispatch guarded by runtime feature detection; the callee is safe code
            return;
        }
        self.store_row_portable(acc, row, col0, at0, out, ovf, sat);
    }

    /// The body of [`store_row`](Self::store_row), compiled for the
    /// baseline target here and for AVX2 in `store_row_avx2`: integer
    /// semantics do not depend on the instruction set, so both are
    /// bit-identical (the unit tests compare them).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn store_row_portable<A: Acc>(
        &self,
        acc: &[A],
        row: usize,
        col0: usize,
        at0: usize,
        out: &mut [i64],
        ovf: &mut u64,
        sat: &mut u64,
    ) {
        assert_eq!(acc.len(), out.len(), "accumulator row length mismatch");
        let n = out.len();
        let mut wraps = 0u64;
        match (self.bias_row.map(|b| b[row]), self.bias_col) {
            (br, None) => {
                let b = br.unwrap_or(0);
                for (o, &a) in out.iter_mut().zip(acc) {
                    *o = a.narrow_plus(b, &mut wraps);
                }
            }
            (None, Some(bc)) => {
                for ((o, &a), &b) in out.iter_mut().zip(acc).zip(&bc[col0..col0 + n]) {
                    *o = a.narrow_plus(b, &mut wraps);
                }
            }
            (Some(br), Some(bc)) => {
                for ((o, &a), &b) in out.iter_mut().zip(acc).zip(&bc[col0..col0 + n]) {
                    *o = narrow(a.wide() + i128::from(br) + i128::from(b), &mut wraps);
                }
            }
        }
        for step in self.steps {
            match *step {
                TileStep::Requant { shift, qmin, qmax } => {
                    let mut clamped = 0u64;
                    for v in out.iter_mut() {
                        let r = shift_round(*v, shift);
                        let c = r.clamp(qmin, qmax);
                        clamped += u64::from(c != r);
                        *v = c;
                    }
                    *sat += clamped;
                }
                TileStep::AddResidual => {
                    // Without an operand the step adds 0: nothing changes.
                    if let Some(res) = self.residual {
                        for (v, &r) in out.iter_mut().zip(&res[at0..at0 + n]) {
                            let (s, wrapped) = v.overflowing_add(r);
                            wraps += u64::from(wrapped);
                            *v = s;
                        }
                    }
                }
                TileStep::ReluCap(cap) => {
                    for v in out.iter_mut() {
                        *v = (*v).max(0).min(cap);
                    }
                }
                TileStep::Leaky(alpha) => {
                    for v in out.iter_mut() {
                        let x = i128::from(*v);
                        *v = narrow(
                            (x << LEAKY_ALPHA_FRAC).max(x * i128::from(alpha)),
                            &mut wraps,
                        );
                    }
                }
            }
        }
        *ovf += wraps;
    }
}

/// [`Epilogue::store_row`] compiled for AVX2: the same safe code, whose
/// row loops the compiler can vectorize with 256-bit registers.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn store_row_avx2<A: Acc>(
    epi: &Epilogue,
    acc: &[A],
    row: usize,
    col0: usize,
    at0: usize,
    out: &mut [i64],
    ovf: &mut u64,
    sat: &mut u64,
) {
    epi.store_row_portable(acc, row, col0, at0, out, ovf, sat);
}

/// An accumulator the row epilogue stores from: the narrow lane's `i32`
/// (proven not to wrap) or the wide lane's exact `i128`.
pub trait Acc: Copy + Default + AddAssign {
    /// The exact value.
    fn wide(self) -> i128;
    /// `self + bias` narrowed to `i64`, counting a wrap into `wraps`.
    fn narrow_plus(self, bias: i64, wraps: &mut u64) -> i64;
    /// The product of an activation and a weight that the lane's proof
    /// admits (depthwise taps).
    fn product(x: i64, w: i64) -> Self;
}

impl Acc for i32 {
    #[inline(always)]
    fn wide(self) -> i128 {
        i128::from(self)
    }

    #[inline(always)]
    fn narrow_plus(self, bias: i64, wraps: &mut u64) -> i64 {
        // One i64 add of two i64 values: its overflow flag is exactly
        // "the exact sum leaves i64", and the wrapped sum is its narrow.
        let (v, wrapped) = i64::from(self).overflowing_add(bias);
        *wraps += u64::from(wrapped);
        v
    }

    #[inline(always)]
    fn product(x: i64, w: i64) -> Self {
        i32::from(to_i16(x)) * i32::from(to_i16(w))
    }
}

impl Acc for i128 {
    #[inline(always)]
    fn wide(self) -> i128 {
        self
    }

    #[inline(always)]
    fn narrow_plus(self, bias: i64, wraps: &mut u64) -> i64 {
        narrow(self + i128::from(bias), wraps)
    }

    #[inline(always)]
    fn product(x: i64, w: i64) -> Self {
        i128::from(x) * i128::from(w)
    }
}

/// `out[m,n] = narrow(a[m,k] · b[k,n] + bias)` with exact i128
/// accumulation per element; values escaping the i64 range are counted
/// into `overflowed` and stored wrapped (the reference-engine contract).
/// `bias_row` adds one value per output row (conv channel bias),
/// `bias_col` one per output column (dense feature bias).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i64_narrow(
    m: usize,
    n: usize,
    k: usize,
    a: &[i64],
    b: &[i64],
    bias_row: Option<&[i64]>,
    bias_col: Option<&[i64]>,
    out: &mut [i64],
    overflowed: &Counter,
    parallel: bool,
) {
    let saturated = Counter::new();
    let epi = Epilogue {
        bias_row,
        bias_col,
        ..Epilogue::default()
    };
    gemm_i64_narrow_fused(
        m,
        n,
        k,
        Lhs::Rows(a),
        Rhs::Rows(b),
        epi,
        out,
        overflowed,
        &saturated,
        parallel,
    );
    debug_assert_eq!(saturated.get(), 0, "no epilogue steps, nothing saturates");
}

/// The wide lane: [`gemm_i64_narrow`] generalized over packed operands
/// and a fused [`Epilogue`]. Clamped elements of `Requant` steps are
/// counted into `saturated`; wrapped narrows (the accumulator itself
/// and any `AddResidual` / `Leaky` step) into `overflowed`.
///
/// # Panics
///
/// Panics if operand lengths disagree with the dimensions (packed
/// operands must have exactly [`packed_lhs_len`] / [`packed_rhs_len`]
/// elements).
#[allow(clippy::too_many_arguments)]
pub fn gemm_i64_narrow_fused(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs,
    b: Rhs,
    epi: Epilogue,
    out: &mut [i64],
    overflowed: &Counter,
    saturated: &Counter,
    parallel: bool,
) {
    match a {
        Lhs::Rows(s) => assert_eq!(s.len(), m * k, "lhs length mismatch"),
        Lhs::Packed(s) => assert_eq!(s.len(), packed_lhs_len(m, k), "packed lhs length mismatch"),
    }
    match b {
        Rhs::Rows(s) => assert_eq!(s.len(), k * n, "rhs length mismatch"),
        Rhs::Packed(s) => assert_eq!(s.len(), packed_rhs_len(k, n), "packed rhs length mismatch"),
    }
    assert_eq!(out.len(), m * n, "output length mismatch");
    epi.check(m, n, m);
    if m == 0 || n == 0 {
        return;
    }
    let run_block = |row0: usize, ochunk: &mut [i64]| {
        let rows = ochunk.len() / n;
        let mut local_ovf = 0u64;
        let mut local_sat = 0u64;
        for jc in (0..n).step_by(NCB) {
            let nc = NCB.min(n - jc);
            // Both layouts reduce to `base + kk*stride` for the nc-wide
            // B row slice of this column panel.
            let (bbuf, bbase, bstride) = match b {
                Rhs::Rows(s) => (s, jc, n),
                Rhs::Packed(s) => (s, (jc / NCB) * NCB * k, NCB),
            };
            for rb in (0..rows).step_by(MRB) {
                let mr = MRB.min(rows - rb);
                // `row0` is a multiple of ROWS_PER_BLOCK and `rb` of MRB,
                // so `row0 + rb` always lands on a packed-panel boundary.
                let (abuf, abase, astride) = match a {
                    Lhs::Rows(s) => (s, (row0 + rb) * k, k),
                    Lhs::Packed(s) => (s, (row0 + rb) / MRB * MRB * k, MRB),
                };
                let mut acc = [[0i128; NCB]; MRB];
                for kk in 0..k {
                    let brow = &bbuf[bbase + kk * bstride..bbase + kk * bstride + nc];
                    for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                        let av = match a {
                            Lhs::Rows(_) => abuf[abase + r * astride + kk],
                            Lhs::Packed(_) => abuf[abase + kk * astride + r],
                        };
                        if av == 0 {
                            continue;
                        }
                        let av = i128::from(av);
                        for (sum, &bv) in arow.iter_mut().zip(brow) {
                            *sum += av * i128::from(bv);
                        }
                    }
                }
                for (r, arow) in acc.iter().enumerate().take(mr) {
                    let gi = row0 + rb + r;
                    let orow = (rb + r) * n + jc;
                    epi.store_row(
                        &arow[..nc],
                        gi,
                        jc,
                        gi * n + jc,
                        &mut ochunk[orow..orow + nc],
                        &mut local_ovf,
                        &mut local_sat,
                    );
                }
            }
        }
        overflowed.add(local_ovf);
        saturated.add(local_sat);
    };
    if parallel && m > ROWS_PER_BLOCK && pool::threads() > 1 {
        pool::par_chunks_mut(out, ROWS_PER_BLOCK * n, |bi, chunk| {
            run_block(bi * ROWS_PER_BLOCK, chunk)
        });
    } else {
        for (bi, chunk) in out.chunks_mut(ROWS_PER_BLOCK * n).enumerate() {
            run_block(bi * ROWS_PER_BLOCK, chunk);
        }
    }
}

/// Whether `v` can enter a narrow-lane panel: the lane proof admits only
/// values that fit `i16`.
pub(crate) fn fits_i16(v: i64) -> bool {
    i16::try_from(v).is_ok()
}

/// Narrows a proven-`i16` value into a panel (debug builds check the
/// proof held).
#[inline(always)]
pub(crate) fn to_i16(v: i64) -> i16 {
    debug_assert!(fits_i16(v), "narrow-lane operand {v} escapes i16");
    v as i16 // tqt:allow(narrowing-cast): the lane proof bounds every operand to i16
}

/// `i16` elements of the [`pack_narrow_lhs`] buffer for an `[m, k]`
/// operand.
pub const fn narrow_lhs_len(m: usize, k: usize) -> usize {
    m.div_ceil(NMR) * NMR * k.div_ceil(2) * 2
}

/// `i16` elements of one [`NNR`]-column k-pair panel of depth `k`.
pub const fn narrow_panel_len(k: usize) -> usize {
    k.div_ceil(2) * 2 * NNR
}

/// `i16` elements of the [`pack_narrow_rhs`] buffer for a `[k, n]`
/// operand.
pub const fn narrow_rhs_len(k: usize, n: usize) -> usize {
    n.div_ceil(NNR) * narrow_panel_len(k)
}

/// Packs a row-major `[m, k]` left operand into [`NMR`]-row k-pair
/// panels: `dst[((p*kpairs + kp)*NMR + r)*2 + h] = a[(p*NMR + r)*k +
/// 2*kp + h]`, so each `(row, k-pair)` is one little-endian `i32` of two
/// `i16`s — the operand `madd` wants broadcast. Rows past `m` and the
/// odd-`k` tail are zero.
///
/// # Panics
///
/// Panics on a length mismatch; debug builds also panic on a value that
/// does not fit `i16`.
pub fn pack_narrow_lhs(a: &[i64], m: usize, k: usize, dst: &mut [i16]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(dst.len(), narrow_lhs_len(m, k), "narrow lhs length mismatch");
    let kpairs = k.div_ceil(2);
    dst.fill(0);
    for (i, row) in a.chunks_exact(k.max(1)).take(m).enumerate() {
        let (p, r) = (i / NMR, i % NMR);
        for (kk, &v) in row.iter().enumerate() {
            dst[((p * kpairs + kk / 2) * NMR + r) * 2 + kk % 2] = to_i16(v);
        }
    }
}

/// Packs a row-major `[k, n]` right operand into [`NNR`]-column k-pair
/// panels: `dst[((q*kpairs + kp)*NNR + j)*2 + h] = b[(2*kp + h)*n +
/// q*NNR + j]`. Columns past `n` and the odd-`k` tail are zero.
///
/// # Panics
///
/// As [`pack_narrow_lhs`].
pub fn pack_narrow_rhs(b: &[i64], k: usize, n: usize, dst: &mut [i16]) {
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(dst.len(), narrow_rhs_len(k, n), "narrow rhs length mismatch");
    let kpairs = k.div_ceil(2);
    dst.fill(0);
    for (kk, row) in b.chunks_exact(n.max(1)).take(k).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let (q, jj) = (j / NNR, j % NNR);
            dst[((q * kpairs + kk / 2) * NNR + jj) * 2 + kk % 2] = to_i16(v);
        }
    }
}

/// Reduction depth, in k-pairs, of a narrow-lane conv over `[cout, cin,
/// kh, kw]` weights: one pair per (tap, channel pair). A conv pairs
/// channels `(2cp, 2cp + 1)` at the same tap — not consecutive rows of
/// the im2col matrix — so both halves of an activation pair come from
/// the same input position and a panel row is two contiguous channel
/// reads (an odd `cin` pads its last pair with a zero channel).
pub const fn narrow_conv_kpairs(wdims: [usize; 4]) -> usize {
    wdims[2] * wdims[3] * wdims[1].div_ceil(2)
}

/// `i16` elements of the [`pack_narrow_conv`] buffer.
pub const fn narrow_conv_lhs_len(wdims: [usize; 4]) -> usize {
    wdims[0].div_ceil(NMR) * NMR * narrow_conv_kpairs(wdims) * 2
}

/// Packs conv weights `w` (`[cout, cin, kh, kw]`, row-major) into
/// [`NMR`]-row k-pair panels in the conv reduction order: with `t =
/// ki·kw + kj` and `kp = t·cpairs + cp`, row `co = p·NMR + r` holds
/// `(w[co, 2cp, ki, kj], w[co, 2cp+1, ki, kj])` at
/// `dst[((p*kpairs + kp)*NMR + r)*2 + h]`.
/// Rows past `cout` and a missing odd channel are zero.
///
/// # Panics
///
/// As [`pack_narrow_lhs`].
pub fn pack_narrow_conv(w: &[i64], wdims: [usize; 4], dst: &mut [i16]) {
    let [cout, cin, kh, kw] = wdims;
    let (taps, cpairs, kpairs) = (kh * kw, cin.div_ceil(2), narrow_conv_kpairs(wdims));
    assert_eq!(w.len(), cout * cin * taps, "conv weight length mismatch");
    assert_eq!(dst.len(), narrow_conv_lhs_len(wdims), "narrow conv panel length mismatch");
    dst.fill(0);
    for (i, &v) in w.iter().enumerate() {
        let (co, ci, t) = (i / (cin * taps), i / taps % cin, i % taps);
        let (p, r, kp) = (co / NMR, co % NMR, t * cpairs + ci / 2);
        dst[((p * kpairs + kp) * NMR + r) * 2 + ci % 2] = to_i16(v);
    }
}

/// The narrow-lane micro-kernel: `acc[r*NNR + j] = Σ_kp a(kp, r, 0)·b(kp,
/// j, 0) + a(kp, r, 1)·b(kp, j, 1)` over one [`NMR`]-row weight panel
/// and one [`NNR`]-column activation panel of `kpairs` k-pairs, both in
/// the [`pack_narrow_lhs`] / [`pack_narrow_rhs`] layouts. `avx` allows
/// the AVX2 `madd_epi16` kernel, which runs only when [`has_avx2`] also
/// confirms the CPU has it; otherwise the scalar loop runs. The scalar
/// loop computes the same wrapping i32 sums, so the two are
/// bit-identical even where the lane proof does not hold.
///
/// # Panics
///
/// Panics if a panel is shorter than `kpairs` k-pairs.
#[inline]
pub fn narrow_micro(
    kpairs: usize,
    apanel: &[i16],
    bpanel: &[i16],
    acc: &mut [i32; NMR * NNR],
    avx: bool,
) {
    assert!(
        apanel.len() >= kpairs * NMR * 2 && bpanel.len() >= kpairs * NNR * 2,
        "narrow panel shorter than its k depth"
    );
    #[cfg(target_arch = "x86_64")]
    if avx && has_avx2() {
        // SAFETY: has_avx2() confirmed the feature just above; panel
        // lengths are checked above.
        unsafe { narrow_micro_avx2(kpairs, apanel.as_ptr(), bpanel.as_ptr(), acc) }; // tqt:allow(unsafe): AVX2 dispatch guarded by runtime feature detection; panel bounds asserted above
        return;
    }
    let _ = avx;
    acc.fill(0);
    for (a, b) in apanel
        .chunks_exact(NMR * 2)
        .zip(bpanel.chunks_exact(NNR * 2))
        .take(kpairs)
    {
        for (pair, arow) in a.chunks_exact(2).zip(acc.chunks_exact_mut(NNR)) {
            let (a0, a1) = (i32::from(pair[0]), i32::from(pair[1]));
            if a0 == 0 && a1 == 0 {
                continue;
            }
            for (sum, bp) in arow.iter_mut().zip(b.chunks_exact(2)) {
                let prod = (a0 * i32::from(bp[0])).wrapping_add(a1 * i32::from(bp[1]));
                *sum = sum.wrapping_add(prod);
            }
        }
    }
}

/// AVX2 6×16 narrow micro-kernel: 12 ymm i32 accumulators live across
/// the whole k loop; per k-pair, two 32-byte activation loads and six
/// broadcast + `madd_epi16` + `add_epi32` chains.
///
/// # Safety
///
/// Caller must guarantee the CPU supports `avx2` and that
/// `apanel`/`bpanel` point at `kpairs*NMR*2` / `kpairs*NNR*2` `i16`s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn narrow_micro_avx2(
    kpairs: usize,
    apanel: *const i16,
    bpanel: *const i16,
    acc: &mut [i32; NMR * NNR],
) {
    use std::arch::x86_64::*;
    let mut c: [[__m256i; 2]; NMR] = [[_mm256_setzero_si256(); 2]; NMR];
    for p in 0..kpairs {
        // Pair-interleaved i16 columns 0..8 and 8..16: exactly the operand
        // layout madd_epi16 pairs up.
        let b_lo = _mm256_loadu_si256(bpanel.add(p * 2 * NNR).cast());
        let b_hi = _mm256_loadu_si256(bpanel.add(p * 2 * NNR + NNR).cast());
        for (r, cr) in c.iter_mut().enumerate() {
            // Broadcast the (a0, a1) i16 pair to all lanes; madd computes
            // a0*b(k0,j) + a1*b(k1,j) in i32.
            let pair = apanel.add((p * NMR + r) * 2).cast::<i32>().read_unaligned();
            let av = _mm256_set1_epi32(pair);
            cr[0] = _mm256_add_epi32(cr[0], _mm256_madd_epi16(av, b_lo));
            cr[1] = _mm256_add_epi32(cr[1], _mm256_madd_epi16(av, b_hi));
        }
    }
    for (r, cr) in c.iter().enumerate() {
        _mm256_storeu_si256(acc.as_mut_ptr().add(r * NNR).cast(), cr[0]);
        _mm256_storeu_si256(acc.as_mut_ptr().add(r * NNR + 8).cast(), cr[1]);
    }
}

/// The narrow lane over two packed operands: `out[m,n]` = the
/// [`Epilogue`] of `a[m,k] · b[k,n]`, with `a` in [`pack_narrow_lhs`]
/// and `b` in [`pack_narrow_rhs`] layout. Runs on the calling thread
/// (its callers parallelize over images and column panels); counts go
/// to `ovf` / `sat` like the wide lane's.
///
/// # Panics
///
/// Panics if a length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_narrow_packed(
    m: usize,
    n: usize,
    k: usize,
    a: &[i16],
    b: &[i16],
    epi: Epilogue,
    out: &mut [i64],
    ovf: &mut u64,
    sat: &mut u64,
) {
    assert_eq!(a.len(), narrow_lhs_len(m, k), "narrow lhs length mismatch");
    assert_eq!(b.len(), narrow_rhs_len(k, n), "narrow rhs length mismatch");
    assert_eq!(out.len(), m * n, "output length mismatch");
    epi.check(m, n, m);
    let kpairs = k.div_ceil(2);
    let avx = has_avx2();
    let mut acc = [0i32; NMR * NNR];
    let (alen, blen) = (kpairs * NMR * 2, narrow_panel_len(k));
    for q in 0..n.div_ceil(NNR) {
        let (j0, nc) = (q * NNR, NNR.min(n - q * NNR));
        for p in 0..m.div_ceil(NMR) {
            narrow_micro(
                kpairs,
                &a[p * alen..(p + 1) * alen],
                &b[q * blen..(q + 1) * blen],
                &mut acc,
                avx,
            );
            for r in 0..NMR.min(m - p * NMR) {
                let (gi, at) = (p * NMR + r, (p * NMR + r) * n + j0);
                let arow = &acc[r * NNR..r * NNR + nc];
                epi.store_row(arow, gi, j0, at, &mut out[at..at + nc], ovf, sat);
            }
        }
    }
}

/// Output elements per depthwise accumulator block: the length of the
/// stack row [`depthwise_plane`] accumulates into.
const DW_BLOCK: usize = 64;

/// `dst[j] += x[j·s] · w` over one tap's run of output columns.
#[inline(always)]
fn depthwise_tap<A: Acc>(dst: &mut [A], src: &[i64], s: usize, w: i64) {
    if s == 1 {
        for (a, &x) in dst.iter_mut().zip(src) {
            *a += A::product(x, w);
        }
    } else {
        for (a, &x) in dst.iter_mut().zip(src.iter().step_by(s)) {
            *a += A::product(x, w);
        }
    }
}

/// One depthwise `(image, channel)` plane, row-wise: `xim` is the
/// `h × wd` input plane, `wk` the channel's `kh × kw` kernel, `out` the
/// output plane. Blocks of whole output rows (or, for rows wider than
/// the block, column runs of one row) accumulate in a stack row of `A`
/// — `i32` where the plan proved the channel narrow, `i128` otherwise —
/// tap by tap: for each kernel column `kj`, the output columns whose
/// input column lies inside the plane are found once per block, then
/// each output row adds one run per in-bounds kernel row. The block is
/// stored through `epi` as row `co` (the channel, for the bias) with
/// residual elements from `at0` on. Performs no heap allocation.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_plane<A: Acc>(
    xim: &[i64],
    (h, wd): (usize, usize),
    wk: &[i64],
    geom: Conv2dGeom,
    epi: &Epilogue,
    (co, at0): (usize, usize),
    out: &mut [i64],
    ovf: &mut u64,
    sat: &mut u64,
) {
    let (oh, ow) = geom.out_size(h, wd);
    assert_eq!(xim.len(), h * wd, "depthwise input plane length mismatch");
    assert_eq!(wk.len(), geom.kh * geom.kw, "depthwise kernel length mismatch");
    assert_eq!(out.len(), oh * ow, "depthwise output plane length mismatch");
    let (s, pad) = (geom.stride, geom.pad);
    let mut acc = [A::default(); DW_BLOCK];
    let (rows, cols) = ((DW_BLOCK / ow).max(1), ow.min(DW_BLOCK));
    for oi0 in (0..oh).step_by(rows) {
        let oi1 = (oi0 + rows).min(oh);
        for c0 in (0..ow).step_by(cols) {
            // Either whole rows oi0..oi1 (c0 = 0, nc = ow) or one row's
            // column run: contiguous in the output plane either way.
            let nc = cols.min(ow - c0);
            let block = &mut acc[..(oi1 - oi0) * nc];
            block.fill(A::default());
            for kj in 0..geom.kw {
                // Columns oj with 0 <= oj·s + kj - pad < wd.
                let Some(last) = (wd + pad).checked_sub(kj + 1) else {
                    continue;
                };
                let lo = pad.saturating_sub(kj).div_ceil(s).max(c0);
                let hi = (last / s + 1).min(c0 + nc);
                if lo >= hi {
                    continue;
                }
                for (oi, arow) in (oi0..oi1).zip(block.chunks_exact_mut(nc)) {
                    // Kernel row ki reads input row oi·s + ki - pad,
                    // which must lie in [0, h).
                    let i0 = oi * s;
                    for ki in pad.saturating_sub(i0)..geom.kh.min((h + pad).saturating_sub(i0)) {
                        let src = &xim[(i0 + ki - pad) * wd + lo * s + kj - pad..];
                        depthwise_tap(&mut arow[lo - c0..hi - c0], src, s, wk[ki * geom.kw + kj]);
                    }
                }
            }
            let at = oi0 * ow + c0;
            let len = block.len();
            epi.store_row(block, co, at, at0 + at, &mut out[at..at + len], ovf, sat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(m: usize, n: usize, k: usize, a: &[i64], b: &[i64]) -> (Vec<i64>, u64) {
        let mut out = vec![0i64; m * n];
        let mut ovf = 0u64;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i128;
                for kk in 0..k {
                    acc += i128::from(a[i * k + kk]) * i128::from(b[kk * n + j]);
                }
                out[i * n + j] = narrow(acc, &mut ovf);
            }
        }
        (out, ovf)
    }

    #[test]
    fn matches_oracle_including_ragged_tiles() {
        for &(m, n, k) in &[(1, 1, 1), (5, 67, 9), (33, 130, 17), (4, 3, 0)] {
            let a: Vec<i64> = (0..m * k).map(|v| (v as i64 * 37 % 1001) - 500).collect();
            let b: Vec<i64> = (0..k * n).map(|v| (v as i64 * 53 % 997) - 498).collect();
            let (want, _) = oracle(m, n, k, &a, &b);
            let mut got = vec![0i64; m * n];
            let ovf = Counter::new();
            gemm_i64_narrow(m, n, k, &a, &b, None, None, &mut got, &ovf, false);
            assert_eq!(want, got, "shape ({m},{n},{k})");
            assert_eq!(ovf.get(), 0);
        }
    }

    #[test]
    fn packed_operands_match_row_major() {
        for &(m, n, k) in &[(1, 1, 3), (5, 67, 9), (33, 130, 17), (16, 64, 8)] {
            let a: Vec<i64> = (0..m * k).map(|v| (v as i64 * 41 % 811) - 400).collect();
            let b: Vec<i64> = (0..k * n).map(|v| (v as i64 * 59 % 773) - 380).collect();
            let mut want = vec![0i64; m * n];
            let ovf = Counter::new();
            gemm_i64_narrow(m, n, k, &a, &b, None, None, &mut want, &ovf, false);
            let mut ap = vec![0i64; packed_lhs_len(m, k)];
            pack_lhs(&a, m, k, &mut ap);
            let mut bp = vec![0i64; packed_rhs_len(k, n)];
            pack_rhs(&b, k, n, &mut bp);
            for (la, lb) in [
                (Lhs::Packed(&ap[..]), Rhs::Rows(&b[..])),
                (Lhs::Rows(&a[..]), Rhs::Packed(&bp[..])),
                (Lhs::Packed(&ap[..]), Rhs::Packed(&bp[..])),
            ] {
                let mut got = vec![0i64; m * n];
                let (ovf, sat) = (Counter::new(), Counter::new());
                gemm_i64_narrow_fused(
                    m,
                    n,
                    k,
                    la,
                    lb,
                    Epilogue::default(),
                    &mut got,
                    &ovf,
                    &sat,
                    false,
                );
                assert_eq!(want, got, "shape ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn counts_overflow_and_wraps() {
        // 2 * (2^62 * 2) = 2^64 wraps to 0 in i64 and must be counted.
        let a = vec![1i64 << 62, 1 << 62];
        let b = vec![2i64, 2];
        let mut got = vec![0i64; 1];
        let ovf = Counter::new();
        gemm_i64_narrow(1, 1, 2, &a, &b, None, None, &mut got, &ovf, false);
        assert_eq!(got[0], 0);
        assert_eq!(ovf.get(), 1);
    }

    #[test]
    fn biases_apply_before_narrow() {
        let a = vec![2i64, 3];
        let b = vec![10i64, 100, 1000, 10000];
        // [2,3] @ [[10,100],[1000,10000]] = [3020, 30200]
        let mut got = vec![0i64; 2];
        let ovf = Counter::new();
        gemm_i64_narrow(
            1,
            2,
            2,
            &a,
            &b,
            Some(&[7]),
            Some(&[1, 2]),
            &mut got,
            &ovf,
            false,
        );
        assert_eq!(got, vec![3020 + 7 + 1, 30200 + 7 + 2]);
    }

    #[test]
    fn portable_and_dispatched_row_stores_are_bit_identical() {
        // On an AVX2 host `store_row` runs the AVX2 compilation; the
        // portable one must agree with it on every value and count.
        let mut rng = tqt_rt::Rng::new(5);
        let steps = [
            TileStep::Requant {
                shift: 3,
                qmin: -128,
                qmax: 127,
            },
            TileStep::AddResidual,
            TileStep::ReluCap(100),
            TileStep::Leaky(13),
            TileStep::Requant {
                shift: -1,
                qmin: -32768,
                qmax: 32767,
            },
        ];
        for len in [1usize, 7, 16, 33, 64] {
            let big = |rng: &mut tqt_rt::Rng| (rng.next_u64() as i64) >> rng.gen_range(0u32..60);
            let acc32: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32).collect();
            let acc128: Vec<i128> = (0..len).map(|_| i128::from(big(&mut rng)) << 2).collect();
            let res: Vec<i64> = (0..len).map(|_| big(&mut rng)).collect();
            let bias: Vec<i64> = (0..len).map(|_| big(&mut rng)).collect();
            for k in 0..=steps.len() {
                let epi = Epilogue {
                    bias_row: Some(&bias),
                    bias_col: None,
                    steps: &steps[..k],
                    residual: Some(&res),
                };
                let (mut a, mut b) = (vec![0i64; len], vec![0i64; len]);
                let (mut ca, mut cb) = ((0, 0), (0, 0));
                epi.store_row(&acc32, len - 1, 0, 0, &mut a, &mut ca.0, &mut ca.1);
                epi.store_row_portable(&acc32, len - 1, 0, 0, &mut b, &mut cb.0, &mut cb.1);
                assert_eq!((a, ca), (b, cb), "i32 row of {len}, {k} steps");
                let epi = Epilogue {
                    bias_row: None,
                    bias_col: Some(&bias),
                    ..epi
                };
                let (mut a, mut b) = (vec![0i64; len], vec![0i64; len]);
                let (mut ca, mut cb) = ((0, 0), (0, 0));
                epi.store_row(&acc128, 0, 0, 0, &mut a, &mut ca.0, &mut ca.1);
                epi.store_row_portable(&acc128, 0, 0, 0, &mut b, &mut cb.0, &mut cb.1);
                assert_eq!((a, ca), (b, cb), "i128 row of {len}, {k} steps");
            }
        }
    }

    #[test]
    fn epilogue_steps_replay_standalone_kernels() {
        // 2x2 @ 2x2 with a requant (shift 2, clamp to i8), a residual
        // add, and a capped relu — checked against a hand-folded oracle.
        let a = vec![3i64, -1, 2, 5];
        let b = vec![10i64, 20, 30, 40];
        let res = vec![1i64, -200, 3, 4];
        let mut got = vec![0i64; 4];
        let (ovf, sat) = (Counter::new(), Counter::new());
        let steps = [
            TileStep::Requant {
                shift: 2,
                qmin: -128,
                qmax: 127,
            },
            TileStep::AddResidual,
            TileStep::ReluCap(30),
        ];
        let epi = Epilogue {
            steps: &steps,
            residual: Some(&res),
            ..Epilogue::default()
        };
        gemm_i64_narrow_fused(
            2,
            2,
            2,
            Lhs::Rows(&a),
            Rhs::Rows(&b),
            epi,
            &mut got,
            &ovf,
            &sat,
            false,
        );
        // raw = [[0, 20], [170, 240]]; >>2 half-even = [0, 5, 42, 60]
        // (170/4 = 42.5 rounds to even); none clamp in i8; +res =
        // [1, -195, 45, 64]; relu cap 30 = [1, 0, 30, 30].
        assert_eq!(got, vec![1, 0, 30, 30]);
        assert_eq!(sat.get(), 0);
        assert_eq!(ovf.get(), 0);
        // Same, but with a clamp-visible narrow format.
        let mut got = vec![0i64; 4];
        let (ovf, sat) = (Counter::new(), Counter::new());
        let steps = [TileStep::Requant {
            shift: 2,
            qmin: -16,
            qmax: 15,
        }];
        let epi = Epilogue {
            steps: &steps,
            ..Epilogue::default()
        };
        gemm_i64_narrow_fused(
            2,
            2,
            2,
            Lhs::Rows(&a),
            Rhs::Rows(&b),
            epi,
            &mut got,
            &ovf,
            &sat,
            false,
        );
        assert_eq!(got, vec![0, 5, 15, 15]);
        assert_eq!(sat.get(), 2, "42 and 60 clamp to 15");
    }
}
