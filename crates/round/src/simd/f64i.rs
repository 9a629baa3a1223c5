//! Fused double-precision interval kernels: one whole `F64I` operation on
//! four lanes per call, and whole tile columns per sweep.
//!
//! The composed packed path runs an interval product as ten dispatched
//! calls (four [`super::mul_ru_both_4`] and six [`super::max_nan_4`]),
//! each re-reading the backend and round-tripping its columns through
//! memory. The kernels here keep the operands in `__m256d` registers for
//! the whole operation — add, sub, mul, div, sqr and the VM's
//! multiply-accumulate forms — in one `avx2,fma` function, and
//! [`f64i_sweep`] runs one operation over a whole tile column inside a
//! single such function, so the VM pays one dispatch per instruction per
//! tile.
//!
//! # Bit-identity contract
//!
//! The same contract as the primitive kernels and the double-double
//! kernels (DESIGN.md §10): each kernel evaluates, lane-wise, the scalar
//! `F64I` op's hot-path IEEE operation sequence — composed from the very
//! 256-bit cores the primitive kernels run (`add_ru`'s TwoSum and bump,
//! `mul_ru_both`'s product, FMA residual and two bumps, `div_ru_both`'s
//! quotient and `two_prod` residual), with `max_nan`'s a-on-ties select,
//! in scalar order — and folds every hot-path guard into one lane-valid
//! mask:
//!
//! * `add_ru`: TwoSum sum and residual finite;
//! * `mul_ru_both`: `FMA_RESIDUAL_EXACT_MIN <= |p| <= MAX` with a finite
//!   residual, **or** an exact zero product from a zero operand (the
//!   scalar cold path returns the same `(p, -p)` there);
//! * `div_ru_both`: `|q|`, `|h|` in `[MIN_POSITIVE, MAX]`, `|a|` in
//!   `[DIV_EXACT_MIN_A, MAX]`;
//! * interval screens: no NaN endpoint (`div`, `sqr`), divisor not
//!   straddling zero (`div`).
//!
//! A lane whose mask bit is clear is recomputed by the scalar `F64I` op
//! through [`F64Cols4::patch_lanes`], cold paths included. Valid lanes
//! are NaN-free at every step, so the `max_nan` reductions need no NaN
//! select. Patched lanes and packed calls count under the existing
//! `simd.{add,mul,div,sqr}` telemetry counters.

use super::{active_backend, clamp, Backend};

/// The interval arithmetic opcodes a tile sweep runs. The operand roles
/// follow the VM instructions: `Add`/`Sub`/`Mul`/`Div` are `a ∘ b`,
/// `Sqr` is the dependency-aware square of `a`, and the accumulate forms
/// are `acc + a·b` and `acc - a·b` (two rounded interval ops, the
/// product on the right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IntervalOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `sqr(a)`.
    Sqr,
    /// `acc + a * b`.
    MulAdd,
    /// `acc - a * b`.
    MulSub,
}

/// One arithmetic instruction of a tile sweep: `dst = op(a, b, acc)` over
/// the register columns of a bank laid out `bank[reg * tile + g]`. Unused
/// operands (`b` of `Sqr`, `acc` outside the accumulate forms) may name
/// any register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepInsn {
    /// The operation.
    pub op: IntervalOp,
    /// Destination register (may alias any source).
    pub dst: u32,
    /// First operand register.
    pub a: u32,
    /// Second operand register.
    pub b: u32,
    /// Accumulator register of `MulAdd`/`MulSub`.
    pub acc: u32,
}

/// Safe column access to four packed double-precision intervals, the
/// interface the fused kernels read and write lane vectors through (the
/// lane type itself lives in a crate without `unsafe`).
pub trait F64Cols4: Copy {
    /// The negated-lower-endpoint column.
    fn neg_lo4(&self) -> &[f64; 4];
    /// The upper-endpoint column.
    fn hi4(&self) -> &[f64; 4];
    /// Builds a lane vector from raw endpoint columns.
    fn from_cols4(neg_lo: [f64; 4], hi: [f64; 4]) -> Self;
    /// The cold patch hook: recomputes every lane whose bit in `ok` is
    /// clear with the scalar interval op `op` on the same lanes of `a`,
    /// `b` and `acc`, writing the result into `out`.
    fn patch_lanes(op: IntervalOp, ok: u8, a: &Self, b: &Self, acc: &Self, out: &mut Self);
}

/// One fused interval op on four lanes (`acc` is read only by the
/// accumulate forms). `None` below [`Backend::Avx2Fma`], where the caller
/// keeps its composed path.
#[inline]
pub fn f64i_op_4<C: F64Cols4>(bk: Backend, op: IntervalOp, a: &C, b: &C, acc: &C) -> Option<C> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => Some(unsafe { x86::apply(op, a, b, acc) }),
        _ => None,
    }
}

/// Runs `insn` over the first `n` groups of a tile bank (`bank[reg * tile
/// + g]`) in one AVX2+FMA function, reading the backend once. Returns
/// `false`, leaving the bank untouched, below [`Backend::Avx2Fma`].
///
/// Each group reads its operands before writing `dst`, so `dst` may alias
/// any source. Every lane is bit-identical to the scalar `F64I` op.
///
/// # Panics
///
/// Panics if a referenced register column runs past the end of `bank`.
pub fn f64i_sweep<C: F64Cols4>(bank: &mut [C], tile: usize, n: usize, insn: SweepInsn) -> bool {
    if active_backend() != Backend::Avx2Fma {
        return false;
    }
    let col = |r: u32| r as usize * tile;
    let (d, a, b, c) = (col(insn.dst), col(insn.a), col(insn.b), col(insn.acc));
    assert!(
        d.max(a).max(b).max(c) + n <= bank.len(),
        "sweep columns run past the bank ({} slots)",
        bank.len()
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the active backend never exceeds the detected one, so the
    // CPU has AVX2 and FMA; the column bounds were checked above.
    unsafe {
        x86::sweep(bank, insn.op, [d, a, b, c], n);
    }
    true
}

/// Counts one fused call and its patched lanes under the primitive op
/// counters: `first` is the lane-valid mask after the product stage of
/// the accumulate forms (their lanes failing the product count as `mul`
/// patches, the remaining failures as `add` patches).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn note(op: IntervalOp, first: u8, ok: u8) {
    use super::tel;
    use igen_telemetry::Counter;
    let patched = |m: u8| u64::from((!m & 0xf).count_ones());
    let one = |calls: &'static Counter, lanes: &'static Counter, m: u8| {
        super::note_dispatch(Backend::Avx2Fma, calls);
        lanes.add(patched(m));
    };
    match op {
        IntervalOp::Add | IntervalOp::Sub => one(&tel::ADD_PACKED, &tel::ADD_PATCHED, ok),
        IntervalOp::Mul => one(&tel::MUL_PACKED, &tel::MUL_PATCHED, ok),
        IntervalOp::Div => one(&tel::DIV_PACKED, &tel::DIV_PATCHED, ok),
        IntervalOp::Sqr => one(&tel::SQR_PACKED, &tel::SQR_PATCHED, ok),
        IntervalOp::MulAdd | IntervalOp::MulSub => {
            one(&tel::MUL_PACKED, &tel::MUL_PATCHED, first);
            one(&tel::ADD_PACKED, &tel::ADD_PATCHED, ok | !first);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernel bodies: the scalar `F64I` ops composed from the shared
    //! 256-bit hot-path cores of the primitive kernels (`add_ru_256`,
    //! `mul_ru_both_4_avx2_core`, `div_ru_both_256`), whose guard lane
    //! masks accumulate into one running mask.
    //!
    //! # Safety
    //!
    //! Every function here is `#[target_feature(enable = "avx2,fma")]`:
    //! callers must ensure the CPU supports AVX2 and FMA (the entry points
    //! do, via `clamp`/`active_backend`). Memory is touched only through
    //! `loadu`/`storeu` on whole `[f64; 4]` columns and through slice
    //! indexing.

    use super::{note, F64Cols4, IntervalOp};
    use crate::simd::x86::{
        abs_256, add_ru_256, div_ru_both_256, mul_ru_both_4_avx2_core, neg_256,
    };
    use core::arch::x86_64::*;

    type V = __m256d;

    /// Four intervals as `(neg_lo, hi)` register columns.
    #[derive(Clone, Copy)]
    struct Iv {
        n: V,
        h: V,
    }

    const ADD: u8 = IntervalOp::Add as u8;
    const SUB: u8 = IntervalOp::Sub as u8;
    const MUL: u8 = IntervalOp::Mul as u8;
    const DIV: u8 = IntervalOp::Div as u8;
    const SQR: u8 = IntervalOp::Sqr as u8;
    const MUL_ADD: u8 = IntervalOp::MulAdd as u8;
    const MUL_SUB: u8 = IntervalOp::MulSub as u8;

    /// Opcode → operation, indexed by the `repr(u8)` discriminant.
    const OPS: [IntervalOp; 7] = [
        IntervalOp::Add,
        IntervalOp::Sub,
        IntervalOp::Mul,
        IntervalOp::Div,
        IntervalOp::Sqr,
        IntervalOp::MulAdd,
        IntervalOp::MulSub,
    ];

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn is_zero(x: V) -> V {
        _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_setzero_pd())
    }

    /// Folds a guard lane mask into the running lane-valid mask `g`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn require(g: &mut V, m: V) {
        *g = _mm256_and_pd(*g, m);
    }

    /// `max_nan` on lanes the guard keeps NaN-free: `a` unless `a < b`
    /// (ties, including `±0`, keep `a`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn max(a: V, b: V) -> V {
        _mm256_blendv_pd(b, a, _mm256_cmp_pd::<_CMP_GE_OQ>(a, b))
    }

    /// `ops::add_ru`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn add_ru(a: V, b: V, g: &mut V) -> V {
        let (s, ok) = add_ru_256(a, b);
        require(g, ok);
        s
    }

    /// `ops::mul_ru_both`, `(RU(x·y), RU(-(x·y)))`: the hot path, plus
    /// the cold exact-zero return when `zero_op` (`x` or `y` is zero)
    /// holds — a finite product is then an exact zero with a zero
    /// residual, both bumps leave it unchanged, and the scalar `mul_ru`
    /// slow path returns the same pair. A NaN product (zero times ∞ or
    /// NaN) is not zero and stays rejected.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_both(x: V, y: V, zero_op: V, g: &mut V) -> (V, V) {
        let (hi, lo, ok) = mul_ru_both_4_avx2_core(x, y);
        require(g, _mm256_or_pd(ok, _mm256_and_pd(zero_op, is_zero(hi))));
        (hi, lo)
    }

    /// `ops::div_ru_both`, `(RU(x/y), RU(-(x/y)))`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn div_both(x: V, y: V, g: &mut V) -> (V, V) {
        let (hi, lo, ok) = div_ru_both_256(x, y);
        require(g, ok);
        (hi, lo)
    }

    /// `F64I::add`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn add(a: Iv, b: Iv, g: &mut V) -> Iv {
        Iv { n: add_ru(a.n, b.n, g), h: add_ru(a.h, b.h, g) }
    }

    /// `F64I::sub`: `a + (-b)`, the endpoint columns of `b` swapped.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn sub(a: Iv, b: Iv, g: &mut V) -> Iv {
        Iv { n: add_ru(a.n, b.h, g), h: add_ru(a.h, b.n, g) }
    }

    /// `F64I::mul`: four shared product pairs, then the pairwise maxima.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul(a: Iv, b: Iv, g: &mut V) -> Iv {
        let (zan, zah) = (is_zero(a.n), is_zero(a.h));
        let (zbn, zbh) = (is_zero(b.n), is_zero(b.h));
        let (u1, l1) = mul_both(a.n, b.n, _mm256_or_pd(zan, zbn), g);
        let (l2, u2) = mul_both(a.n, b.h, _mm256_or_pd(zan, zbh), g);
        let (l3, u3) = mul_both(a.h, b.n, _mm256_or_pd(zah, zbn), g);
        let (u4, l4) = mul_both(a.h, b.h, _mm256_or_pd(zah, zbh), g);
        Iv { n: max(max(l1, l2), max(l3, l4)), h: max(max(u1, u2), max(u3, u4)) }
    }

    /// `F64I::div` for NaN-free operands and a divisor that does not
    /// straddle zero (other lanes patch: the scalar op returns NAI or
    /// ENTIRE there).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn div(a: Iv, b: Iv, g: &mut V) -> Iv {
        let zero = _mm256_setzero_pd();
        let bl = neg_256(b.n);
        let nan = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_UNORD_Q>(a.n, a.h),
            _mm256_cmp_pd::<_CMP_UNORD_Q>(b.n, b.h),
        );
        let straddle = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(bl, zero),
            _mm256_cmp_pd::<_CMP_GE_OQ>(b.h, zero),
        );
        *g = _mm256_andnot_pd(_mm256_or_pd(nan, straddle), *g);
        let (l1, u1) = div_both(a.n, bl, g);
        let (l2, u2) = div_both(a.n, b.h, g);
        let (u3, l3) = div_both(a.h, bl, g);
        let (u4, l4) = div_both(a.h, b.h, g);
        Iv { n: max(max(l1, l2), max(l3, l4)), h: max(max(u1, u2), max(u3, u4)) }
    }

    /// `F64I::sqr` for NaN-free lanes: magnitudes `m = max(|lo|, |hi|)`
    /// and `n = min(|lo|, |hi|)`, `RU(m²)` as the upper endpoint and
    /// `-RD(n²) = RU(-(n²))` as the negated lower one, or `+0` when the
    /// interval straddles zero (`n` is then replaced by a guard-friendly
    /// `1.0`, its square unused).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn sqr(a: Iv, g: &mut V) -> Iv {
        let zero = _mm256_setzero_pd();
        *g = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_UNORD_Q>(a.n, a.h), *g);
        let (alo, ahi) = (abs_256(a.n), abs_256(a.h));
        let m = _mm256_max_pd(alo, ahi);
        // lo <= 0 && hi >= 0, with lo = -neg_lo.
        let straddle = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(a.n, zero),
            _mm256_cmp_pd::<_CMP_GE_OQ>(a.h, zero),
        );
        let n = _mm256_blendv_pd(_mm256_min_pd(alo, ahi), _mm256_set1_pd(1.0), straddle);
        let (upper, _) = mul_both(m, m, is_zero(m), g);
        let (_, lower) = mul_both(n, n, is_zero(n), g);
        Iv { n: _mm256_blendv_pd(lower, zero, straddle), h: upper }
    }

    /// One fused op on register columns: the result, the lane-valid mask
    /// after the product stage (the accumulate forms) and the final one.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn kernel<const OP: u8>(a: Iv, b: Iv, acc: Iv) -> (Iv, V, V) {
        let mut g = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let v = match OP {
            ADD => add(a, b, &mut g),
            SUB => sub(a, b, &mut g),
            MUL => mul(a, b, &mut g),
            DIV => div(a, b, &mut g),
            SQR => sqr(a, &mut g),
            MUL_ADD | MUL_SUB => {
                let p = mul(a, b, &mut g);
                let first = g;
                let v = if OP == MUL_ADD { add(acc, p, &mut g) } else { sub(acc, p, &mut g) };
                return (v, first, g);
            }
            _ => unreachable!("no interval opcode {OP}"),
        };
        (v, g, g)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load<C: F64Cols4>(c: &C) -> Iv {
        Iv { n: _mm256_loadu_pd(c.neg_lo4().as_ptr()), h: _mm256_loadu_pd(c.hi4().as_ptr()) }
    }

    /// One group: load, run the kernel, store, count, and patch the lanes
    /// whose guard failed.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn group<C: F64Cols4, const OP: u8>(a: &C, b: &C, acc: &C) -> C {
        let (v, first, all) = kernel::<OP>(load(a), load(b), load(acc));
        let mut n = [0.0; 4];
        let mut h = [0.0; 4];
        _mm256_storeu_pd(n.as_mut_ptr(), v.n);
        _mm256_storeu_pd(h.as_mut_ptr(), v.h);
        let mut out = C::from_cols4(n, h);
        let ok = _mm256_movemask_pd(all) as u8;
        note(OPS[OP as usize], _mm256_movemask_pd(first) as u8, ok);
        if ok != 0b1111 {
            C::patch_lanes(OPS[OP as usize], ok, a, b, acc, &mut out);
        }
        out
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply_op<C: F64Cols4, const OP: u8>(a: &C, b: &C, acc: &C) -> C {
        group::<C, OP>(a, b, acc)
    }

    /// [`super::f64i_op_4`]'s body.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn apply<C: F64Cols4>(op: IntervalOp, a: &C, b: &C, acc: &C) -> C {
        match op {
            IntervalOp::Add => apply_op::<C, ADD>(a, b, acc),
            IntervalOp::Sub => apply_op::<C, SUB>(a, b, acc),
            IntervalOp::Mul => apply_op::<C, MUL>(a, b, acc),
            IntervalOp::Div => apply_op::<C, DIV>(a, b, acc),
            IntervalOp::Sqr => apply_op::<C, SQR>(a, b, acc),
            IntervalOp::MulAdd => apply_op::<C, MUL_ADD>(a, b, acc),
            IntervalOp::MulSub => apply_op::<C, MUL_SUB>(a, b, acc),
        }
    }

    /// The column loop of one opcode. `cols` is `[dst, a, b, acc]` as
    /// bank offsets, each with at least `n` slots behind it.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sweep_op<C: F64Cols4, const OP: u8>(bank: &mut [C], cols: [usize; 4], n: usize) {
        let [d, a, b, c] = cols;
        for g in 0..n {
            // Read before write: dst may alias any source.
            let v = group::<C, OP>(&bank[a + g], &bank[b + g], &bank[c + g]);
            bank[d + g] = v;
        }
    }

    /// [`super::f64i_sweep`]'s body.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep<C: F64Cols4>(
        bank: &mut [C],
        op: IntervalOp,
        cols: [usize; 4],
        n: usize,
    ) {
        match op {
            IntervalOp::Add => sweep_op::<C, ADD>(bank, cols, n),
            IntervalOp::Sub => sweep_op::<C, SUB>(bank, cols, n),
            IntervalOp::Mul => sweep_op::<C, MUL>(bank, cols, n),
            IntervalOp::Div => sweep_op::<C, DIV>(bank, cols, n),
            IntervalOp::Sqr => sweep_op::<C, SQR>(bank, cols, n),
            IntervalOp::MulAdd => sweep_op::<C, MUL_ADD>(bank, cols, n),
            IntervalOp::MulSub => sweep_op::<C, MUL_SUB>(bank, cols, n),
        }
    }
}
