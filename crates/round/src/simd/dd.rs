//! Packed double-double interval kernels: four `ddi` operations per call.
//!
//! A double-double interval is four binary64 components — the negated
//! lower endpoint `(neg_lo.hi, neg_lo.lo)` and the upper endpoint
//! `(hi.hi, hi.lo)` — so four of them transpose into four 256-bit
//! columns ([`DdCols4`]), the `ddi`-per-`__m256d` mapping of the paper
//! (Section IV-A, Table II) turned on its side. Each kernel here runs one
//! whole interval operation (`add`, `mul`, `div`, `sqr`) on those columns
//! in a single `avx2,fma` function.
//!
//! # Bit-identity contract
//!
//! The scalar interval ops (`DdI` in `igen-interval`) are long chains of
//! directed-rounding primitives (`add_ru`, `mul_ru`, `fma_ru`, their `Rd`
//! mirrors) glued by round-to-nearest EFTs, and each primitive has a
//! guarded hot path. A kernel here evaluates, lane-wise, **the same IEEE
//! operation sequence** as the scalar op's hot paths, and folds every
//! hot-path guard into one lane-valid mask. A lane whose mask bit is set
//! took the scalar hot path at every step, so its packed result equals
//! the scalar result bit for bit; a lane whose bit is clear is garbage
//! and the caller recomputes it with the scalar op (cold paths
//! included). The mirrored guards (DESIGN.md §10):
//!
//! * `add_ru`: TwoSum sum and residual both finite;
//! * `mul_ru`: `FMA_RESIDUAL_EXACT_MIN <= |p| <= MAX` with a finite
//!   residual, **or** an exact zero product from a zero operand (the
//!   scalar cold path returns `p` there — every `f64`-valued operand has
//!   a zero trailing component, so rejecting these lanes would send
//!   nearly all real traffic to the scalar patch);
//! * `fma_ru`: finite `r`, exact-or-zero product, finite `ErrFma`
//!   residual pair — and **not** a bumped `r == -0.0`, where the scalar
//!   `next_up(-0.0)` differs from the packed branch-free bump;
//! * `finish` (dd renormalization): finite components before and after;
//! * `div_rn`/`div_bounds`: finite nonzero leading quotient;
//! * interval screens: no NaN component (`div`, `sqr`), divisor not
//!   straddling zero (`div`).
//!
//! Extra guard conditions only cost speed (more lanes patch); a missing
//! one would break identity. The `simd.dd_packed` / `simd.dd_patched`
//! telemetry counters report packed calls and patched lanes.

use super::{clamp, Backend};

/// The raw endpoint columns of four double-double intervals: lane `i`
/// holds the interval with negated lower endpoint
/// `neg_lo_hi[i] + neg_lo_lo[i]` and upper endpoint `hi_hi[i] + hi_lo[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DdCols4 {
    /// Leading components of the negated lower endpoints.
    pub neg_lo_hi: [f64; 4],
    /// Trailing components of the negated lower endpoints.
    pub neg_lo_lo: [f64; 4],
    /// Leading components of the upper endpoints.
    pub hi_hi: [f64; 4],
    /// Trailing components of the upper endpoints.
    pub hi_lo: [f64; 4],
}

impl DdCols4 {
    /// Interval negation: the exact endpoint swap of the `(-lo, hi)`
    /// layout (so `a - b` is `a + b.swapped()`).
    #[must_use]
    pub fn swapped(&self) -> DdCols4 {
        DdCols4 {
            neg_lo_hi: self.hi_hi,
            neg_lo_lo: self.hi_lo,
            hi_hi: self.neg_lo_hi,
            hi_lo: self.neg_lo_lo,
        }
    }
}

/// A packed kernel's result: the output columns and the 4-bit lane-valid
/// mask (bit `i` set: lane `i` is bit-identical to the scalar op; clear:
/// the caller must recompute lane `i` with the scalar op).
pub type DdOut4 = (DdCols4, u8);

/// Counts one packed call and its patched lanes.
fn note(out: DdOut4) -> DdOut4 {
    super::tel::DD_PACKED.inc();
    super::tel::DD_PATCHED.add(u64::from((!out.1 & 0xf).count_ones()));
    out
}

/// Packed `DdI::add` on four lanes: two upward double-double additions
/// per lane. `None` below [`Backend::Avx2Fma`] (the caller keeps its
/// scalar lane loop there).
pub fn ddi_add_4(bk: Backend, a: &DdCols4, b: &DdCols4) -> Option<DdOut4> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => Some(note(unsafe { x86::add(a, b) })),
        _ => None,
    }
}

/// Packed `DdI::mul` on four lanes: eight upward double-double products
/// and six dd maxima per lane. `None` below [`Backend::Avx2Fma`].
pub fn ddi_mul_4(bk: Backend, a: &DdCols4, b: &DdCols4) -> Option<DdOut4> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => Some(note(unsafe { x86::mul(a, b) })),
        _ => None,
    }
}

/// Packed `DdI::div` on four lanes: four `div_bounds` enclosures and six
/// dd minima/maxima per lane (NaN and zero-straddling divisor lanes are
/// left to the scalar patch). `None` below [`Backend::Avx2Fma`].
pub fn ddi_div_4(bk: Backend, a: &DdCols4, b: &DdCols4) -> Option<DdOut4> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => Some(note(unsafe { x86::div(a, b) })),
        _ => None,
    }
}

/// Packed `DdI::sqr` on four lanes: the interval absolute value (exact
/// selects) followed by one downward and one upward double-double square.
/// `None` below [`Backend::Avx2Fma`].
pub fn ddi_sqr_4(bk: Backend, a: &DdCols4) -> Option<DdOut4> {
    match clamp(bk) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() guarantees the detected CPU has AVX2 and FMA.
        Backend::Avx2Fma => Some(note(unsafe { x86::sqr(a) })),
        _ => None,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernel bodies. Every helper mirrors one scalar function of
    //! `igen_round::ops`, `igen_dd::arith` or `igen_interval::ddi`
    //! (named in its doc) and records that function's hot-path guard in
    //! the running [`Guard`]. `DOWN` instantiates the `Rd` variant through
    //! the same negation identities as `igen_round`'s `Rounded for Rd`
    //! (`add_rd(a, b) = -add_ru(-a, -b)`, …).
    //!
    //! # Safety
    //!
    //! Every function here is `#[target_feature(enable = "avx2,fma")]`:
    //! callers must ensure the CPU supports AVX2 and FMA (the dispatchers
    //! do, via `clamp`). Memory is touched only through `loadu`/`storeu`
    //! on whole `[f64; 4]` columns.

    use super::{DdCols4, DdOut4};
    use crate::ops::FMA_RESIDUAL_EXACT_MIN;
    use crate::simd::x86::{abs_256, neg_256};
    use core::arch::x86_64::*;

    type V = __m256d;

    /// A double-double column pair `(hi, lo)`.
    #[derive(Clone, Copy)]
    struct D(V, V);

    /// The running lane-valid state: `mask` holds the guard conditions
    /// that are lane masks, `poison` the finiteness conditions — it
    /// accumulates `x·0` for every value that must be finite, so it stays
    /// `±0` exactly while all of them are finite and turns NaN for good
    /// once one is not (one FMA per check instead of a compare and an
    /// AND).
    struct Guard {
        mask: V,
        poison: V,
    }

    /// `2^-100`: the relative error radius of `igen_dd::div_bounds`
    /// (`DIV_REL_ERR_EXP`).
    const DIV_REL_ERR: f64 = f64::from_bits((1023 - 100) << 52);
    /// `2^-1055`: the absolute error floor of `igen_dd::div_bounds`.
    const DIV_ABS_FLOOR: f64 = f64::from_bits(1 << 19);

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn and(a: V, b: V) -> V {
        _mm256_and_pd(a, b)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn or(a: V, b: V) -> V {
        _mm256_or_pd(a, b)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn splat(x: f64) -> V {
        _mm256_set1_pd(x)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn is_zero(x: V) -> V {
        _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_setzero_pd())
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn is_pos(x: V) -> V {
        _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_setzero_pd())
    }

    /// Lanes whose sign bit is set (`-0.0` and negatives included).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn sign_bit(x: V) -> V {
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(_mm256_setzero_si256(), _mm256_castpd_si256(x)))
    }

    /// Lanes with a NaN in either operand.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn unord(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_UNORD_Q>(a, b)
    }

    /// Requires the lane mask `m`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn require(g: &mut Guard, m: V) {
        g.mask = and(g.mask, m);
    }

    /// Requires `x` to be finite.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn finite(g: &mut Guard, x: V) {
        g.poison = _mm256_fmadd_pd(x, _mm256_setzero_pd(), g.poison);
    }

    /// `ops::bump_up` (step toward +∞ where `up` is set) for every
    /// finite input except a bumped `-0.0`, which it maps to a NaN
    /// pattern rather than `+0.0`. No hot path bumps `-0.0`: an `add_ru`
    /// sum is `-0.0` only for `-0.0 + -0.0`, whose TwoSum residual is
    /// `+0.0`; a hot `mul_ru` product is nonzero or exact (zero
    /// residual); and [`fma_ru`] rejects the case in its guard.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bump(s: V, up: V) -> V {
        let bits = _mm256_castpd_si256(s);
        let neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), bits);
        let inc = _mm256_srli_epi64::<63>(_mm256_castpd_si256(up));
        // +inc on nonnegative lanes, -inc on negative ones.
        let step = _mm256_sub_epi64(_mm256_xor_si256(inc, neg), neg);
        _mm256_castsi256_pd(_mm256_add_epi64(bits, step))
    }

    /// `eft::two_sum` (round-to-nearest), lane-wise.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn two_sum(a: V, b: V) -> (V, V) {
        let s = _mm256_add_pd(a, b);
        let a1 = _mm256_sub_pd(s, b);
        let b1 = _mm256_sub_pd(s, a1);
        let da = _mm256_sub_pd(a, a1);
        let db = _mm256_sub_pd(b, b1);
        (s, _mm256_add_pd(da, db))
    }

    /// `eft::fast_two_sum` (round-to-nearest), lane-wise.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fast_two_sum(a: V, b: V) -> (V, V) {
        let s = _mm256_add_pd(a, b);
        let z = _mm256_sub_pd(s, a);
        (s, _mm256_sub_pd(b, z))
    }

    /// `ops::add_ru` hot path. The scalar guard is "sum and residual
    /// finite"; a non-finite sum always makes the residual NaN, so the
    /// residual alone carries it.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn add_ru(a: V, b: V, g: &mut Guard) -> V {
        let (s, e) = two_sum(a, b);
        finite(g, e);
        bump(s, is_pos(e))
    }

    /// `ops::mul_ru` hot path (`|p| >= FMA_RESIDUAL_EXACT_MIN`, finite
    /// residual — which rules out an infinite or NaN `p`) plus its cold
    /// exact-zero return (`p == 0` from a zero operand, where the zero
    /// residual makes the bump below return `p` unchanged).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_ru(a: V, b: V, g: &mut Guard) -> V {
        let p = _mm256_mul_pd(a, b);
        let e = _mm256_fmsub_pd(a, b, p);
        finite(g, e);
        let in_range = _mm256_cmp_pd::<_CMP_GE_OQ>(abs_256(p), splat(FMA_RESIDUAL_EXACT_MIN));
        let exact_zero = and(is_zero(p), or(is_zero(a), is_zero(b)));
        require(g, or(in_range, exact_zero));
        bump(p, is_pos(e))
    }

    /// `ops::fma_ru` hot path (the Boldo–Muller `ErrFma` sign test).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fma_ru(a: V, b: V, c: V, g: &mut Guard) -> V {
        let r = _mm256_fmadd_pd(a, b, c);
        let u1 = _mm256_mul_pd(a, b);
        let u2 = _mm256_fmsub_pd(a, b, u1);
        let (a1, a2) = two_sum(c, u2);
        let (b1, b2) = two_sum(u1, a1);
        let gg = _mm256_add_pd(_mm256_sub_pd(b1, r), b2);
        let (e1, e2) = fast_two_sum(gg, a2);
        for x in [r, u1, e1, e2] {
            finite(g, x);
        }
        let prod_ok = or(
            and(is_zero(u1), or(is_zero(a), is_zero(b))),
            _mm256_cmp_pd::<_CMP_GE_OQ>(abs_256(u1), splat(FMA_RESIDUAL_EXACT_MIN)),
        );
        let sign = _mm256_blendv_pd(e2, e1, _mm256_cmp_pd::<_CMP_NEQ_UQ>(e1, _mm256_setzero_pd()));
        let up = is_pos(sign);
        // The scalar bump is `next_up(r)`, which maps -0.0 to the
        // smallest subnormal; `bump` does not.
        let neg_zero_bump = and(up, and(is_zero(r), sign_bit(r)));
        require(g, _mm256_andnot_pd(neg_zero_bump, prod_ok));
        bump(r, up)
    }

    // Direction-generic primitives: `Ru` directly, `Rd` via the negation
    // identities of `Rounded for Rd`.

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn add_d<const DOWN: bool>(a: V, b: V, g: &mut Guard) -> V {
        if DOWN {
            neg_256(add_ru(neg_256(a), neg_256(b), g))
        } else {
            add_ru(a, b, g)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn sub_d<const DOWN: bool>(a: V, b: V, g: &mut Guard) -> V {
        if DOWN {
            neg_256(add_ru(neg_256(a), b, g))
        } else {
            add_ru(a, neg_256(b), g)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mul_d<const DOWN: bool>(a: V, b: V, g: &mut Guard) -> V {
        if DOWN {
            neg_256(mul_ru(neg_256(a), b, g))
        } else {
            mul_ru(a, b, g)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fma_d<const DOWN: bool>(a: V, b: V, c: V, g: &mut Guard) -> V {
        if DOWN {
            neg_256(fma_ru(neg_256(a), b, neg_256(c), g))
        } else {
            fma_ru(a, b, c, g)
        }
    }

    /// `arith::two_sum_dir`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn two_sum_d<const DOWN: bool>(a: V, b: V, g: &mut Guard) -> (V, V) {
        let s = add_d::<DOWN>(a, b, g);
        let a1 = sub_d::<DOWN>(s, b, g);
        let b1 = sub_d::<DOWN>(s, a1, g);
        let da = sub_d::<DOWN>(a, a1, g);
        let db = sub_d::<DOWN>(b, b1, g);
        (s, add_d::<DOWN>(da, db, g))
    }

    /// `arith::fast_two_sum_dir`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fast_two_sum_d<const DOWN: bool>(a: V, b: V, g: &mut Guard) -> (V, V) {
        let s = add_d::<DOWN>(a, b, g);
        let z = sub_d::<DOWN>(s, a, g);
        (s, sub_d::<DOWN>(b, z, g))
    }

    /// `arith::finish` hot path: the exact renormalizing TwoSum with a
    /// finite result (which needs finite inputs; the scalar NaN, infinity
    /// and overflow-saturation returns are cold).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn finish(zh: V, zl: V, g: &mut Guard) -> D {
        let (h, l) = two_sum(zh, zl);
        finite(g, h);
        finite(g, l);
        D(h, l)
    }

    /// `arith::add_dir` (AccurateDWPlusDW).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_add<const DOWN: bool>(x: D, y: D, g: &mut Guard) -> D {
        let (sh, sl) = two_sum_d::<DOWN>(x.0, y.0, g);
        let (th, tl) = two_sum_d::<DOWN>(x.1, y.1, g);
        let c = add_d::<DOWN>(sl, th, g);
        let (vh, vl) = fast_two_sum_d::<DOWN>(sh, c, g);
        let w = add_d::<DOWN>(tl, vl, g);
        let (zh, zl) = fast_two_sum_d::<DOWN>(vh, w, g);
        finish(zh, zl, g)
    }

    /// `arith::mul_dir` (DWTimesDW3).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_mul<const DOWN: bool>(x: D, y: D, g: &mut Guard) -> D {
        let ch = mul_d::<DOWN>(x.0, y.0, g);
        let cl1 = fma_d::<DOWN>(x.0, y.0, neg_256(ch), g);
        let tl0 = mul_d::<DOWN>(x.1, y.1, g);
        let tl1 = fma_d::<DOWN>(x.0, y.1, tl0, g);
        let cl2 = fma_d::<DOWN>(x.1, y.0, tl1, g);
        let cl3 = add_d::<DOWN>(cl1, cl2, g);
        let (zh, zl) = fast_two_sum_d::<DOWN>(ch, cl3, g);
        finish(zh, zl, g)
    }

    /// `Dd::neg` (exact).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_neg(x: D) -> D {
        D(neg_256(x.0), neg_256(x.1))
    }

    /// `Dd::le` for NaN-free operands: both sides renormalized by an
    /// exact TwoSum, then compared lexicographically (ordered compares
    /// are false wherever renormalization produced a NaN, exactly like
    /// the scalar `partial_cmp`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_le(x: D, y: D) -> V {
        let (xh, xl) = two_sum(x.0, x.1);
        let (yh, yl) = two_sum(y.0, y.1);
        or(
            _mm256_cmp_pd::<_CMP_LT_OQ>(xh, yh),
            and(_mm256_cmp_pd::<_CMP_EQ_OQ>(xh, yh), _mm256_cmp_pd::<_CMP_LE_OQ>(xl, yl)),
        )
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn select(m: V, a: D, b: D) -> D {
        D(_mm256_blendv_pd(b.0, a.0, m), _mm256_blendv_pd(b.1, a.1, m))
    }

    /// `ddi::dd_max` on NaN-free operands (`Dd::max`: `a` unless `a < b`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_max(a: D, b: D) -> D {
        select(dd_le(b, a), a, b)
    }

    /// `ddi::dd_min` on NaN-free operands (`Dd::min`: `a` if `a <= b`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn dd_min(a: D, b: D) -> D {
        select(dd_le(a, b), a, b)
    }

    /// `arith::div_bounds` hot path: `div_rn`, then the enclosure
    /// `q ∓ (|q.hi|·2^-100 + 2^-1055)` with directed dd additions.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn div_bounds(x: D, y: D, g: &mut Guard) -> (D, D) {
        // div_rn, all round-to-nearest; a zero or non-finite leading
        // quotient takes the scalar degenerate path.
        let th = _mm256_div_pd(x.0, y.0);
        finite(g, th);
        require(g, _mm256_cmp_pd::<_CMP_NEQ_UQ>(th, _mm256_setzero_pd()));
        let ph = _mm256_mul_pd(th, y.0);
        let pl = _mm256_fmsub_pd(th, y.0, ph);
        let dh = _mm256_sub_pd(x.0, ph);
        let dt = _mm256_sub_pd(dh, pl);
        let d = _mm256_add_pd(dt, _mm256_sub_pd(x.1, _mm256_mul_pd(th, y.1)));
        let tl = _mm256_div_pd(d, y.0);
        let (zh, zl) = fast_two_sum(th, tl);
        let q = finish(zh, zl, g);
        // err_radius; a finite nonzero `th` rules out `x == 0`.
        let rel = mul_ru(abs_256(q.0), splat(DIV_REL_ERR), g);
        let delta = add_ru(rel, splat(DIV_ABS_FLOOR), g);
        let lo = dd_add::<true>(q, D(neg_256(delta), splat(-0.0)), g);
        let hi = dd_add::<false>(q, D(delta, _mm256_setzero_pd()), g);
        (lo, hi)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load(c: &DdCols4) -> (D, D) {
        (
            D(_mm256_loadu_pd(c.neg_lo_hi.as_ptr()), _mm256_loadu_pd(c.neg_lo_lo.as_ptr())),
            D(_mm256_loadu_pd(c.hi_hi.as_ptr()), _mm256_loadu_pd(c.hi_lo.as_ptr())),
        )
    }

    /// A fresh guard; lanes in `reject` start invalid.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn guard(reject: V) -> Guard {
        let all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        Guard { mask: _mm256_andnot_pd(reject, all), poison: _mm256_setzero_pd() }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store(neg_lo: D, hi: D, g: Guard) -> DdOut4 {
        let mut out = DdCols4::default();
        _mm256_storeu_pd(out.neg_lo_hi.as_mut_ptr(), neg_lo.0);
        _mm256_storeu_pd(out.neg_lo_lo.as_mut_ptr(), neg_lo.1);
        _mm256_storeu_pd(out.hi_hi.as_mut_ptr(), hi.0);
        _mm256_storeu_pd(out.hi_lo.as_mut_ptr(), hi.1);
        let ok = and(g.mask, is_zero(g.poison));
        (out, _mm256_movemask_pd(ok) as u8)
    }

    /// Lanes holding a NaN in any component of either endpoint.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn has_nan(n: D, h: D) -> V {
        or(unord(n.0, n.1), unord(h.0, h.1))
    }

    /// `DdI::add`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add(a: &DdCols4, b: &DdCols4) -> DdOut4 {
        let ((an, ah), (bn, bh)) = (load(a), load(b));
        let mut g = guard(_mm256_setzero_pd());
        let neg_lo = dd_add::<false>(an, bn, &mut g);
        let hi = dd_add::<false>(ah, bh, &mut g);
        store(neg_lo, hi, g)
    }

    /// `DdI::mul`: the eight products in the scalar order, then the
    /// pairwise dd maxima.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mul(a: &DdCols4, b: &DdCols4) -> DdOut4 {
        let ((na, ah), (nb, bh)) = (load(a), load(b));
        let mut g = guard(_mm256_setzero_pd());
        let u1 = dd_mul::<false>(na, nb, &mut g);
        let u2 = dd_mul::<false>(dd_neg(na), bh, &mut g);
        let u3 = dd_mul::<false>(ah, dd_neg(nb), &mut g);
        let u4 = dd_mul::<false>(ah, bh, &mut g);
        let l1 = dd_mul::<false>(dd_neg(na), nb, &mut g);
        let l2 = dd_mul::<false>(na, bh, &mut g);
        let l3 = dd_mul::<false>(ah, nb, &mut g);
        let l4 = dd_mul::<false>(dd_neg(ah), bh, &mut g);
        let neg_lo = dd_max(dd_max(l1, l2), dd_max(l3, l4));
        let hi = dd_max(dd_max(u1, u2), dd_max(u3, u4));
        store(neg_lo, hi, g)
    }

    /// `DdI::div` for NaN-free operands and a divisor that does not
    /// straddle zero. The scalar running extrema start at `±∞`, and the
    /// first `dd_min`/`dd_max` against a finite bound returns that bound,
    /// so the packed folds start at the first quotient's bounds.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn div(a: &DdCols4, b: &DdCols4) -> DdOut4 {
        let ((an, ah), (bn, bh)) = (load(a), load(b));
        let zero = D(_mm256_setzero_pd(), _mm256_setzero_pd());
        let bl = dd_neg(bn);
        let straddle = and(dd_le(bl, zero), dd_le(zero, bh));
        let mut g = guard(or(or(has_nan(an, ah), has_nan(bn, bh)), straddle));
        let al = dd_neg(an);
        let (l1, h1) = div_bounds(al, bl, &mut g);
        let (l2, h2) = div_bounds(al, bh, &mut g);
        let (l3, h3) = div_bounds(ah, bl, &mut g);
        let (l4, h4) = div_bounds(ah, bh, &mut g);
        let lo = dd_min(dd_min(dd_min(l1, l2), l3), l4);
        let hi = dd_max(dd_max(dd_max(h1, h2), h3), h4);
        store(dd_neg(lo), hi, g)
    }

    /// `DdI::sqr`: `DdI::abs`' three cases as selects (nonnegative:
    /// unchanged; nonpositive: swapped; straddling: `[0, max]`), then
    /// `RD(lo²)` and `RU(hi²)` of the magnitude interval. NaN lanes
    /// patch (the scalar op returns the NaI interval there).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sqr(a: &DdCols4) -> DdOut4 {
        let (n, h) = load(a);
        let mut g = guard(has_nan(n, h));
        // For NaN-free dd values `is_sign_negative` is the leading
        // component's sign bit.
        let lo_neg = sign_bit(neg_256(n.0));
        let hi_nonpos = or(sign_bit(h.0), and(is_zero(h.0), is_zero(h.1)));
        let neg_zero = D(splat(-0.0), splat(-0.0));
        let alo = select(lo_neg, select(hi_nonpos, dd_neg(h), neg_zero), dd_neg(n));
        let ahi = select(lo_neg, select(hi_nonpos, n, dd_max(n, h)), h);
        let lower = dd_mul::<true>(alo, alo, &mut g);
        let upper = dd_mul::<false>(ahi, ahi, &mut g);
        store(dd_neg(lower), upper, g)
    }
}
