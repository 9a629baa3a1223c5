//! Vectorized interval types (Section IV-A "Vectorized intervals" and
//! Table II).
//!
//! In the paper's C runtime a double-precision interval occupies one SSE
//! register (`__m128d`) and the wider types pack 2 or 4 intervals into
//! AVX registers. The double-precision lane types here use the same
//! layout transposed into **SoA-in-register** form: [`F64Ix4`] holds a
//! `neg_lo[4]` column and a `hi[4]` column, so each column is exactly one
//! AVX register. On AVX2+FMA hosts add, sub, mul, div and sqr each run as
//! one fused kernel of [`igen_round::simd`] that keeps both columns in
//! registers for the whole operation and patches guard-failing lanes with
//! the scalar op. On SSE2 hosts the same operations are composed from the
//! packed directed-rounding kernels (add/sub are two packed `add_ru`
//! calls, mul is four packed product-pair calls plus packed NaN-max
//! reductions — the branch-free Section II recipe, four intervals at a
//! time); on non-x86-64 hosts, and under
//! [`igen_round::simd::force_backend`], the composed code runs through
//! the portable scalar lane loop. All paths are bit-identical per lane to
//! the scalar [`F64I`] operations — the property tests pin this on random
//! and special-value lanes.
//!
//! The double-double lane types ([`DdIx2`], [`DdIx4`]) store scalar
//! [`DdI`] lanes and gather them into four endpoint-component columns
//! for the packed DD kernels of [`igen_round::simd`] (add, sub, mul, div
//! and sqr as one AVX2+FMA kernel each). A lane whose scalar hot-path
//! guards do not all hold is recomputed by the scalar `DdI` op, so these
//! types are bit-identical per lane to [`DdI`] on every backend; on SSE2
//! and portable hosts they run the scalar lane loop.

use crate::ddi::DdI;
use crate::f64i::F64I;
use crate::tbool::TBool;
use igen_dd::Dd;
use igen_round::simd;

/// Per-lane three-valued comparison verdicts from the packed compare
/// operations ([`LaneOps::cmp_lt`] and friends): one [`TBool`] per live
/// lane. Vectors narrower than 4 lanes fill only the first
/// [`TBoolLanes::lanes`] slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TBoolLanes {
    vals: [TBool; 4],
    n: usize,
}

impl TBoolLanes {
    fn new(vals: [TBool; 4], n: usize) -> TBoolLanes {
        TBoolLanes { vals, n }
    }

    /// Converts the packed tri-state masks, keeping the first `n` lanes.
    fn from_trimask(m: simd::TriMask4, n: usize) -> TBoolLanes {
        let mut vals = [TBool::Unknown; 4];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = match m.lane(i) {
                Some(true) => TBool::True,
                Some(false) => TBool::False,
                None => TBool::Unknown,
            };
        }
        TBoolLanes { vals, n }
    }

    /// Number of live lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.n
    }

    /// The verdict for lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a live lane.
    #[must_use]
    pub fn lane(&self, i: usize) -> TBool {
        assert!(i < self.n, "TBoolLanes lane index {i} out of range ({} lanes)", self.n);
        self.vals[i]
    }
}

/// The unified operation surface of the packed interval lane types —
/// every vectorized kernel in `igen-kernels`/`igen-batch` is written once
/// against this trait and instantiated for [`F64Ix2`]/[`F64Ix4`] (packed
/// x86 kernels with scalar-patch fallback) and [`DdIx2`]/[`DdIx4`]
/// (packed AVX2+FMA double-double kernels with scalar-patch fallback,
/// lane loops elsewhere).
///
/// Every method is **bit-identical per lane** to the corresponding scalar
/// [`F64I`]/[`DdI`] operation: a lane of `a.sqrt()` equals
/// `a.lane(i).sqrt()` exactly, for all inputs including NaN, infinities,
/// subnormals and signed zeros (see DESIGN.md §10/§12 for why the packed
/// paths preserve this).
pub trait LaneOps:
    Copy
    + core::fmt::Debug
    + PartialEq
    + Default
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
{
    /// The scalar interval element packed in each lane.
    type Elem: Copy + core::fmt::Debug + PartialEq + core::ops::Add<Output = Self::Elem>;
    /// The raw endpoint scalar of the SoA column layout (`f64` for the
    /// double-precision lanes, [`Dd`] for the double-double ones).
    type Endpoint: Copy;

    /// Number of packed intervals.
    const LANES: usize;

    /// Broadcasts one interval to all lanes.
    fn splat(v: Self::Elem) -> Self;

    /// Builds a vector by evaluating `f` once per lane index, in order.
    fn from_lanes_fn(f: impl FnMut(usize) -> Self::Elem) -> Self;

    /// Builds directly from the leading `LANES` slots of two endpoint
    /// columns — the raw representation, used by the batch engine to
    /// feed packed kernels straight from its SoA buffers. The caller
    /// asserts every lane is a valid interval (`-neg_lo[i] <= hi[i]` or
    /// NaN).
    ///
    /// # Panics
    ///
    /// Panics if either column holds fewer than `LANES` endpoints.
    fn from_columns_slice(neg_lo: &[Self::Endpoint], hi: &[Self::Endpoint]) -> Self;

    /// Lane accessor.
    ///
    /// # Panics
    ///
    /// Debug-asserts `i < LANES` with a clear message (release builds
    /// still panic through the underlying array index).
    fn lane(&self, i: usize) -> Self::Elem;

    /// Loads the first `LANES` elements of a slice.
    ///
    /// # Panics
    ///
    /// Panics (debug-asserts with a clear message first) if
    /// `s.len() < LANES`.
    fn load(s: &[Self::Elem]) -> Self {
        debug_assert!(
            s.len() >= Self::LANES,
            "LaneOps::load: slice of {} elements cannot fill {} lanes",
            s.len(),
            Self::LANES
        );
        Self::from_lanes_fn(|i| s[i])
    }

    /// Stores the lanes to the first `LANES` slots of a slice.
    ///
    /// # Panics
    ///
    /// Panics (debug-asserts with a clear message first) if
    /// `s.len() < LANES`.
    fn store(&self, s: &mut [Self::Elem]) {
        debug_assert!(
            s.len() >= Self::LANES,
            "LaneOps::store: {} lanes do not fit in a slice of {} elements",
            Self::LANES,
            s.len()
        );
        for (i, out) in s.iter_mut().enumerate().take(Self::LANES) {
            *out = self.lane(i);
        }
    }

    /// Lane-wise multiply-accumulate `self * b + c`: the packed multiply
    /// followed by the packed add — the same operation sequence as the
    /// scalar `x * b + c` per lane.
    #[must_use]
    fn mul_add(self, b: Self, c: Self) -> Self {
        self * b + c
    }

    /// Horizontal sum of all lanes (sequential left-to-right scalar
    /// adds, so the result is independent of the packed backend).
    fn reduce_sum(self) -> Self::Elem {
        let mut acc = self.lane(0);
        for i in 1..Self::LANES {
            acc = acc + self.lane(i);
        }
        acc
    }

    /// Lane-wise interval square root.
    #[must_use]
    fn sqrt(self) -> Self;

    /// Lane-wise interval absolute value.
    #[must_use]
    fn abs(self) -> Self;

    /// Lane-wise dependency-aware interval square (`sqr`, never
    /// negative — unlike `self * self`).
    #[must_use]
    fn sqr(self) -> Self;

    /// Lane-wise rectified linear unit `max(x, [0, 0])` (exact endpoint
    /// selections only).
    #[must_use]
    fn relu(self) -> Self;

    /// Lane-wise three-valued `self < other`.
    fn cmp_lt(self, other: Self) -> TBoolLanes;

    /// Lane-wise three-valued `self <= other`.
    fn cmp_le(self, other: Self) -> TBoolLanes;

    /// Lane-wise three-valued point equality `self == other`.
    fn cmp_eq(self, other: Self) -> TBoolLanes;
}

/// Packed double-precision intervals in SoA-in-register layout: one
/// column of negated lower endpoints and one of upper endpoints, exactly
/// the scalar [`F64I`] representation transposed across `LANES` lanes.
macro_rules! f64i_lane_type {
    ($(#[$doc:meta])* $name:ident, $n:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name {
            /// Negated-lower-endpoint column (`-lo`, one slot per lane).
            neg_lo: [f64; $n],
            /// Upper-endpoint column.
            hi: [f64; $n],
        }

        impl $name {
            /// Packs `LANES` intervals.
            pub fn from_lanes(xs: [F64I; $n]) -> Self {
                $name { neg_lo: xs.map(|x| x.neg_lo()), hi: xs.map(|x| x.hi()) }
            }

            /// Builds directly from endpoint columns — the raw
            /// representation, used by the batch engine to feed packed
            /// kernels straight from its SoA buffers. The caller asserts
            /// every lane is a valid interval (`-neg_lo[i] <= hi[i]` or
            /// NaN), as with [`F64I::from_neg_lo_hi`].
            #[inline]
            pub fn from_columns(neg_lo: [f64; $n], hi: [f64; $n]) -> Self {
                #[cfg(debug_assertions)]
                for i in 0..$n {
                    let _ = F64I::from_neg_lo_hi(neg_lo[i], hi[i]);
                }
                $name { neg_lo, hi }
            }

            /// The negated-lower-endpoint column.
            #[inline]
            pub fn neg_lo_col(&self) -> &[f64; $n] {
                &self.neg_lo
            }

            /// The upper-endpoint column.
            #[inline]
            pub fn hi_col(&self) -> &[f64; $n] {
                &self.hi
            }

        }

        impl Default for $name {
            fn default() -> Self {
                let d = F64I::default();
                $name { neg_lo: [d.neg_lo(); $n], hi: [d.hi(); $n] }
            }
        }

        impl core::ops::Neg for $name {
            type Output = $name;
            /// Exact per-lane endpoint swap — free in the `(-lo, hi)`
            /// layout, no rounding involved.
            #[inline]
            fn neg(self) -> $name {
                $name { neg_lo: self.hi, hi: self.neg_lo }
            }
        }
    };
}

f64i_lane_type!(
    /// Two packed double-precision intervals — the counterpart of the
    /// paper's `m256di_1` (one AVX register holding 2 intervals). Stored
    /// as two half-filled columns; arithmetic widens into the 4-lane
    /// packed kernels (lanes are independent, so the two padding lanes
    /// cannot influence the live ones).
    F64Ix2,
    2
);

f64i_lane_type!(
    /// Four packed double-precision intervals — the counterpart of two
    /// AVX registers (`m256di_2`), the widest shape the vectorized
    /// kernels use. Each endpoint column is one 256-bit register on the
    /// AVX2 backend.
    F64Ix4,
    4
);

impl F64Ix4 {
    /// One fused interval op: a single AVX2+FMA kernel dispatch on hosts
    /// that have it, `composed` (the primitive packed kernels) on SSE2 and
    /// portable hosts. Both are bit-identical per lane to the scalar op.
    #[inline]
    fn fused(
        op: simd::IntervalOp,
        a: &F64Ix4,
        b: &F64Ix4,
        composed: impl FnOnce(simd::Backend) -> F64Ix4,
    ) -> F64Ix4 {
        let bk = simd::active_backend();
        simd::f64i_op_4(bk, op, a, b, a).unwrap_or_else(|| composed(bk))
    }
}

/// The scalar interval op a fused kernel lane stands for (its patch).
fn scalar_op(op: simd::IntervalOp, a: F64I, b: F64I, acc: F64I) -> F64I {
    match op {
        simd::IntervalOp::Add => a + b,
        simd::IntervalOp::Sub => a - b,
        simd::IntervalOp::Mul => a * b,
        simd::IntervalOp::Div => a / b,
        simd::IntervalOp::Sqr => a.sqr(),
        simd::IntervalOp::MulAdd => acc + a * b,
        simd::IntervalOp::MulSub => acc - a * b,
    }
}

/// Column access and the scalar patch for the fused kernels of
/// `igen_round::simd` (which hold the `unsafe`).
impl simd::F64Cols4 for F64Ix4 {
    #[inline]
    fn neg_lo4(&self) -> &[f64; 4] {
        &self.neg_lo
    }

    #[inline]
    fn hi4(&self) -> &[f64; 4] {
        &self.hi
    }

    #[inline]
    fn from_cols4(neg_lo: [f64; 4], hi: [f64; 4]) -> F64Ix4 {
        F64Ix4 { neg_lo, hi }
    }

    #[cold]
    fn patch_lanes(
        op: simd::IntervalOp,
        ok: u8,
        a: &F64Ix4,
        b: &F64Ix4,
        acc: &F64Ix4,
        out: &mut F64Ix4,
    ) {
        for i in (0..4).filter(|i| ok >> i & 1 == 0) {
            let r = scalar_op(op, a.lane(i), b.lane(i), acc.lane(i));
            (out.neg_lo[i], out.hi[i]) = (r.neg_lo(), r.hi());
        }
    }
}

impl core::ops::Add for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval addition: one fused kernel, or two packed
    /// `add_ru` calls (Section II); bit-identical per lane to
    /// [`F64I::add`].
    #[inline]
    fn add(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4::fused(simd::IntervalOp::Add, &self, &rhs, |bk| F64Ix4 {
            neg_lo: simd::add_ru_4(bk, &self.neg_lo, &rhs.neg_lo),
            hi: simd::add_ru_4(bk, &self.hi, &rhs.hi),
        })
    }
}

impl core::ops::Sub for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval subtraction `a + (-b)`: endpoint-column swap plus
    /// the addition, bit-identical per lane to [`F64I::sub`].
    #[inline]
    fn sub(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4::fused(simd::IntervalOp::Sub, &self, &rhs, |bk| F64Ix4 {
            neg_lo: simd::add_ru_4(bk, &self.neg_lo, &rhs.hi),
            hi: simd::add_ru_4(bk, &self.hi, &rhs.neg_lo),
        })
    }
}

impl core::ops::Mul for F64Ix4 {
    type Output = F64Ix4;
    /// Packed branch-free interval multiplication: the same four shared
    /// product/residual pairs and NaN-max endpoint reductions as
    /// [`F64I::mul`], in one fused kernel or as packed primitive calls
    /// on whole columns. Bit-identical per lane to the scalar operation
    /// (same IEEE operation sequence; see `igen_round::simd`).
    #[inline]
    fn mul(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4::fused(simd::IntervalOp::Mul, &self, &rhs, |bk| {
            let (u1, l1) = simd::mul_ru_both_4(bk, &self.neg_lo, &rhs.neg_lo);
            let (l2, u2) = simd::mul_ru_both_4(bk, &self.neg_lo, &rhs.hi);
            let (l3, u3) = simd::mul_ru_both_4(bk, &self.hi, &rhs.neg_lo);
            let (u4, l4) = simd::mul_ru_both_4(bk, &self.hi, &rhs.hi);
            max_reduce(bk, [l1, l2, l3, l4], [u1, u2, u3, u4])
        })
    }
}

impl core::ops::Div for F64Ix4 {
    type Output = F64Ix4;
    /// Packed interval division, bit-identical per lane to [`F64I::div`].
    /// The fused kernel screens the scalar special cases per lane (NaN
    /// endpoints → NAI, zero-straddling divisor → ENTIRE) into its patch
    /// mask. The composed path takes the scalar lane loop for the whole
    /// vector if any lane is special, and otherwise mirrors the scalar op
    /// with four packed quotient-pair calls and NaN-max reductions.
    #[inline]
    fn div(self, rhs: F64Ix4) -> F64Ix4 {
        F64Ix4::fused(simd::IntervalOp::Div, &self, &rhs, |bk| {
            let special = (0..4).any(|i| {
                self.neg_lo[i].is_nan()
                    || self.hi[i].is_nan()
                    || rhs.neg_lo[i].is_nan()
                    || rhs.hi[i].is_nan()
                    || (-rhs.neg_lo[i] <= 0.0 && rhs.hi[i] >= 0.0)
            });
            if special {
                return F64Ix4::from_lanes(core::array::from_fn(|i| self.lane(i) / rhs.lane(i)));
            }
            // The divisor's lower endpoint, rebuilt exactly as the scalar
            // kernel does.
            let bl = rhs.neg_lo.map(|x| -x);
            let (l1, u1) = simd::div_ru_both_4(bk, &self.neg_lo, &bl);
            let (l2, u2) = simd::div_ru_both_4(bk, &self.neg_lo, &rhs.hi);
            let (u3, l3) = simd::div_ru_both_4(bk, &self.hi, &bl);
            let (u4, l4) = simd::div_ru_both_4(bk, &self.hi, &rhs.hi);
            max_reduce(bk, [l1, l2, l3, l4], [u1, u2, u3, u4])
        })
    }
}

/// The endpoint reductions of the composed product and quotient:
/// `max(max(x1, x2), max(x3, x4))` per column, in the scalar order.
#[inline]
fn max_reduce(bk: simd::Backend, l: [[f64; 4]; 4], u: [[f64; 4]; 4]) -> F64Ix4 {
    let m = |x: &[[f64; 4]; 4]| {
        simd::max_nan_4(bk, &simd::max_nan_4(bk, &x[0], &x[1]), &simd::max_nan_4(bk, &x[2], &x[3]))
    };
    F64Ix4 { neg_lo: m(&l), hi: m(&u) }
}

impl LaneOps for F64Ix4 {
    type Elem = F64I;
    type Endpoint = f64;
    const LANES: usize = 4;

    fn splat(v: F64I) -> Self {
        F64Ix4 { neg_lo: [v.neg_lo(); 4], hi: [v.hi(); 4] }
    }

    fn from_lanes_fn(f: impl FnMut(usize) -> F64I) -> Self {
        Self::from_lanes(core::array::from_fn(f))
    }

    fn from_columns_slice(neg_lo: &[f64], hi: &[f64]) -> Self {
        Self::from_columns(neg_lo[..4].try_into().unwrap(), hi[..4].try_into().unwrap())
    }

    #[inline]
    fn lane(&self, i: usize) -> F64I {
        debug_assert!(i < 4, "F64Ix4 lane index {i} out of range (4 lanes)");
        F64I::from_neg_lo_hi(self.neg_lo[i], self.hi[i])
    }

    /// Packed interval square root: `[RD(sqrt(lo)), RU(sqrt(hi))]` via
    /// the packed directed-rounding sqrt kernels; the lower endpoint
    /// mirrors through the exact column negation, exactly like the
    /// scalar `F64I::sqrt`. Bit-identical per lane (negative radicands
    /// produce the same NaN lower bounds).
    fn sqrt(self) -> Self {
        let bk = simd::active_backend();
        let lo = self.neg_lo.map(|x| -x);
        F64Ix4 { neg_lo: simd::sqrt_rd_4(bk, &lo).map(|x| -x), hi: simd::sqrt_ru_4(bk, &self.hi) }
    }

    /// Packed interval absolute value: exact packed selects replicating
    /// `F64I::abs`' decision order per lane (see `igen_round::simd::abs_4`).
    fn abs(self) -> Self {
        let bk = simd::active_backend();
        let (neg_lo, hi) = simd::abs_4(bk, &self.neg_lo, &self.hi);
        F64Ix4 { neg_lo, hi }
    }

    /// Packed dependency-aware square: one fused kernel, or the composed
    /// path. There the magnitude columns `m` (max) and `n` (min) are
    /// formed with exact scalar selects as in `F64I::sqr`; both directed
    /// endpoint squares then come from the packed square kernel (`RU(m²)`
    /// is its first column on `m`, `-RD(n²)` its second on `n` — scalar
    /// identities that hold bit-for-bit, see
    /// `igen_round::simd::sqr_ru_both_4`). Lanes whose square is
    /// discarded (NaN lanes; the lower square of lanes straddling zero)
    /// compute on a guard-friendly stand-in of `1.0`.
    fn sqr(self) -> Self {
        F64Ix4::fused(simd::IntervalOp::Sqr, &self, &self, |bk| {
            let mut m = [0.0; 4];
            let mut n = [0.0; 4];
            let mut nan = [false; 4];
            let mut straddle = [false; 4];
            for i in 0..4 {
                let (lo, hi) = (-self.neg_lo[i], self.hi[i]);
                nan[i] = self.neg_lo[i].is_nan() || hi.is_nan();
                straddle[i] = lo <= 0.0 && hi >= 0.0;
                let (alo, ahi) = (lo.abs(), hi.abs());
                m[i] = if nan[i] { 1.0 } else { alo.max(ahi) };
                n[i] = if nan[i] || straddle[i] { 1.0 } else { alo.min(ahi) };
            }
            let (upper, _) = simd::sqr_ru_both_4(bk, &m);
            let (_, lower_neg) = simd::sqr_ru_both_4(bk, &n);
            let mut out = F64Ix4 { neg_lo: [0.0; 4], hi: [0.0; 4] };
            for i in 0..4 {
                (out.neg_lo[i], out.hi[i]) = if nan[i] {
                    (f64::NAN, f64::NAN)
                } else if straddle[i] {
                    (0.0, upper[i])
                } else {
                    (lower_neg[i], upper[i])
                };
            }
            out
        })
    }

    /// Lane-wise `max_i` against `[0, 0]` — exact endpoint min/max
    /// selections only, so the plain lane loop is already bit-identical
    /// to the scalar operation (and trivially autovectorizable).
    fn relu(self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).max_i(&F64I::ZERO))
    }

    fn cmp_lt(self, other: Self) -> TBoolLanes {
        let bk = simd::active_backend();
        let m = simd::cmp_lt_4(bk, &self.neg_lo, &self.hi, &other.neg_lo, &other.hi);
        TBoolLanes::from_trimask(m, 4)
    }

    fn cmp_le(self, other: Self) -> TBoolLanes {
        let bk = simd::active_backend();
        let m = simd::cmp_le_4(bk, &self.neg_lo, &self.hi, &other.neg_lo, &other.hi);
        TBoolLanes::from_trimask(m, 4)
    }

    fn cmp_eq(self, other: Self) -> TBoolLanes {
        let bk = simd::active_backend();
        let m = simd::cmp_eq_4(bk, &self.neg_lo, &self.hi, &other.neg_lo, &other.hi);
        TBoolLanes::from_trimask(m, 4)
    }
}

impl LaneOps for F64Ix2 {
    type Elem = F64I;
    type Endpoint = f64;
    const LANES: usize = 2;

    fn splat(v: F64I) -> Self {
        F64Ix2 { neg_lo: [v.neg_lo(); 2], hi: [v.hi(); 2] }
    }

    fn from_lanes_fn(f: impl FnMut(usize) -> F64I) -> Self {
        Self::from_lanes(core::array::from_fn(f))
    }

    fn from_columns_slice(neg_lo: &[f64], hi: &[f64]) -> Self {
        Self::from_columns(neg_lo[..2].try_into().unwrap(), hi[..2].try_into().unwrap())
    }

    #[inline]
    fn lane(&self, i: usize) -> F64I {
        debug_assert!(i < 2, "F64Ix2 lane index {i} out of range (2 lanes)");
        F64I::from_neg_lo_hi(self.neg_lo[i], self.hi[i])
    }

    /// Via the 4-lane kernels; the `[1, 1]` padding lanes are valid,
    /// strictly positive operands for sqrt, so they never patch.
    fn sqrt(self) -> Self {
        Self::narrow(self.widen().sqrt())
    }

    /// Via the 4-lane kernels (see [`F64Ix4::abs`]).
    fn abs(self) -> Self {
        Self::narrow(self.widen().abs())
    }

    /// Via the 4-lane kernels; the `[1, 1]` padding squares to `[1, 1]`
    /// on the guarded fast path.
    fn sqr(self) -> Self {
        Self::narrow(self.widen().sqr())
    }

    fn relu(self) -> Self {
        Self::from_lanes_fn(|i| self.lane(i).max_i(&F64I::ZERO))
    }

    fn cmp_lt(self, other: Self) -> TBoolLanes {
        let m = self.widen().cmp_lt(other.widen());
        TBoolLanes::new([m.vals[0], m.vals[1], TBool::Unknown, TBool::Unknown], 2)
    }

    fn cmp_le(self, other: Self) -> TBoolLanes {
        let m = self.widen().cmp_le(other.widen());
        TBoolLanes::new([m.vals[0], m.vals[1], TBool::Unknown, TBool::Unknown], 2)
    }

    fn cmp_eq(self, other: Self) -> TBoolLanes {
        let m = self.widen().cmp_eq(other.widen());
        TBoolLanes::new([m.vals[0], m.vals[1], TBool::Unknown, TBool::Unknown], 2)
    }
}

impl F64Ix2 {
    /// Widens into a 4-lane vector; the two padding lanes hold `[1, 1]`,
    /// which is valid for every operation (in particular it is a
    /// zero-free divisor, so padding never forces the division fallback).
    /// Lanes are computed independently by every packed kernel, so the
    /// padding cannot influence the two live lanes.
    #[inline]
    fn widen(self) -> F64Ix4 {
        F64Ix4 {
            neg_lo: [self.neg_lo[0], self.neg_lo[1], -1.0, -1.0],
            hi: [self.hi[0], self.hi[1], 1.0, 1.0],
        }
    }

    /// Takes the two live lanes back out of a widened result.
    #[inline]
    fn narrow(v: F64Ix4) -> F64Ix2 {
        F64Ix2 { neg_lo: [v.neg_lo[0], v.neg_lo[1]], hi: [v.hi[0], v.hi[1]] }
    }
}

impl core::ops::Add for F64Ix2 {
    type Output = F64Ix2;
    /// Packed interval addition (via the 4-lane kernels; see
    /// [`F64Ix4`]'s `Add`).
    #[inline]
    fn add(self, rhs: F64Ix2) -> F64Ix2 {
        Self::narrow(self.widen() + rhs.widen())
    }
}

impl core::ops::Sub for F64Ix2 {
    type Output = F64Ix2;
    /// Packed interval subtraction (via the 4-lane kernels).
    #[inline]
    fn sub(self, rhs: F64Ix2) -> F64Ix2 {
        Self::narrow(self.widen() - rhs.widen())
    }
}

impl core::ops::Mul for F64Ix2 {
    type Output = F64Ix2;
    /// Packed interval multiplication (via the 4-lane kernels).
    #[inline]
    fn mul(self, rhs: F64Ix2) -> F64Ix2 {
        Self::narrow(self.widen() * rhs.widen())
    }
}

impl core::ops::Div for F64Ix2 {
    type Output = F64Ix2;
    /// Packed interval division (via the 4-lane kernels; the `[1, 1]`
    /// padding is a zero-free divisor, so only live lanes can trigger
    /// the special-case fallback).
    #[inline]
    fn div(self, rhs: F64Ix2) -> F64Ix2 {
        Self::narrow(self.widen() / rhs.widen())
    }
}

/// Gathers the endpoint columns of up to four double-double intervals;
/// slots past `xs.len()` hold the `[1, 1]` padding (valid for every
/// kernel, a zero-free divisor, and on every guarded hot path).
fn dd_cols(xs: &[DdI]) -> simd::DdCols4 {
    let pad = DdI::ONE;
    let at = |i: usize| xs.get(i).unwrap_or(&pad);
    simd::DdCols4 {
        neg_lo_hi: core::array::from_fn(|i| at(i).neg_lo().hi()),
        neg_lo_lo: core::array::from_fn(|i| at(i).neg_lo().lo()),
        hi_hi: core::array::from_fn(|i| at(i).hi().hi()),
        hi_lo: core::array::from_fn(|i| at(i).hi().lo()),
    }
}

/// Lane `i` of a packed kernel's output columns.
#[inline]
fn dd_lane(c: &simd::DdCols4, i: usize) -> DdI {
    DdI::from_neg_lo_hi(
        Dd::from_parts_unchecked(c.neg_lo_hi[i], c.neg_lo_lo[i]),
        Dd::from_parts_unchecked(c.hi_hi[i], c.hi_lo[i]),
    )
}

/// Runs one double-double interval op over `N <= 4` lanes: on the
/// AVX2+FMA backend as a single packed kernel call (`N < 4` widens with
/// padding lanes), with every lane whose guard mask bit is clear
/// recomputed by the scalar op; on the SSE2 and portable backends as the
/// scalar lane loop. Either way each lane is bit-identical to `scalar`.
#[inline]
fn dd_lanes<const N: usize>(
    scalar: impl Fn(usize) -> DdI,
    packed: impl FnOnce(simd::Backend) -> Option<simd::DdOut4>,
) -> [DdI; N] {
    const { assert!(N <= 4, "the packed DD kernels hold four lanes") };
    let bk = simd::active_backend();
    let out = if bk == simd::Backend::Avx2Fma { packed(bk) } else { None };
    match out {
        Some((cols, ok)) => {
            core::array::from_fn(|i| if ok >> i & 1 == 1 { dd_lane(&cols, i) } else { scalar(i) })
        }
        None => core::array::from_fn(scalar),
    }
}

/// Double-double interval lane types: the lanes are stored as scalar
/// [`DdI`] values; add, sub, mul, div, sqr (and hence the multiply-
/// accumulate forms) gather them into endpoint columns for the packed
/// `igen_round::simd` DD kernels, the remaining ops loop over the lanes.
macro_rules! dd_lane_type {
    ($(#[$doc:meta])* $name:ident, $n:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name(pub [DdI; $n]);

        impl $name {
            /// Packs `LANES` intervals.
            pub fn from_lanes(xs: [DdI; $n]) -> Self {
                $name(xs)
            }

            /// Applies a scalar op to every lane.
            #[inline]
            fn map(self, f: impl Fn(&DdI) -> DdI) -> Self {
                $name(core::array::from_fn(|i| f(&self.0[i])))
            }
        }

        impl LaneOps for $name {
            type Elem = DdI;
            type Endpoint = Dd;
            const LANES: usize = $n;

            fn splat(v: DdI) -> Self {
                $name([v; $n])
            }

            fn from_lanes_fn(f: impl FnMut(usize) -> DdI) -> Self {
                $name(core::array::from_fn(f))
            }

            fn from_columns_slice(neg_lo: &[Dd], hi: &[Dd]) -> Self {
                Self::from_lanes_fn(|i| DdI::from_neg_lo_hi(neg_lo[i], hi[i]))
            }

            #[inline]
            fn lane(&self, i: usize) -> DdI {
                debug_assert!(
                    i < $n,
                    concat!(stringify!($name), " lane index {} out of range ({} lanes)"),
                    i,
                    $n
                );
                self.0[i]
            }

            fn sqrt(self) -> Self {
                self.map(|x| x.sqrt())
            }

            fn abs(self) -> Self {
                self.map(|x| x.abs())
            }

            /// Packed dependency-aware square (see `igen_round::simd::ddi_sqr_4`).
            fn sqr(self) -> Self {
                let a = &self.0;
                $name(dd_lanes(|i| a[i].sqr(), |bk| simd::ddi_sqr_4(bk, &dd_cols(a))))
            }

            fn relu(self) -> Self {
                self.map(|x| x.max_i(&DdI::ZERO))
            }

            fn cmp_lt(self, other: Self) -> TBoolLanes {
                let mut vals = [TBool::Unknown; 4];
                for i in 0..$n {
                    vals[i] = self.0[i].cmp_lt(&other.0[i]);
                }
                TBoolLanes::new(vals, $n)
            }

            fn cmp_le(self, other: Self) -> TBoolLanes {
                let mut vals = [TBool::Unknown; 4];
                for i in 0..$n {
                    vals[i] = self.0[i].cmp_le(&other.0[i]);
                }
                TBoolLanes::new(vals, $n)
            }

            fn cmp_eq(self, other: Self) -> TBoolLanes {
                let mut vals = [TBool::Unknown; 4];
                for i in 0..$n {
                    vals[i] = self.0[i].cmp_eq(&other.0[i]);
                }
                TBoolLanes::new(vals, $n)
            }
        }

        impl core::ops::Add for $name {
            type Output = $name;
            /// Packed interval addition, bit-identical per lane to [`DdI::add`].
            #[inline]
            fn add(self, rhs: $name) -> $name {
                let (a, b) = (&self.0, &rhs.0);
                $name(dd_lanes(|i| a[i] + b[i], |bk| simd::ddi_add_4(bk, &dd_cols(a), &dd_cols(b))))
            }
        }

        impl core::ops::Sub for $name {
            type Output = $name;
            /// Packed interval subtraction `a + (-b)` (an exact column
            /// swap), bit-identical per lane to [`DdI::sub`].
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                let (a, b) = (&self.0, &rhs.0);
                $name(dd_lanes(|i| a[i] - b[i], |bk| {
                    simd::ddi_add_4(bk, &dd_cols(a), &dd_cols(b).swapped())
                }))
            }
        }

        impl core::ops::Mul for $name {
            type Output = $name;
            /// Packed interval multiplication, bit-identical per lane to
            /// [`DdI::mul`].
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                let (a, b) = (&self.0, &rhs.0);
                $name(dd_lanes(|i| a[i] * b[i], |bk| simd::ddi_mul_4(bk, &dd_cols(a), &dd_cols(b))))
            }
        }

        impl core::ops::Div for $name {
            type Output = $name;
            /// Packed interval division, bit-identical per lane to
            /// [`DdI::div`] (NaN and zero-straddling divisor lanes take
            /// the scalar patch).
            #[inline]
            fn div(self, rhs: $name) -> $name {
                let (a, b) = (&self.0, &rhs.0);
                $name(dd_lanes(|i| a[i] / b[i], |bk| simd::ddi_div_4(bk, &dd_cols(a), &dd_cols(b))))
            }
        }

        impl core::ops::Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                self.map(|x| -*x)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name([DdI::default(); $n])
            }
        }
    };
}

dd_lane_type!(
    /// Two packed double-double intervals (`2 ddi` of Table II). The
    /// arithmetic widens into the 4-lane kernels with two `[1, 1]`
    /// padding lanes, as [`F64Ix2`] does.
    DdIx2,
    2
);

dd_lane_type!(
    /// Four packed double-double intervals (`4 ddi` of Table II): each
    /// endpoint component column is one 256-bit register on the AVX2
    /// backend.
    DdIx4,
    4
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lane index 4 out of range")]
    fn lane_index_out_of_range_panics() {
        let v = F64Ix4::splat(F64I::point(1.0));
        let _ = v.lane(4);
    }

    #[test]
    #[should_panic(expected = "4 lanes do not fit in a slice of 3 elements")]
    fn store_into_short_slice_panics() {
        let v = F64Ix4::splat(F64I::point(1.0));
        let mut out = [F64I::ZERO; 3];
        v.store(&mut out);
    }

    #[test]
    #[should_panic(expected = "slice of 2 elements cannot fill 4 lanes")]
    fn load_from_short_slice_panics() {
        let _ = F64Ix4::load(&[F64I::ZERO; 2]);
    }

    #[test]
    fn lanes_match_scalar() {
        let a = F64I::point(0.1);
        let b = F64I::new(1.0, 2.0).unwrap();
        let va = F64Ix4::splat(a);
        let vb = F64Ix4::splat(b);
        let sum = va + vb;
        let diff = va - vb;
        let prod = va * vb;
        let quot = va / vb;
        for i in 0..4 {
            assert_eq!(sum.lane(i), a + b);
            assert_eq!(diff.lane(i), a - b);
            assert_eq!(prod.lane(i), a * b);
            assert_eq!(quot.lane(i), a / b);
        }
    }

    #[test]
    fn x2_lanes_match_scalar() {
        let a = F64I::new(-0.3, 0.7).unwrap();
        let b = F64I::new(0.11, 5.3).unwrap();
        let va = F64Ix2::from_lanes([a, b]);
        let vb = F64Ix2::from_lanes([b, a]);
        let sum = va + vb;
        let prod = va * vb;
        let quot = va / vb;
        for i in 0..2 {
            let (x, y) = (va.lane(i), vb.lane(i));
            assert_eq!(sum.lane(i), x + y);
            assert_eq!(prod.lane(i), x * y);
            assert_eq!(quot.lane(i), x / y);
        }
    }

    #[test]
    fn div_special_lanes_fall_back() {
        // Special lanes (a straddling divisor, a NaN dividend) patch per
        // lane in the fused kernel and send the whole vector to the
        // scalar loop on the composed path; either way every lane must
        // match scalar div.
        let nums = [F64I::point(1.0), F64I::new(-2.0, 3.0).unwrap(), F64I::NAI, F64I::point(4.0)];
        let dens =
            [F64I::new(-1.0, 1.0).unwrap(), F64I::point(2.0), F64I::point(1.0), F64I::point(0.5)];
        let q = F64Ix4::from_lanes(nums) / F64Ix4::from_lanes(dens);
        for i in 0..4 {
            let want = nums[i] / dens[i];
            if want.has_nan() {
                assert!(q.lane(i).has_nan(), "lane {i}");
            } else {
                assert_eq!(q.lane(i), want, "lane {i}");
            }
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let xs =
            [F64I::point(1.0), F64I::point(2.0), F64I::new(-1.0, 1.0).unwrap(), F64I::point(4.0)];
        let v = F64Ix4::load(&xs);
        let mut out = [F64I::ZERO; 4];
        v.store(&mut out);
        assert_eq!(xs, out);
    }

    #[test]
    fn columns_hold_raw_representation() {
        let x = F64I::new(-2.0, 5.0).unwrap();
        let v = F64Ix4::splat(x);
        assert_eq!(v.neg_lo_col(), &[2.0; 4]);
        assert_eq!(v.hi_col(), &[5.0; 4]);
        let rebuilt = F64Ix4::from_columns(*v.neg_lo_col(), *v.hi_col());
        assert_eq!(rebuilt, v);
    }

    #[test]
    fn mul_add_and_reduce() {
        let a = F64Ix2::splat(F64I::point(2.0));
        let b = F64Ix2::splat(F64I::point(3.0));
        let c = F64Ix2::splat(F64I::point(1.0));
        let r = a.mul_add(b, c);
        assert_eq!(r.lane(0).hi(), 7.0);
        assert_eq!(r.reduce_sum().hi(), 14.0);
    }

    #[test]
    fn neg_is_exact_swap() {
        let v = F64Ix4::splat(F64I::new(-1.5, 2.5).unwrap());
        let n = -v;
        for i in 0..4 {
            assert_eq!(n.lane(i), -v.lane(i));
        }
    }

    #[test]
    fn dd_lanes() {
        let x = DdI::point_f64(0.1);
        let v = DdIx2::splat(x);
        let s = v + v;
        assert!(s.lane(0).contains_f64(0.2));
        let p = v * v;
        // The dd interval is tighter than the f64-rounded product; it
        // contains the exact square of the double 0.1.
        let exact_sq = igen_dd::Dd::from(0.1) * igen_dd::Dd::from(0.1);
        assert!(p.lane(1).contains(exact_sq));
    }
}
