//! Bit-identity of the packed lane types against the scalar interval
//! operations, across every backend the host supports.
//!
//! `F64Ix2`/`F64Ix4` dispatch to the packed kernels of
//! `igen_round::simd`; this suite forces each backend in turn (portable,
//! SSE2, AVX2+FMA where detected) and checks that every lane of every
//! vector operation equals the scalar `F64I` result bit for bit —
//! including NaN, infinite, subnormal and signed-zero endpoints, which
//! the random generator produces and the deterministic grid guarantees.
//!
//! On AVX2+FMA hosts the `F64Ix4` ops (and the VM's multiply-accumulate
//! forms, called here through `simd::f64i_op_4`) run as fused kernels;
//! a second witness table pins that each of their guard families reaches
//! the scalar patch and that ordinary lanes, exact zero products included,
//! do not.
//!
//! `DdIx2`/`DdIx4` get the same treatment against scalar `DdI`: on
//! AVX2+FMA hosts their add/sub/mul/div/sqr run the packed double-double
//! kernels, whose lane-valid masks send every lane failing a scalar
//! hot-path guard to the scalar patch; a witness table pins that each
//! guard family actually reaches that patch (and that exact zero
//! products from `lo == 0` operands do not).
//!
//! The backend override is process-global, so every forced section takes
//! a mutex; no other test in this binary touches the lane types outside
//! of it.

use igen_dd::Dd;
use igen_interval::{DdI, DdIx2, DdIx4, F64Ix2, F64Ix4, LaneOps, TBool, F64I};
use igen_round::simd::{self, Backend, IntervalOp};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Mutex;

/// Serializes `force_backend` sections (the override is process-global).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(bk: Backend, f: impl FnOnce() -> T) -> T {
    let _guard = BACKEND_LOCK.lock().unwrap();
    simd::force_backend(Some(bk));
    let out = f();
    simd::force_backend(None);
    out
}

fn backends() -> Vec<Backend> {
    [Backend::Portable, Backend::Sse2, Backend::Avx2Fma]
        .into_iter()
        .filter(|&bk| bk <= simd::detected_backend())
        .collect()
}

/// Intervals over the full double range: ordered endpoints from
/// arbitrary doubles, keeping NaN endpoints (unknown bounds) when the
/// generator produces them.
fn iv_any() -> impl Strategy<Value = F64I> {
    (any::<f64>(), any::<f64>()).prop_map(|(x, y)| {
        if x.is_nan() || y.is_nan() {
            F64I::from_neg_lo_hi(x, y)
        } else {
            F64I::new(x.min(y), x.max(y)).expect("ordered")
        }
    })
}

fn same(got: F64I, want: F64I) -> bool {
    got.neg_lo().to_bits() == want.neg_lo().to_bits() && got.hi().to_bits() == want.hi().to_bits()
}

/// Checks every `F64Ix4` and `F64Ix2` operation lane-wise against the
/// scalar ops, under the given backend.
fn check_lanes(bk: Backend, a: [F64I; 4], b: [F64I; 4]) -> Result<(), TestCaseError> {
    // Scalar references, computed outside the forced section (scalar ops
    // never dispatch).
    let want_add: Vec<F64I> = (0..4).map(|i| a[i] + b[i]).collect();
    let want_sub: Vec<F64I> = (0..4).map(|i| a[i] - b[i]).collect();
    let want_mul: Vec<F64I> = (0..4).map(|i| a[i] * b[i]).collect();
    let want_div: Vec<F64I> = (0..4).map(|i| a[i] / b[i]).collect();
    let want_fma: Vec<F64I> = (0..4).map(|i| a[i] * b[i] + a[i]).collect();
    let want_sqrt: Vec<F64I> = (0..4).map(|i| a[i].sqrt()).collect();
    let want_abs: Vec<F64I> = (0..4).map(|i| a[i].abs()).collect();
    let want_sqr: Vec<F64I> = (0..4).map(|i| a[i].sqr()).collect();
    let want_relu: Vec<F64I> = (0..4).map(|i| a[i].max_i(&F64I::ZERO)).collect();
    let want_lt: Vec<TBool> = (0..4).map(|i| a[i].cmp_lt(&b[i])).collect();
    let want_le: Vec<TBool> = (0..4).map(|i| a[i].cmp_le(&b[i])).collect();
    let want_eq: Vec<TBool> = (0..4).map(|i| a[i].cmp_eq(&b[i])).collect();
    // The VM's accumulate forms, `acc + a*b` and `acc - a*b` (acc = b).
    let want_acc: [Vec<F64I>; 2] = [
        (0..4).map(|i| b[i] + a[i] * b[i]).collect(),
        (0..4).map(|i| b[i] - a[i] * b[i]).collect(),
    ];
    let got_acc = with_backend(bk, || {
        let (va, vb) = (F64Ix4::from_lanes(a), F64Ix4::from_lanes(b));
        [IntervalOp::MulAdd, IntervalOp::MulSub]
            .map(|op| simd::f64i_op_4(simd::active_backend(), op, &va, &vb, &vb))
    });
    for (k, got) in got_acc.iter().enumerate() {
        // `None` below AVX2+FMA: the VM then composes the two ops.
        if let Some(got) = got {
            for i in 0..4 {
                let ctx = format!("{bk:?} lane {i}: a={} b={}", a[i], b[i]);
                prop_assert!(same(got.lane(i), want_acc[k][i]), "x4 fused acc form {k} {ctx}");
            }
        }
    }
    let (got4, got2, gotu4, gotu2, gotc4, gotc2) = with_backend(bk, || {
        let va = F64Ix4::from_lanes(a);
        let vb = F64Ix4::from_lanes(b);
        let wa = F64Ix2::from_lanes([a[0], a[1]]);
        let wb = F64Ix2::from_lanes([b[0], b[1]]);
        (
            (va + vb, va - vb, va * vb, va / vb, va.mul_add(vb, va), va.reduce_sum()),
            (wa + wb, wa - wb, wa * wb, wa / wb, wa.mul_add(wb, wa)),
            (va.sqrt(), va.abs(), va.sqr(), va.relu()),
            (wa.sqrt(), wa.abs(), wa.sqr(), wa.relu()),
            (va.cmp_lt(vb), va.cmp_le(vb), va.cmp_eq(vb)),
            (wa.cmp_lt(wb), wa.cmp_le(wb), wa.cmp_eq(wb)),
        )
    });
    let want_red = {
        let mut acc = a[0];
        for x in &a[1..] {
            acc = acc + *x;
        }
        acc
    };
    for i in 0..4 {
        let ctx = format!("{bk:?} lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got4.0.lane(i), want_add[i]), "x4 add {ctx}");
        prop_assert!(same(got4.1.lane(i), want_sub[i]), "x4 sub {ctx}");
        prop_assert!(same(got4.2.lane(i), want_mul[i]), "x4 mul {ctx}");
        prop_assert!(same(got4.3.lane(i), want_div[i]), "x4 div {ctx}");
        prop_assert!(same(got4.4.lane(i), want_fma[i]), "x4 mul_add {ctx}");
        prop_assert!(same(gotu4.0.lane(i), want_sqrt[i]), "x4 sqrt {ctx}");
        prop_assert!(same(gotu4.1.lane(i), want_abs[i]), "x4 abs {ctx}");
        prop_assert!(same(gotu4.2.lane(i), want_sqr[i]), "x4 sqr {ctx}");
        prop_assert!(same(gotu4.3.lane(i), want_relu[i]), "x4 relu {ctx}");
        prop_assert!(gotc4.0.lane(i) == want_lt[i], "x4 cmp_lt {ctx}");
        prop_assert!(gotc4.1.lane(i) == want_le[i], "x4 cmp_le {ctx}");
        prop_assert!(gotc4.2.lane(i) == want_eq[i], "x4 cmp_eq {ctx}");
    }
    prop_assert!(same(got4.5, want_red), "x4 reduce_sum {bk:?}");
    for i in 0..2 {
        let ctx = format!("{bk:?} lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got2.0.lane(i), want_add[i]), "x2 add {ctx}");
        prop_assert!(same(got2.1.lane(i), want_sub[i]), "x2 sub {ctx}");
        prop_assert!(same(got2.2.lane(i), want_mul[i]), "x2 mul {ctx}");
        prop_assert!(same(got2.3.lane(i), want_div[i]), "x2 div {ctx}");
        prop_assert!(same(got2.4.lane(i), want_fma[i]), "x2 mul_add {ctx}");
        prop_assert!(same(gotu2.0.lane(i), want_sqrt[i]), "x2 sqrt {ctx}");
        prop_assert!(same(gotu2.1.lane(i), want_abs[i]), "x2 abs {ctx}");
        prop_assert!(same(gotu2.2.lane(i), want_sqr[i]), "x2 sqr {ctx}");
        prop_assert!(same(gotu2.3.lane(i), want_relu[i]), "x2 relu {ctx}");
        prop_assert!(gotc2.0.lane(i) == want_lt[i], "x2 cmp_lt {ctx}");
        prop_assert!(gotc2.1.lane(i) == want_le[i], "x2 cmp_le {ctx}");
        prop_assert!(gotc2.2.lane(i) == want_eq[i], "x2 cmp_eq {ctx}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(800))]

    #[test]
    fn vector_ops_bit_identical_all_backends(
        a0 in iv_any(), a1 in iv_any(), a2 in iv_any(), a3 in iv_any(),
        b0 in iv_any(), b1 in iv_any(), b2 in iv_any(), b3 in iv_any(),
    ) {
        for bk in backends() {
            check_lanes(bk, [a0, a1, a2, a3], [b0, b1, b2, b3])?;
        }
    }
}

/// Deterministic special-endpoint grid, each pair rotated through every
/// lane position on every backend.
#[test]
fn vector_ops_bit_identical_special_grid() {
    let specials = [
        F64I::point(0.0),
        F64I::new(-0.0, 0.0).unwrap(),
        F64I::point(1.0),
        F64I::point(-1.0),
        F64I::point(0.1),
        F64I::new(-2.0, 3.0).unwrap(),
        F64I::new(f64::MIN_POSITIVE, 2.0 * f64::MIN_POSITIVE).unwrap(),
        F64I::new(-f64::from_bits(1), f64::from_bits(1)).unwrap(),
        F64I::new(1e300, f64::MAX).unwrap(),
        F64I::new(-f64::MAX, -1e300).unwrap(),
        F64I::new(f64::NEG_INFINITY, f64::INFINITY).unwrap(),
        F64I::new(1.0, f64::INFINITY).unwrap(),
        F64I::NAI,
        F64I::from_neg_lo_hi(f64::NAN, 1.0),
        F64I::ENTIRE,
    ];
    let benign = F64I::new(1.0, 2.0).unwrap();
    for bk in backends() {
        for &x in &specials {
            for &y in &specials {
                for pos in 0..4 {
                    let mut a = [benign; 4];
                    let mut b = [benign; 4];
                    a[pos] = x;
                    b[pos] = y;
                    if let Err(e) = check_lanes(bk, a, b) {
                        panic!("special grid ({x}, {y}) pos {pos}: {e:?}");
                    }
                }
            }
        }
    }
}

thread_local! {
    /// The lane-valid mask the last fused call handed to its patch hook
    /// (`None`: the hook did not run, every lane stayed packed).
    static PATCHED: Cell<Option<u8>> = const { Cell::new(None) };
}

/// Four raw f64 intervals whose patch hook records the kernel's mask and
/// recomputes the failing lanes with the scalar op, so the fused kernels'
/// guard decisions are observable from outside.
#[derive(Clone, Copy, Debug)]
struct Spy {
    n: [f64; 4],
    h: [f64; 4],
}

impl Spy {
    fn new(xs: [F64I; 4]) -> Spy {
        Spy { n: xs.map(|x| x.neg_lo()), h: xs.map(|x| x.hi()) }
    }

    fn lane(&self, i: usize) -> F64I {
        F64I::from_neg_lo_hi(self.n[i], self.h[i])
    }
}

impl simd::F64Cols4 for Spy {
    fn neg_lo4(&self) -> &[f64; 4] {
        &self.n
    }
    fn hi4(&self) -> &[f64; 4] {
        &self.h
    }
    fn from_cols4(n: [f64; 4], h: [f64; 4]) -> Spy {
        Spy { n, h }
    }
    fn patch_lanes(op: IntervalOp, ok: u8, a: &Spy, b: &Spy, acc: &Spy, out: &mut Spy) {
        PATCHED.with(|p| p.set(Some(ok)));
        for i in (0..4).filter(|i| ok >> i & 1 == 0) {
            let r = scalar_f64_op(op, a.lane(i), b.lane(i), acc.lane(i));
            (out.n[i], out.h[i]) = (r.neg_lo(), r.hi());
        }
    }
}

fn scalar_f64_op(op: IntervalOp, a: F64I, b: F64I, acc: F64I) -> F64I {
    match op {
        IntervalOp::Add => a + b,
        IntervalOp::Sub => a - b,
        IntervalOp::Mul => a * b,
        IntervalOp::Div => a / b,
        IntervalOp::Sqr => a.sqr(),
        IntervalOp::MulAdd => acc + a * b,
        IntervalOp::MulSub => acc - a * b,
    }
}

/// Guard witnesses for the fused f64 kernels: operand triples `(a, b,
/// acc)` that must (`true`) or must not (`false`) reach the scalar patch,
/// one per guard family, in lane 0 next to three benign lanes. Every
/// witness result must also equal the scalar op.
#[test]
fn f64_guard_witnesses_reach_the_patch_path() {
    use IntervalOp::*;
    let iv = |lo: f64, hi: f64| F64I::new(lo, hi).expect("ordered");
    let pt = F64I::point;
    let (big, tiny, sub) = (1.4e154, 1.5e-146, f64::from_bits(1));
    let one = pt(1.0);
    #[rustfmt::skip]
    let witnesses: &[(&str, IntervalOp, F64I, F64I, F64I, bool)] = &[
        ("ordinary sum stays packed", Add, pt(0.1), iv(1.0, 3.0), one, false),
        ("ordinary difference stays packed", Sub, pt(0.1), iv(1.0, 3.0), one, false),
        ("zero-straddling operands multiply packed", Mul, iv(-2.0, 3.0), iv(-0.5, 0.25), one, false),
        ("exact zero products from zero endpoints stay packed", Mul, iv(0.0, 1.0), iv(-0.0, 2.0), one, false),
        ("ordinary quotient stays packed", Div, pt(1.0), iv(3.0, 7.0), one, false),
        ("negative divisor stays packed", Div, iv(-2.0, 3.0), iv(-7.0, -3.0), one, false),
        ("straddling square stays packed", Sqr, iv(-2.0, 3.0), one, one, false),
        ("square of zero stays packed", Sqr, pt(0.0), one, one, false),
        ("ordinary multiply-add stays packed", MulAdd, pt(0.1), pt(3.0), iv(-1.0, 1.0), false),
        ("ordinary multiply-sub stays packed", MulSub, pt(0.1), pt(3.0), iv(-1.0, 1.0), false),
        ("add_ru: sum overflows", Add, pt(f64::MAX), pt(f64::MAX), one, true),
        ("add_ru: infinite endpoint", Add, iv(1.0, f64::INFINITY), one, one, true),
        ("add: NaN endpoint", Add, F64I::NAI, one, one, true),
        ("sub: NaN endpoint", Sub, one, F64I::from_neg_lo_hi(f64::NAN, 1.0), one, true),
        ("mul_ru: product overflows", Mul, pt(big), pt(big), one, true),
        ("mul_ru: product below the exact-residual range", Mul, pt(tiny), pt(tiny), one, true),
        ("mul_ru: subnormal endpoint", Mul, pt(sub), pt(0.5), one, true),
        ("mul_ru: infinite endpoint", Mul, iv(1.0, f64::INFINITY), pt(2.0), one, true),
        ("mul_ru: zero times infinity", Mul, pt(0.0), iv(1.0, f64::INFINITY), one, true),
        ("mul: NaN endpoint", Mul, F64I::NAI, one, one, true),
        ("div: zero-straddling divisor", Div, one, iv(-1.0, 1.0), one, true),
        ("div: zero divisor", Div, one, pt(0.0), one, true),
        ("div: NaN endpoint", Div, one, F64I::NAI, one, true),
        ("div_ru: dividend below the exact range", Div, iv(0.0, 1.0), pt(3.0), one, true),
        ("div_ru: quotient underflows", Div, pt(1e-300), pt(1e300), one, true),
        ("div_ru: quotient overflows", Div, pt(1e300), pt(1e-300), one, true),
        ("sqr: NaN endpoint", Sqr, F64I::NAI, one, one, true),
        ("sqr: square overflows", Sqr, iv(1.0, big), one, one, true),
        ("sqr: square below the exact-residual range", Sqr, iv(tiny, 1.0), one, one, true),
        ("mul_add: product stage fails", MulAdd, pt(tiny), pt(tiny), one, true),
        ("mul_add: accumulate stage overflows", MulAdd, one, pt(f64::MAX), pt(f64::MAX), true),
        ("mul_sub: accumulate stage overflows", MulSub, one, pt(f64::MAX), pt(-f64::MAX), true),
    ];
    let _guard = BACKEND_LOCK.lock().unwrap();
    if simd::detected_backend() != Backend::Avx2Fma {
        eprintln!("no AVX2+FMA on this host: the fused f64 kernels do not run");
        return;
    }
    let benign = iv(1.0, 2.0);
    for &(what, op, x, y, z, patched) in witnesses {
        let (a, b, acc) = (
            Spy::new([x, benign, benign, benign]),
            Spy::new([y, benign, benign, benign]),
            Spy::new([z, benign, benign, benign]),
        );
        PATCHED.with(|p| p.set(None));
        let got = simd::f64i_op_4(Backend::Avx2Fma, op, &a, &b, &acc).expect("packed host");
        let ok = PATCHED.with(Cell::get).unwrap_or(0b1111);
        assert_eq!(ok >> 1, 0b111, "{what}: benign lanes must stay packed");
        assert_eq!(ok & 1 == 0, patched, "{what}: lane-valid bit");
        for i in 0..4 {
            let want = scalar_f64_op(op, a.lane(i), b.lane(i), acc.lane(i));
            assert!(same(got.lane(i), want), "{what}: lane {i} packed vs scalar");
        }
    }
    // `F64Ix2` pads its two spare lanes with `[1, 1]`; they must never
    // reach the patch path.
    let pad = Spy::new([pt(0.3), one, one, one]);
    for op in [Add, Sub, Mul, Div, Sqr, MulAdd, MulSub] {
        PATCHED.with(|p| p.set(None));
        let _ = simd::f64i_op_4(Backend::Avx2Fma, op, &pad, &pad, &pad);
        assert_eq!(PATCHED.with(Cell::get), None, "{op:?}: padding lanes must stay packed");
    }
}

// ---------------------------------------------------------------------
// Double-double lanes.
// ---------------------------------------------------------------------

fn dd_bits(x: &DdI) -> [u64; 4] {
    let (n, h) = (x.neg_lo(), x.hi());
    [n.hi().to_bits(), n.lo().to_bits(), h.hi().to_bits(), h.lo().to_bits()]
}

/// A double-double value with a trailing component of relative size
/// `f * 2^-54` (renormalized), or the plain `f64` for non-finite `h`.
fn dd_tail(h: f64, f: f64) -> Dd {
    if h.is_finite() {
        Dd::new(h, h * f * f64::EPSILON / 4.0)
    } else {
        Dd::from(h)
    }
}

/// Double-double values: full-range `f64`s (`lo == 0`, specials
/// included), full-range values with a trailing component, and
/// moderate-magnitude ones (the hot-path bulk of real workloads).
fn dd_val() -> impl Strategy<Value = Dd> {
    prop_oneof![
        1 => any::<f64>().prop_map(Dd::from),
        1 => (any::<f64>(), -1.0f64..1.0).prop_map(|(h, f)| dd_tail(h, f)),
        2 => (-8.0f64..8.0, -1.0f64..1.0).prop_map(|(h, f)| dd_tail(h, f)),
    ]
}

/// An interval from two dd values: ordered when both are numbers, the
/// raw (possibly NaN) pair otherwise.
fn ddi_from(x: Dd, y: Dd) -> DdI {
    match x.cmp_num(&y) {
        None => DdI::from_neg_lo_hi(x.neg(), y),
        Some(core::cmp::Ordering::Greater) => DdI::new(y, x).expect("ordered"),
        Some(_) => DdI::new(x, y).expect("ordered"),
    }
}

fn ddi_any() -> impl Strategy<Value = DdI> {
    (dd_val(), dd_val()).prop_map(|(x, y)| ddi_from(x, y))
}

/// Checks every packed `DdIx4`/`DdIx2` operation lane-wise against the
/// scalar `DdI` ops, under the given backend.
fn check_dd_lanes(bk: Backend, a: [DdI; 4], b: [DdI; 4]) -> Result<(), String> {
    type Ops = [fn(DdI, DdI) -> DdI; 7];
    const OPS: Ops = [
        |x, y| x + y,
        |x, y| x - y,
        |x, y| x * y,
        |x, y| x / y,
        |x, _| x.sqr(),
        |x, y| x * y + x,
        |x, y| x - x * y,
    ];
    const NAMES: [&str; 7] = ["add", "sub", "mul", "div", "sqr", "mul_add", "mul_sub"];
    let want: Vec<[DdI; 4]> =
        OPS.iter().map(|op| core::array::from_fn(|i| op(a[i], b[i]))).collect();
    let (got4, got2) = with_backend(bk, || {
        let (va, vb) = (DdIx4::from_lanes(a), DdIx4::from_lanes(b));
        let (wa, wb) = (DdIx2::from_lanes([a[0], a[1]]), DdIx2::from_lanes([b[0], b[1]]));
        let got4 = [va + vb, va - vb, va * vb, va / vb, va.sqr(), va.mul_add(vb, va), va - va * vb];
        let got2 = [wa + wb, wa - wb, wa * wb, wa / wb, wa.sqr(), wa.mul_add(wb, wa), wa - wa * wb];
        (got4, got2)
    });
    for (k, name) in NAMES.iter().enumerate() {
        for i in 0..4 {
            if dd_bits(&got4[k].lane(i)) != dd_bits(&want[k][i]) {
                return Err(format!(
                    "{bk:?} ddx4 {name} lane {i}: a={:?} b={:?}: got {:?} want {:?}",
                    a[i],
                    b[i],
                    got4[k].lane(i),
                    want[k][i]
                ));
            }
        }
        for i in 0..2 {
            if dd_bits(&got2[k].lane(i)) != dd_bits(&want[k][i]) {
                return Err(format!("{bk:?} ddx2 {name} lane {i}: a={:?} b={:?}", a[i], b[i]));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn dd_vector_ops_bit_identical_all_backends(
        a0 in ddi_any(), a1 in ddi_any(), a2 in ddi_any(), a3 in ddi_any(),
        b0 in ddi_any(), b1 in ddi_any(), b2 in ddi_any(), b3 in ddi_any(),
    ) {
        for bk in backends() {
            let r = check_dd_lanes(bk, [a0, a1, a2, a3], [b0, b1, b2, b3]);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}

fn pt(x: f64) -> DdI {
    DdI::point_f64(x)
}

fn iv(lo: f64, hi: f64) -> DdI {
    DdI::new(Dd::from(lo), Dd::from(hi)).expect("ordered")
}

/// A point interval with a nonzero trailing component.
fn pt_tail(x: f64) -> DdI {
    DdI::point(dd_tail(x, 0.75))
}

/// The special-value grid: NaN, ±∞, ±0, subnormals, `lo == 0` values,
/// products around `FMA_RESIDUAL_EXACT_MIN` (≈2.5e-291) and `f64::MAX`,
/// and zero-straddling divisors.
fn dd_special_grid() -> Vec<DdI> {
    let sub = f64::from_bits(1);
    vec![
        pt(0.0),
        pt(-0.0),
        iv(-0.0, 0.0),
        pt(1.0),
        pt(-1.0),
        pt(0.1),
        pt_tail(0.1),
        pt_tail(-3.0),
        iv(-2.0, 3.0),
        iv(-1.0, 0.0),
        iv(0.0, 1.0),
        iv(0.5, 2.0),
        iv(-2.0, -0.5),
        pt(sub),
        iv(-sub, sub),
        pt(f64::MIN_POSITIVE),
        pt(f64::from_bits(0x000f_ffff_ffff_ffff)),
        pt(1.6e-145),
        pt_tail(1.6e-145),
        pt(1.5e-146),
        pt(1e-300),
        pt(1.3e154),
        pt(1.4e154),
        pt_tail(1.3e154),
        iv(1e300, f64::MAX),
        pt(-f64::MAX),
        pt(f64::INFINITY),
        iv(1.0, f64::INFINITY),
        iv(f64::NEG_INFINITY, f64::INFINITY),
        DdI::nai(),
        DdI::from_neg_lo_hi(Dd::NAN, Dd::from(1.0)),
        DdI::from_neg_lo_hi(Dd::from(-1.0), Dd::from(f64::NAN)),
    ]
}

/// Every special pair, rotated through every lane position, on every
/// backend (the detected one and the forced narrower ones).
#[test]
fn dd_vector_ops_bit_identical_special_grid() {
    let grid = dd_special_grid();
    let benign = iv(1.0, 2.0);
    for bk in backends() {
        for &x in &grid {
            for &y in &grid {
                for pos in 0..4 {
                    let mut a = [benign; 4];
                    let mut b = [benign; 4];
                    a[pos] = x;
                    b[pos] = y;
                    if let Err(e) = check_dd_lanes(bk, a, b) {
                        panic!("special grid ({x}, {y}) pos {pos}: {e}");
                    }
                }
            }
        }
    }
}

/// Column form of four intervals, as the packed kernels take them.
fn cols(xs: [DdI; 4]) -> simd::DdCols4 {
    simd::DdCols4 {
        neg_lo_hi: xs.map(|x| x.neg_lo().hi()),
        neg_lo_lo: xs.map(|x| x.neg_lo().lo()),
        hi_hi: xs.map(|x| x.hi().hi()),
        hi_lo: xs.map(|x| x.hi().lo()),
    }
}

/// Guard witnesses: operand pairs that must (`patched == true`) or must
/// not (`false`) fail a packed DD kernel's lane-valid mask, one per
/// guard family. Each witness also runs through the lane types and
/// must match the scalar op, so the patch path itself is exercised.
#[test]
fn dd_guard_witnesses_reach_the_patch_path() {
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Add,
        Mul,
        Div,
        Sqr,
    }
    let big = 1.4e154; // big² overflows past f64::MAX
    let tiny = 1.5e-146; // tiny² lands below FMA_RESIDUAL_EXACT_MIN
    #[rustfmt::skip]
    let witnesses: &[(&str, Op, DdI, DdI, bool)] = &[
        ("f64-valued operands (lo == 0) stay packed", Op::Mul, pt(0.1), pt(3.0), false),
        ("exact zero product from a zero operand", Op::Mul, pt(0.0), pt_tail(0.3), false),
        ("zero-straddling operands multiply packed", Op::Mul, iv(-2.0, 3.0), iv(-0.5, 0.25), false),
        ("dd operands with tails stay packed", Op::Div, pt_tail(0.1), pt_tail(3.0), false),
        ("straddling square stays packed", Op::Sqr, iv(-2.0, 3.0), pt(1.0), false),
        ("f64-valued quotient stays packed", Op::Div, pt(1.0), pt(3.0), false),
        ("add_ru: sum overflows", Op::Add, pt(f64::MAX), pt(f64::MAX), true),
        ("add_ru: infinite operand", Op::Add, pt(f64::INFINITY), pt(1.0), true),
        ("add: NaN operand", Op::Add, DdI::nai(), pt(1.0), true),
        ("mul_ru: product overflows", Op::Mul, pt(big), pt(big), true),
        ("mul_ru: product below the exact-residual range", Op::Mul, pt(tiny), pt(tiny), true),
        ("mul_ru/fma_ru: trailing terms below the exact-residual range", Op::Mul, pt_tail(1.6e-145), pt_tail(1.6e-145), true),
        ("mul: subnormal operand", Op::Mul, pt(f64::from_bits(1)), pt(0.5), true),
        ("div: zero-straddling divisor", Op::Div, pt(1.0), iv(-1.0, 1.0), true),
        ("div: zero divisor", Op::Div, pt(1.0), pt(0.0), true),
        ("div: NaN operand", Op::Div, pt(1.0), DdI::nai(), true),
        ("div_rn: quotient underflows to zero", Op::Div, pt(1e-300), pt(1e300), true),
        ("div_rn: quotient overflows", Op::Div, pt(1e300), pt(1e-300), true),
        ("div: zero dividend", Op::Div, pt(0.0), pt(3.0), true),
        ("sqr: NaN endpoint", Op::Sqr, DdI::nai(), pt(1.0), true),
        ("sqr: square overflows", Op::Sqr, iv(1.0, big), pt(1.0), true),
    ];
    let _guard = BACKEND_LOCK.lock().unwrap();
    let packed = simd::detected_backend() == Backend::Avx2Fma;
    for &(what, op, x, y, patched) in witnesses {
        let benign = iv(1.0, 2.0);
        let (a, b) = ([x, benign, benign, benign], [y, benign, benign, benign]);
        if packed {
            let (ca, cb) = (cols(a), cols(b));
            let bk = Backend::Avx2Fma;
            let (_, ok) = match op {
                Op::Add => simd::ddi_add_4(bk, &ca, &cb),
                Op::Mul => simd::ddi_mul_4(bk, &ca, &cb),
                Op::Div => simd::ddi_div_4(bk, &ca, &cb),
                Op::Sqr => simd::ddi_sqr_4(bk, &ca),
            }
            .expect("AVX2+FMA host runs the packed kernels");
            assert_eq!(ok >> 1, 0b111, "{what}: benign lanes must stay packed");
            assert_eq!(ok & 1 == 0, patched, "{what}: lane-valid bit");
        }
        let (va, vb) = (DdIx4::from_lanes(a), DdIx4::from_lanes(b));
        let (got, want) = match op {
            Op::Add => ((va + vb).lane(0), x + y),
            Op::Mul => ((va * vb).lane(0), x * y),
            Op::Div => ((va / vb).lane(0), x / y),
            Op::Sqr => (va.sqr().lane(0), x.sqr()),
        };
        assert_eq!(dd_bits(&got), dd_bits(&want), "{what}: packed vs scalar");
    }
    if packed {
        // `DdIx2` pads its two spare lanes with `DdI::ONE`; they must
        // never reach the patch path.
        let pad = cols([pt(0.3), DdI::ONE, DdI::ONE, DdI::ONE]);
        let bk = Backend::Avx2Fma;
        for out in [
            simd::ddi_add_4(bk, &pad, &pad),
            simd::ddi_add_4(bk, &pad, &pad.swapped()),
            simd::ddi_mul_4(bk, &pad, &pad),
            simd::ddi_div_4(bk, &pad, &pad),
            simd::ddi_sqr_4(bk, &pad),
        ] {
            assert_eq!(out.expect("packed").1, 0b1111, "padding lanes must stay packed");
        }
    } else {
        eprintln!("no AVX2+FMA on this host: guard witnesses checked on the lane loop only");
    }
}
