//! Special-value lane coverage for the vector types with the portable
//! fallback pinned.
//!
//! This suite is deliberately independent of the SIMD bit-identity
//! tests: it forces `Backend::Portable` for every check, so the
//! lane-loop fallback's handling of NaN, infinite, subnormal and
//! signed-zero endpoints is pinned on every host — including ones where
//! no packed backend exists and `simd_bitident` would only ever see the
//! portable path incidentally. It also covers the `DdIx2`/`DdIx4` lane
//! types, whose packed double-double kernels exist only on AVX2+FMA: the
//! pinned portable backend keeps them on their scalar lane loop here
//! (`simd_bitident` covers the packed path).
//!
//! The backend override is process-global, so every pinned section takes
//! a mutex; no other test in this binary touches the lane types outside
//! of it.

use igen_interval::{DdI, DdIx2, DdIx4, F64Ix2, F64Ix4, LaneOps, F64I};
use igen_round::simd::{self, Backend};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes `force_backend` sections (the override is process-global).
static PIN_LOCK: Mutex<()> = Mutex::new(());

fn pinned_portable<T>(f: impl FnOnce() -> T) -> T {
    let _guard = PIN_LOCK.lock().unwrap();
    simd::force_backend(Some(Backend::Portable));
    let out = f();
    simd::force_backend(None);
    out
}

fn same(got: F64I, want: F64I) -> bool {
    got.neg_lo().to_bits() == want.neg_lo().to_bits() && got.hi().to_bits() == want.hi().to_bits()
}

/// Endpoint catalogue skewed towards IEEE edge cases.
fn special_endpoint() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(-1.5),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::MIN_POSITIVE),
        Just(-f64::MIN_POSITIVE),
        Just(f64::from_bits(1)),
        Just(-f64::from_bits(1)),
        Just(f64::from_bits(0x000f_ffff_ffff_ffff)),
        Just(f64::MAX),
        Just(-f64::MAX),
        any::<f64>(),
    ]
}

/// Intervals whose endpoints come from the special catalogue.
fn iv_special() -> impl Strategy<Value = F64I> {
    (special_endpoint(), special_endpoint()).prop_map(|(x, y)| {
        if x.is_nan() || y.is_nan() {
            F64I::from_neg_lo_hi(x, y)
        } else {
            F64I::new(x.min(y), x.max(y)).expect("ordered")
        }
    })
}

fn check_portable(a: [F64I; 4], b: [F64I; 4]) -> Result<(), TestCaseError> {
    let got = pinned_portable(|| {
        let va = F64Ix4::from_lanes(a);
        let vb = F64Ix4::from_lanes(b);
        let wa = F64Ix2::from_lanes([a[0], a[1]]);
        let wb = F64Ix2::from_lanes([b[0], b[1]]);
        (
            (va + vb, va - vb, va * vb, va / vb, va.mul_add(vb, va), -va),
            (va.sqrt(), va.abs(), va.sqr(), va.relu()),
            (va.cmp_lt(vb), va.cmp_le(vb), va.cmp_eq(vb)),
            (wa + wb, wa * wb, wa / wb, wa.sqrt(), wa.abs(), wa.sqr()),
        )
    });
    for i in 0..4 {
        let ctx = format!("portable lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got.0 .0.lane(i), a[i] + b[i]), "x4 add {ctx}");
        prop_assert!(same(got.0 .1.lane(i), a[i] - b[i]), "x4 sub {ctx}");
        prop_assert!(same(got.0 .2.lane(i), a[i] * b[i]), "x4 mul {ctx}");
        prop_assert!(same(got.0 .3.lane(i), a[i] / b[i]), "x4 div {ctx}");
        prop_assert!(same(got.0 .4.lane(i), a[i] * b[i] + a[i]), "x4 mul_add {ctx}");
        prop_assert!(same(got.0 .5.lane(i), -a[i]), "x4 neg {ctx}");
        prop_assert!(same(got.1 .0.lane(i), a[i].sqrt()), "x4 sqrt {ctx}");
        prop_assert!(same(got.1 .1.lane(i), a[i].abs()), "x4 abs {ctx}");
        prop_assert!(same(got.1 .2.lane(i), a[i].sqr()), "x4 sqr {ctx}");
        prop_assert!(same(got.1 .3.lane(i), a[i].max_i(&F64I::ZERO)), "x4 relu {ctx}");
        prop_assert!(got.2 .0.lane(i) == a[i].cmp_lt(&b[i]), "x4 cmp_lt {ctx}");
        prop_assert!(got.2 .1.lane(i) == a[i].cmp_le(&b[i]), "x4 cmp_le {ctx}");
        prop_assert!(got.2 .2.lane(i) == a[i].cmp_eq(&b[i]), "x4 cmp_eq {ctx}");
    }
    for i in 0..2 {
        let ctx = format!("portable lane {i}: a={} b={}", a[i], b[i]);
        prop_assert!(same(got.3 .0.lane(i), a[i] + b[i]), "x2 add {ctx}");
        prop_assert!(same(got.3 .1.lane(i), a[i] * b[i]), "x2 mul {ctx}");
        prop_assert!(same(got.3 .2.lane(i), a[i] / b[i]), "x2 div {ctx}");
        prop_assert!(same(got.3 .3.lane(i), a[i].sqrt()), "x2 sqrt {ctx}");
        prop_assert!(same(got.3 .4.lane(i), a[i].abs()), "x2 abs {ctx}");
        prop_assert!(same(got.3 .5.lane(i), a[i].sqr()), "x2 sqr {ctx}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn portable_lane_ops_match_scalar_on_special_lanes(
        a0 in iv_special(), a1 in iv_special(), a2 in iv_special(), a3 in iv_special(),
        b0 in iv_special(), b1 in iv_special(), b2 in iv_special(), b3 in iv_special(),
    ) {
        check_portable([a0, a1, a2, a3], [b0, b1, b2, b3])?;
    }
}

/// Soundness shape checks the portable path must preserve on special
/// lanes: NaN endpoints poison only their own lane, and an interval
/// straddling zero makes only its own division lane unbounded/NaN.
#[test]
fn portable_special_lanes_stay_isolated() {
    let benign = F64I::new(2.0, 3.0).unwrap();
    for pos in 0..4 {
        let mut a = [benign; 4];
        a[pos] = F64I::NAI;
        let (sum, quot) = pinned_portable(|| {
            let va = F64Ix4::from_lanes(a);
            let vb = F64Ix4::splat(benign);
            (va + vb, vb / va)
        });
        for i in 0..4 {
            assert_eq!(sum.lane(i).has_nan(), i == pos, "add lane {i}, NaN at {pos}");
            assert_eq!(quot.lane(i).has_nan(), i == pos, "div lane {i}, NaN at {pos}");
        }

        let mut d = [benign; 4];
        d[pos] = F64I::new(-1.0, 1.0).unwrap();
        let quot = pinned_portable(|| F64Ix4::splat(benign) / F64Ix4::from_lanes(d));
        for i in 0..4 {
            let q = quot.lane(i);
            if i == pos {
                assert!(
                    q.hi().is_infinite() || q.has_nan(),
                    "zero-straddling divisor lane must be unbounded, got {q}"
                );
            } else {
                assert!(same(q, benign / benign), "lane {i} contaminated: {q}");
            }
        }
    }
}

/// Double-double lane types: lane ops match scalar `DdI` ops bit for bit
/// on special values too, with the portable lane loop pinned (the packed
/// DD kernels are pinned by `simd_bitident`).
#[test]
fn dd_lane_ops_match_scalar_on_special_values() {
    fn dd_bits(x: &DdI) -> [u64; 4] {
        [
            x.neg_lo().hi().to_bits(),
            x.neg_lo().lo().to_bits(),
            x.hi().hi().to_bits(),
            x.hi().lo().to_bits(),
        ]
    }
    let vals = [
        DdI::point_f64(0.0),
        DdI::point_f64(-0.0),
        DdI::point_f64(1.0),
        DdI::point_f64(0.1),
        DdI::point_f64(f64::MIN_POSITIVE),
        DdI::point_f64(f64::from_bits(1)),
        DdI::point_f64(1e300),
        DdI::point_f64(f64::INFINITY),
        DdI::point_f64(f64::NAN),
    ];
    for &x in &vals {
        for &y in &vals {
            for pos in 0..4 {
                let benign = DdI::point_f64(2.0);
                let mut a = [benign; 4];
                let mut b = [benign; 4];
                a[pos] = x;
                b[pos] = y;
                let va = DdIx4::from_lanes(a);
                let vb = DdIx4::from_lanes(b);
                let wa = DdIx2::from_lanes([a[0], a[1]]);
                let wb = DdIx2::from_lanes([b[0], b[1]]);
                let ((s4, p4), (s2, p2), (q4, m4, r4), (lt4, le4, eq4)) = pinned_portable(|| {
                    (
                        (va + vb, va * vb),
                        (wa + wb, wa * wb),
                        (va.sqrt(), va.abs(), va.sqr()),
                        (va.cmp_lt(vb), va.cmp_le(vb), va.cmp_eq(vb)),
                    )
                });
                for i in 0..4 {
                    assert_eq!(dd_bits(&s4.lane(i)), dd_bits(&(a[i] + b[i])), "ddx4 add lane {i}");
                    assert_eq!(dd_bits(&p4.lane(i)), dd_bits(&(a[i] * b[i])), "ddx4 mul lane {i}");
                    assert_eq!(dd_bits(&q4.lane(i)), dd_bits(&a[i].sqrt()), "ddx4 sqrt lane {i}");
                    assert_eq!(dd_bits(&m4.lane(i)), dd_bits(&a[i].abs()), "ddx4 abs lane {i}");
                    assert_eq!(dd_bits(&r4.lane(i)), dd_bits(&a[i].sqr()), "ddx4 sqr lane {i}");
                    assert_eq!(lt4.lane(i), a[i].cmp_lt(&b[i]), "ddx4 cmp_lt lane {i}");
                    assert_eq!(le4.lane(i), a[i].cmp_le(&b[i]), "ddx4 cmp_le lane {i}");
                    assert_eq!(eq4.lane(i), a[i].cmp_eq(&b[i]), "ddx4 cmp_eq lane {i}");
                }
                for i in 0..2 {
                    assert_eq!(dd_bits(&s2.lane(i)), dd_bits(&(a[i] + b[i])), "ddx2 add lane {i}");
                    assert_eq!(dd_bits(&p2.lane(i)), dd_bits(&(a[i] * b[i])), "ddx2 mul lane {i}");
                }
            }
        }
    }
}
