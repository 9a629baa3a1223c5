//! End-to-end tests of the IR optimization pipeline: `-O2` must shrink
//! the static interval op count on the paper kernels while leaving every
//! interval endpoint bit-identical — checked both by the built-in
//! differential pass verifier (`verify_passes`) and independently here
//! by executing the printed `-O0` and `-O2` C through the reference
//! interpreter on random inputs.

use igen::compiler::{Compiler, Config, OptLevel};
use igen::interp::{Interp, Value};
use igen::interval::F64I;
use proptest::prelude::*;
use std::path::PathBuf;

fn golden_input(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("inputs")
        .join(format!("{name}.c"));
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn at_level(level: OptLevel) -> Config {
    Config { opt_level: level, verify_passes: true, ..Config::default() }
}

/// Acceptance criterion of the pass pipeline: `-O2` reduces the static
/// interval op count on at least three paper kernels, never increases
/// it, and every exact pass survives differential verification.
#[test]
fn o2_reduces_op_count_on_paper_kernels() {
    let mut reduced = Vec::new();
    for name in ["horner", "euclid", "sigmoid", "rnorm", "henon", "fig2"] {
        let src = golden_input(name);
        let out = Compiler::new(at_level(OptLevel::O2))
            .compile_str(&src)
            .unwrap_or_else(|e| panic!("compile {name} at -O2: {e}"));
        let (before, after) = (out.opt_report.ops_before(), out.opt_report.ops_after());
        assert!(after <= before, "{name}: -O2 increased op count {before} -> {after}");
        if after < before {
            reduced.push((name, before, after));
        }
    }
    assert!(
        reduced.len() >= 3,
        "-O2 reduced the op count on only {} kernels (need >= 3): {reduced:?}",
        reduced.len()
    );
}

/// At `-O0` the pipeline must be a no-op on unannotated kernels: no pass
/// reports a change, so the op count is preserved exactly.
#[test]
fn o0_pipeline_is_a_no_op_without_reductions() {
    for name in ["horner", "euclid", "sigmoid", "rnorm", "henon", "fig2"] {
        let out = Compiler::new(at_level(OptLevel::O0)).compile_str(&golden_input(name)).unwrap();
        assert!(!out.opt_report.changed(), "{name}: -O0 pipeline changed the IR");
        assert_eq!(out.opt_report.ops_before(), out.opt_report.ops_after(), "{name}");
    }
}

/// The reduction rewrite runs at every level, `-O0` included: it
/// implements `#pragma igen reduce` and is part of the language.
#[test]
fn reductions_still_rewrite_at_o0_and_o2() {
    let src = golden_input("dot_reduce");
    for level in [OptLevel::O0, OptLevel::O2] {
        let cfg = Config { reductions: true, ..at_level(level) };
        let out = Compiler::new(cfg).compile_str(&src).unwrap();
        assert_eq!(out.reductions.len(), 1, "{level:?}");
        assert!(out.c_source.contains("acc_f64 acc1;"), "{level:?}:\n{}", out.c_source);
        assert!(out.c_source.contains("isum_accumulate_f64"), "{level:?}:\n{}", out.c_source);
    }
}

fn interval(lo: f64, w: f64) -> Value {
    Value::Interval(F64I::new(lo, lo + w).unwrap())
}

fn run(c_source: &str, args: &[Value]) -> Result<Value, String> {
    let unit = igen::cfront::parse(c_source).expect("reparse printed C");
    Interp::new(&unit).call("f", args.to_vec()).map_err(|e| e.to_string())
}

fn assert_bit_identical(r0: &Result<Value, String>, r2: &Result<Value, String>, ctx: &str) {
    match (r0, r2) {
        (Ok(Value::Interval(x)), Ok(Value::Interval(y))) => {
            assert!(
                x.lo().to_bits() == y.lo().to_bits() && x.hi().to_bits() == y.hi().to_bits(),
                "{ctx}: endpoints diverge: -O0 [{:?}, {:?}] vs -O2 [{:?}, {:?}]",
                x.lo(),
                x.hi(),
                y.lo(),
                y.hi()
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: different runtime exceptions"),
        _ => panic!("{ctx}: outcome kinds diverge: -O0 {r0:?} vs -O2 {r2:?}"),
    }
}

/// A random arithmetic expression over the parameters `a`, `b`, `c` and
/// small literals. Depth-bounded; every operator folds and CSEs.
fn expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("0.25".to_string()),
        Just("1.5".to_string()),
        Just("2.0".to_string()),
        Just("3.0".to_string()),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} + {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} - {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} * {r})")),
            inner.clone().prop_map(|e| format!("sqrt(fabs({e}))")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs: `-O0` and `-O2` produce bit-identical interval
    /// endpoints (or the identical runtime exception) under the
    /// reference interpreter. The duplicated subexpressions guarantee
    /// the CSE/fold/dce passes actually fire.
    #[test]
    fn o0_and_o2_endpoints_bit_identical(
        e1 in expr(),
        e2 in expr(),
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -2.0f64..2.0,
        w in 0.0f64..0.125,
    ) {
        let src = format!(
            "double f(double a, double b, double c) {{\n\
             \x20   double u = ({e1}) + ({e2});\n\
             \x20   double v = ({e2}) * (({e1}) + ({e1}));\n\
             \x20   return u - v;\n\
             }}\n"
        );
        let o0 = Compiler::new(at_level(OptLevel::O0)).compile_str(&src).unwrap();
        let o2 = Compiler::new(at_level(OptLevel::O2)).compile_str(&src).unwrap();
        prop_assert!(
            o2.opt_report.ops_after() <= o0.opt_report.ops_after(),
            "-O2 emitted more ops than -O0"
        );
        let args = [interval(a, w), interval(b, w), interval(c, w)];
        let r0 = run(&o0.c_source, &args);
        let r2 = run(&o2.c_source, &args);
        assert_bit_identical(&r0, &r2, &src);
    }
}

/// Source locals named like the compiler's temporaries (`t0`, `t1`, …)
/// must not be confused with them: the temporaries move to a
/// collision-free prefix, and `-O1`/`-O2` stay bit-identical to `-O0`
/// under the reference interpreter — including when the `t<N>` locals
/// are reassigned in a loop, which SSA temporaries never are.
#[test]
fn t_named_locals_do_not_collide_with_temporaries() {
    let src = "double f(double a, double b, double c) {\n\
               \x20   double t0 = 0.125 * a;\n\
               \x20   double t1 = t0 * b + 0.5;\n\
               \x20   double t2 = t1 * t1 - t0;\n\
               \x20   double t3 = t2 + 0.25 * t1;\n\
               \x20   for (int i = 0; i < 3; i++) {\n\
               \x20       t1 = t1 * t0 + c;\n\
               \x20       t3 = t3 - t1 * t2;\n\
               \x20   }\n\
               \x20   return t3 * t0 + t1;\n\
               }\n";
    let o0 = Compiler::new(at_level(OptLevel::O0)).compile_str(src).unwrap();
    assert!(
        o0.c_source.contains("f64i t_1 = "),
        "temporaries keep clear of t<N>:\n{}",
        o0.c_source
    );
    for level in [OptLevel::O1, OptLevel::O2] {
        let out = Compiler::new(at_level(level)).compile_str(src).unwrap();
        for (a, b, c) in [(1.0, 2.0, 0.5), (-1.5, 0.25, 3.0), (0.3, -0.7, -0.2)] {
            let args = [interval(a, 0.0), interval(b, 1.0 / 64.0), interval(c, 0.0)];
            let ctx = format!("{level:?} at ({a}, {b}, {c}):\n{}", out.c_source);
            assert_bit_identical(&run(&o0.c_source, &args), &run(&out.c_source, &args), &ctx);
        }
    }
}
