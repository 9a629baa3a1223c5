//! `igen-ir`: a typed, SSA-style three-address intermediate
//! representation for IGen interval programs.
//!
//! The IGen compiler (CGO 2021) originally rewrote the AST in a single
//! monolithic pass. This crate is the middle of the refactored
//! three-layer pipeline:
//!
//! ```text
//! cfront AST --lower--> IrUnit --optimize (PassManager)--> IrUnit --emit--> cfront AST --print--> C
//! ```
//!
//! * [`build_unit`] converts a lowered AST into IR; [`emit_unit`] is its
//!   exact inverse, so an unoptimized round trip reproduces the paper's
//!   output byte-for-byte (the `-O0` contract pinned by the golden
//!   tests).
//! * [`OpKind`]/[`Sfx`] give every interval runtime operation (`ia_*`,
//!   `isum_*`) an opcode with purity and cost metadata — the basis for
//!   CSE, DCE and the per-pass cost reports.
//! * [`renumber_unit`] restores the paper's dense `t1, t2, …` numbering
//!   in textual order after passes insert or delete definitions, with no
//!   dependence on hash iteration order.
//! * [`dump_unit`] renders the IR for `--emit-ir`; [`unit_stats`]
//!   produces the op-count/cost figures for `--dump-passes`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod count;
mod dump;
mod emit;
mod ir;
mod op;
mod renumber;

pub use build::{build_expr, build_function, build_unit, build_unit_with_prefix, temp_prefix};
pub use count::{function_stats, unit_stats, OpStats};
pub use dump::{dump_function, dump_unit};
pub use emit::{emit_expr, emit_function, emit_unit};
pub use ir::{IrArm, IrExpr, IrFunction, IrItem, IrStmt, IrUnit};
pub use op::{OpKind, Sfx};
pub use renumber::renumber_unit;

#[cfg(test)]
mod tests {
    use super::*;
    use igen_cfront::{parse, print_unit};

    /// A lowered-style program exercising defs, ops, control flow and
    /// plain calls.
    const LOWERED: &str = r#"
        #include "igen_lib.h"

        f64i foo(f64i a, f64i b) {
            f64i c;
            f64i t1 = ia_add_f64(a, b);
            f64i t2 = ia_set_f64(0.09999999999999999, 0.1);
            c = ia_add_f64(t1, t2);
            tbool t3 = ia_cmpgt_f64(c, a);
            if (ia_cvt2bool_tb(t3))
            {
                c = ia_mul_f64(a, c);
            }
            for (int i = 0; i < 4; i++)
            {
                c = ia_sqrt_f64(c);
            }
            return helper(c);
        }
    "#;

    #[test]
    fn build_emit_round_trip_is_exact() {
        let tu = parse(LOWERED).unwrap();
        let ir = build_unit(&tu);
        let back = emit_unit(&ir);
        // Printed-byte equality is the -O0 contract; the ASTs differ only
        // in source locations ([`IrExpr::Temp`] carries none), which the
        // printer ignores.
        assert_eq!(print_unit(&tu), print_unit(&back));
        let reparsed = parse(&print_unit(&back)).unwrap();
        assert_eq!(print_unit(&back), print_unit(&reparsed));
    }

    #[test]
    fn ops_are_decoded() {
        let tu = parse(LOWERED).unwrap();
        let ir = build_unit(&tu);
        let stats = unit_stats(&ir);
        // add, set, add, cmpgt, cvt2bool, mul, sqrt — helper() is a plain
        // call, not an op.
        assert_eq!(stats.ops, 7);
        assert!(stats.cost > 0);
        assert!(stats.per_op.iter().any(|(n, c)| n == "ia_add_f64" && *c == 2));
        let names: Vec<&str> = stats.per_op.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "per-op table must be name-sorted");
    }

    #[test]
    fn renumber_restores_dense_textual_order() {
        let src = r#"
            f64i f(f64i x) {
                f64i t7 = ia_add_f64(x, x);
                f64i t3 = ia_mul_f64(t7, x);
                if (ia_cvt2bool_tb(ia_cmpgt_f64(t3, x)))
                {
                    f64i t9 = ia_sqrt_f64(t3);
                    return t9;
                }
                return t3;
            }
        "#;
        let tu = parse(src).unwrap();
        let mut ir = build_unit(&tu);
        renumber_unit(&mut ir);
        let out = print_unit(&emit_unit(&ir));
        assert!(out.contains("f64i t1 = ia_add_f64(x, x);"), "{out}");
        assert!(out.contains("f64i t2 = ia_mul_f64(t1, x);"), "{out}");
        assert!(out.contains("f64i t3 = ia_sqrt_f64(t2);"), "{out}");
        assert!(out.contains("return t3;"), "{out}");
    }

    #[test]
    fn renumber_accs_is_unit_global() {
        let src = r#"
            void f(f64i* x) {
                acc_f64 acc5;
                isum_init_f64(&acc5, x[0]);
            }
            void g(f64i* x) {
                acc_f64 acc9;
                isum_init_f64(&acc9, x[0]);
            }
        "#;
        let tu = parse(src).unwrap();
        let mut ir = build_unit(&tu);
        renumber_unit(&mut ir);
        let out = print_unit(&emit_unit(&ir));
        assert!(out.contains("acc_f64 acc1;"), "{out}");
        assert!(out.contains("isum_init_f64(&acc1, x[0]);"), "{out}");
        assert!(out.contains("acc_f64 acc2;"), "{out}");
        assert!(out.contains("isum_init_f64(&acc2, x[0]);"), "{out}");
    }

    #[test]
    fn dump_is_three_address_style() {
        let tu = parse(LOWERED).unwrap();
        let ir = build_unit(&tu);
        let text = dump_unit(&ir);
        assert!(text.contains("func foo(f64i a, f64i b) -> f64i {"), "{text}");
        assert!(text.contains("t1: f64i = add.f64 a, b"), "{text}");
        assert!(text.contains("t3: tbool = cmpgt.f64 c, a"), "{text}");
        assert!(text.contains("call helper(c)"), "{text}");
    }

    #[test]
    fn struct_eq_ignores_locations() {
        let a = parse("double f(double x) { return x + 1.0; }").unwrap();
        let b = parse("double f(double x)\n\n{ return x\n + 1.0; }").unwrap();
        let (ia, ib) = (build_unit(&a), build_unit(&b));
        let body_expr = |u: &IrUnit| match &u.functions().next().unwrap().body.as_ref().unwrap()[0]
        {
            IrStmt::Return(Some(e)) => e.clone(),
            other => panic!("{other:?}"),
        };
        assert!(body_expr(&ia).struct_eq(&body_expr(&ib)));
    }

    #[test]
    fn temp_prefix_avoids_source_names_and_round_trips() {
        let names = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(temp_prefix(&names(&["x", "tmp", "t", "t1x"])), "t");
        assert_eq!(temp_prefix(&names(&["t0"])), "t_");
        assert_eq!(temp_prefix(&names(&["t07", "t_2"])), "t__");
        // Under a non-default prefix `t1` is a plain variable and `t_1`
        // the temporary; emission restores both names exactly.
        let src = "f64i f(f64i t1) { f64i t_1 = ia_add_f64(t1, t1); return t_1; }";
        let ir = build_unit_with_prefix(&parse(src).unwrap(), "t_");
        let body = ir.functions().next().unwrap().body.as_ref().unwrap();
        assert!(matches!(body[0], IrStmt::Def { temp: 1, .. }), "{body:?}");
        assert_eq!(print_unit(&emit_unit(&ir)), print_unit(&parse(src).unwrap()));
    }
}
