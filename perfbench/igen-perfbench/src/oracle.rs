//! The `igen-mpf` oracle: each generated kernel evaluated longhand in
//! 256-bit outward-rounded interval arithmetic, in the operation order
//! of its C source. Evaluated at a point of the input box, the result
//! is a tight enclosure of the exact real value there, which every
//! sound output over the box must contain.

use crate::gen::{Expr, Kernel, Op};
use igen_mpf::{Mpf, MpfInterval, Rm};

fn c(v: f64) -> MpfInterval {
    MpfInterval::from_f64(v)
}

/// The real value of a C decimal literal, as IGen reads it: `1.4` is
/// the rational 14/10 (not the nearest double), enclosed outward.
pub fn decimal(text: &str) -> MpfInterval {
    let (mant, exp) = match text.split_once(['e', 'E']) {
        Some((m, e)) => (m, e.parse::<i32>().expect("literal exponent")),
        None => (text, 0),
    };
    let (int, frac) = mant.split_once('.').unwrap_or((mant, ""));
    let digits: i64 = format!("{int}{frac}").parse().expect("literal digits");
    let scale = exp - frac.len() as i32;
    let pow10 = |k: i32| {
        MpfInterval::new(Mpf::from_i64(10i64.pow(k as u32)), Mpf::from_i64(10i64.pow(k as u32)))
    };
    let m = MpfInterval::new(Mpf::from_i64(digits), Mpf::from_i64(digits));
    if scale >= 0 {
        m.mul(&pow10(scale))
    } else {
        m.div(&pow10(-scale))
    }
}

/// Evaluates `kernel` at the point `inputs` (in the program's input
/// order); returns the outputs in the program's output order (return
/// value first, then in/out array cells in parameter order).
///
/// # Panics
///
/// Panics on [`Kernel::Broken`] (it has no value) or on a wrong input
/// count.
pub fn eval(kernel: &Kernel, inputs: &[Mpf]) -> Vec<MpfInterval> {
    let pt = |i: usize| MpfInterval::new(inputs[i], inputs[i]);
    match kernel {
        Kernel::Henon { iters, shift } => {
            assert_eq!(inputs.len(), 2, "henon takes two inputs");
            let a = decimal(&crate::gen::lit(Kernel::henon_a(*shift)));
            let mut x = c(0.125).mul(&pt(0));
            let mut y = c(0.125).mul(&pt(1));
            for _ in 0..*iters {
                let xi = x;
                x = c(1.0).sub(&a.mul(&xi).mul(&xi)).add(&y);
                y = decimal("0.3").mul(&xi);
            }
            vec![x]
        }
        Kernel::Newton { iters, shift } => {
            assert_eq!(inputs.len(), 1, "newton takes one input");
            let a = c(1.5).add(&c(0.25).mul(&pt(0)));
            let mut x = a.add(&c(Kernel::newton_start(*shift)));
            for _ in 0..*iters {
                x = c(0.5).mul(&x.add(&a.div(&x)));
            }
            vec![x]
        }
        Kernel::Gemm { n } => {
            assert_eq!(inputs.len(), 2, "gemm takes two inputs");
            let n = *n as usize;
            let (mut u, mut v) = (pt(0), pt(1));
            let mut a = Vec::with_capacity(n * n);
            let mut b = Vec::with_capacity(n * n);
            for _ in 0..n * n {
                a.push(u);
                b.push(v);
                u = c(0.75).mul(&u).add(&c(0.125).mul(&v));
                v = c(0.5).mul(&v).sub(&c(0.25).mul(&u));
            }
            let mut tr = c(0.0);
            for i in 0..n {
                for j in 0..n {
                    let mut acc = c(0.0);
                    for k in 0..n {
                        acc = acc.add(&a[i * n + k].mul(&b[k * n + j]));
                    }
                    tr = tr.add(&acc.mul(&c(0.0625)));
                }
            }
            vec![tr]
        }
        Kernel::Dot { n } => {
            let n = *n as usize;
            assert_eq!(inputs.len(), 2 * n, "dot takes two arrays");
            let mut s = c(0.0);
            for i in 0..n {
                s = s.add(&pt(i).mul(&pt(n + i)));
            }
            let mut out = vec![s];
            out.extend((0..2 * n).map(pt));
            out
        }
        Kernel::Expr(e) => vec![eval_expr(e, &(0..e.n_in).map(pt).collect::<Vec<_>>())],
        Kernel::Broken(_) => panic!("a broken source has no value"),
    }
}

fn eval_expr(e: &Expr, inputs: &[MpfInterval]) -> MpfInterval {
    let mut vals = inputs.to_vec();
    for op in &e.stmts {
        let v = |i: usize| vals[i];
        let r = match *op {
            Op::Avg(a, b) => v(a).add(&v(b)).mul(&c(0.5)),
            Op::MulQ(a, b) => v(a).mul(&v(b)).mul(&c(0.25)),
            Op::Half(a, b) => v(a).sub(&v(b)).mul(&c(0.5)),
            Op::Mix(a, b) => c(0.75).mul(&v(a)).add(&c(0.25).mul(&v(b))),
            Op::SqH(a) => v(a).mul(&v(a)).mul(&c(0.5)),
            Op::Div(a, b) => v(a).div(&c(4.5).add(&v(b).mul(&v(b)))).mul(&c(0.5)),
            Op::Poly(a) => {
                let x = v(a);
                c(0.25).mul(&x).sub(&c(0.5)).mul(&x).add(&c(0.75)).mul(&x).add(&c(1.0))
            }
        };
        vals.push(r);
    }
    *vals.last().expect("expressions have at least one statement")
}

/// Whether the served interval `[lo, hi]` (exact endpoints) contains
/// the oracle enclosure.
pub fn encloses(lo: &Mpf, hi: &Mpf, oracle: &MpfInterval) -> bool {
    use std::cmp::Ordering::{Greater, Less};
    let lo_ok = matches!(lo.cmp_num(&oracle.lo()), Some(o) if o != Greater);
    let hi_ok = matches!(hi.cmp_num(&oracle.hi()), Some(o) if o != Less);
    lo_ok && hi_ok
}

/// An exact double-double value as an [`Mpf`] (256 bits hold any
/// double-double exactly).
pub fn dd(hi: f64, lo: f64) -> Mpf {
    Mpf::from_dd(hi, lo, Rm::Nearest)
}
