//! The element side of the bytecode executor: [`VmElem`] (what an
//! interval element must provide to run bytecode, plus the few facts
//! that differ between the two precisions above the VM), the one-item
//! convenience entry point [`run_scalar`], and the per-program width
//! histograms. The loop itself is [`run_tile`]; at `L = T` it runs the
//! scalar `F64I`/`DdI` operators, at `L = T::Lane` the packed
//! `LaneOps` kernels. Because every packed operation is lane-wise
//! bit-identical to its scalar counterpart (the contract pinned in
//! `igen-interval`), the two instantiations produce bit-identical
//! endpoints item for item — the same argument that makes the
//! hand-written batch kernels thread-count invariant extends to every
//! compiled program.

use crate::bytecode::{PoolConst, Precision, Program};
use crate::prepared::{run_tile, PreparedProgram, TileBank};
use igen_interval::{DdI, F64I};
use igen_kernels::{workload, Numeric};
use igen_telemetry::{Counter, WidthHist};

/// Total body instructions retired by [`run_tile`] (one count per
/// instruction per tile, independent of tile size and lane width).
pub static VM_INSNS_EXECUTED: Counter = Counter::new("vm.insns_executed");

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::F64I {}
    impl Sealed for super::DdI {}
}

/// An interval element the bytecode executor can run over: a
/// [`Numeric`] type plus constant-pool coding, the clamped integer
/// power the `ia_pow_*` builtins implement, and every other fact that
/// differs between the two precisions above the VM. Sealed: [`F64I`]
/// and [`DdI`] are the whole set.
pub trait VmElem: Numeric + sealed::Sealed {
    /// The bytecode precision this element executes.
    const PRECISION: Precision;

    /// The exact endpoint components ([`VmElem::parts`]).
    type Parts: AsRef<[f64]>;

    /// Decodes a pooled constant (exact: the pool stores full
    /// double-double components).
    fn from_const(c: &PoolConst) -> Self;

    /// Encodes `self` exactly as a pool constant.
    fn to_const(&self) -> PoolConst;

    /// Integer power, matching `ia_pow_f64`/`ia_pow_dd` bit for bit.
    fn powi_e(self, n: i32) -> Self;

    /// Tightest enclosing f64 endpoint pair (for width telemetry and
    /// endpoint comparisons).
    fn endpoints_f64(&self) -> (f64, f64);

    /// The exact endpoint components: `[lo, hi]` for [`F64I`],
    /// `[lo.hi, lo.lo, hi.hi, hi.lo]` for [`DdI`].
    fn parts(&self) -> Self::Parts;

    /// Exact promotion of an `f64` interval.
    fn promote(v: F64I) -> Self;

    /// `n` seeded inputs on `[-2, 2)` from `workload::rng(seed)`, as the
    /// paper's Section VII draws them for this precision.
    fn workload(seed: u64, n: usize) -> Vec<Self>;
}

impl VmElem for F64I {
    const PRECISION: Precision = Precision::F64;
    type Parts = [f64; 2];

    fn from_const(c: &PoolConst) -> F64I {
        // Same as `ia_set_f64(lo_hi, hi_hi)`; lowering guarantees an
        // ordered pair.
        F64I::new(c.lo_hi, c.hi_hi).expect("pool constant is ordered")
    }
    fn to_const(&self) -> PoolConst {
        PoolConst::f64_pair(self.lo(), self.hi())
    }
    fn powi_e(self, n: i32) -> F64I {
        self.powi(n)
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        (self.lo(), self.hi())
    }
    fn parts(&self) -> [f64; 2] {
        [self.lo(), self.hi()]
    }
    fn promote(v: F64I) -> F64I {
        v
    }
    fn workload(seed: u64, n: usize) -> Vec<F64I> {
        workload::intervals_1ulp(&workload::random_points(&mut workload::rng(seed), n, -2.0, 2.0))
    }
}

impl VmElem for DdI {
    const PRECISION: Precision = Precision::Dd;
    type Parts = [f64; 4];

    fn from_const(c: &PoolConst) -> DdI {
        // Same as `ia_set_ddx(lo_hi, lo_lo, hi_hi, hi_lo)`.
        DdI::new(igen_dd::Dd::new(c.lo_hi, c.lo_lo), igen_dd::Dd::new(c.hi_hi, c.hi_lo))
            .expect("pool constant is ordered")
    }
    fn to_const(&self) -> PoolConst {
        let [lo_hi, lo_lo, hi_hi, hi_lo] = self.parts();
        PoolConst { lo_hi, lo_lo, hi_hi, hi_lo }
    }
    fn powi_e(self, n: i32) -> DdI {
        self.powi(n)
    }
    fn endpoints_f64(&self) -> (f64, f64) {
        let f = self.to_f64i();
        (f.lo(), f.hi())
    }
    fn parts(&self) -> [f64; 4] {
        let (lo, hi) = (self.lo(), self.hi());
        [lo.hi(), lo.lo(), hi.hi(), hi.lo()]
    }
    fn promote(v: F64I) -> DdI {
        DdI::from_f64i(&v)
    }
    fn workload(seed: u64, n: usize) -> Vec<DdI> {
        workload::dd_intervals_1ulp(&mut workload::rng(seed), n, -2.0, 2.0)
    }
}

/// One-item convenience entry point: prepares `p` and runs it as a
/// one-group tile at scalar width (the scalar `F64I`/`DdI` operators,
/// never a packed kernel), returning the outputs in declaration order.
/// Callers that run many items should prepare once and call
/// [`run_tile`] themselves.
///
/// # Panics
///
/// Panics if the element precision does not match the program's, if
/// the program fails [`Program::validate`], or if `inputs.len() !=
/// n_inputs`.
pub fn run_scalar<T: VmElem>(p: &Program, inputs: &[T]) -> Vec<T> {
    let prep = PreparedProgram::<T>::new(p.clone());
    assert_eq!(inputs.len(), p.n_inputs as usize, "program expects {} inputs", p.n_inputs);
    let mut bank = TileBank::<T, T>::new(&prep, 1);
    for (r, &v) in inputs.iter().enumerate() {
        bank.input_column(r as u32)[0] = v;
    }
    let mut out = Vec::new();
    run_tile(&prep, &mut bank, 1, &mut out);
    out
}

/// The per-program output-width histogram `width.vm.<name>`.
///
/// The telemetry registry holds `'static` histograms, so per-program
/// instances are interned and leaked on first use — programs are few
/// and long-lived, and in non-telemetry builds the histogram is a
/// zero-sized no-op.
pub fn program_width_hist(name: &str) -> &'static WidthHist {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<HashMap<String, &'static WidthHist>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut t = table.lock().expect("vm hist table poisoned");
    if let Some(h) = t.get(name) {
        return h;
    }
    let full: &'static str = Box::leak(format!("width.vm.{name}").into_boxed_str());
    let h: &'static WidthHist = Box::leak(Box::new(WidthHist::new(full)));
    t.insert(name.to_string(), h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Insn, OutputSlot};

    fn quad() -> Program {
        // return -b + sqrt(b² - 4ac) with a=r0, b=r1, c=r2.
        let p = Program {
            name: "quad".into(),
            precision: Precision::F64,
            n_inputs: 3,
            n_regs: 11,
            consts: vec![PoolConst::f64_pair(4.0, 4.0)],
            insns: vec![
                Insn::Sqr { dst: 3, a: 1 },
                Insn::Const { dst: 4, idx: 0 },
                Insn::Mul { dst: 5, a: 4, b: 0 },
                Insn::Mul { dst: 6, a: 5, b: 2 },
                Insn::Sub { dst: 7, a: 3, b: 6 },
                Insn::Sqrt { dst: 8, a: 7 },
                Insn::Neg { dst: 9, a: 1 },
                Insn::Add { dst: 10, a: 9, b: 8 },
            ],
            inputs: vec!["a".into(), "b".into(), "c".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 10 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("valid test program");
        p
    }

    #[test]
    fn dd_constants_roundtrip_through_the_pool() {
        use igen_dd::Dd;
        let c = PoolConst { lo_hi: 1.05, lo_lo: -4.44e-17, hi_hi: 1.05, hi_lo: -4.4e-17 };
        let v = DdI::from_const(&c);
        assert_eq!(v.lo().hi(), 1.05);
        assert_eq!(v.lo().lo(), -4.44e-17);
        let p = Program {
            name: "c".into(),
            precision: Precision::Dd,
            n_inputs: 0,
            n_regs: 1,
            consts: vec![c],
            insns: vec![Insn::Const { dst: 0, idx: 0 }],
            inputs: vec![],
            outputs: vec![OutputSlot { label: "return".into(), reg: 0 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        let out = run_scalar::<DdI>(&p, &[]);
        assert_eq!(out[0].hi().cmp_num(&Dd::new(1.05, -4.4e-17)), Some(core::cmp::Ordering::Equal));
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_mismatch_panics() {
        let p = quad();
        let _ = run_scalar::<DdI>(&p, &[DdI::ZERO, DdI::ZERO, DdI::ZERO]);
    }
}
