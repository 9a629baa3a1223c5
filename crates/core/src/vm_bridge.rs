//! Bridge from compiler output to the bytecode VM, plus the
//! differential reference that pins bytecode semantics to the
//! transformed-unit interpreter.
//!
//! [`compile_to_program`] picks a function out of the optimized IR and
//! lowers it to an [`igen_vm::Program`] under a [`BindSpec`].
//! [`reference_run`] runs the *same* bindings through the
//! `igen-interp` evaluator over the transformed C unit — consuming
//! inputs and producing outputs in exactly the VM's declared order —
//! so [`verify_program`] can compare the two endpoint streams bit for
//! bit. The pair is the trust anchor for every compiled program: the
//! VM is only believed because this check passes per function. Both
//! are generic over the sealed [`RefElem`] (`F64I` or `DdI`);
//! `interp_reference[_dd]` and `verify_bit_identity[_dd]` are their
//! one-line instantiations at each precision.

use crate::Output;
use igen_interp::{Interp, RtError, Value};
use igen_interval::{capi, DdI, F64I};
use igen_vm::{lower, run_tile, ArgBind, BindSpec, PreparedProgram, Program, TileBank, VmElem};

/// Why a compiler output could not be turned into (or checked against)
/// a bytecode program.
#[derive(Debug, Clone, PartialEq)]
pub enum VmBridgeError {
    /// No function with that name in the optimized IR.
    MissingFunction(String),
    /// The function is outside the bytecode-traceable subset.
    Lower(igen_vm::LowerError),
    /// The reference interpreter failed.
    Rt(String),
    /// The reference produced a non-interval value where an interval
    /// output was declared.
    Shape(String),
    /// Bytecode and interpreter endpoints differ.
    Mismatch {
        /// Declared output label (`return`, `y[3]`, ...).
        label: String,
        /// Item index within the supplied batch.
        item: usize,
        /// VM endpoints.
        got: (f64, f64),
        /// Interpreter endpoints.
        want: (f64, f64),
    },
}

impl core::fmt::Display for VmBridgeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmBridgeError::MissingFunction(n) => {
                write!(f, "no function `{n}` in the compiled unit")
            }
            VmBridgeError::Lower(e) => write!(f, "cannot compile to bytecode: {e}"),
            VmBridgeError::Rt(e) => write!(f, "reference interpreter: {e}"),
            VmBridgeError::Shape(m) => write!(f, "reference shape mismatch: {m}"),
            VmBridgeError::Mismatch { label, item, got, want } => write!(
                f,
                "bit mismatch at item {item}, output `{label}`: vm [{:?}, {:?}] vs interp [{:?}, {:?}]",
                got.0, got.1, want.0, want.1
            ),
        }
    }
}

impl std::error::Error for VmBridgeError {}

impl From<igen_vm::LowerError> for VmBridgeError {
    fn from(e: igen_vm::LowerError) -> VmBridgeError {
        VmBridgeError::Lower(e)
    }
}

impl From<RtError> for VmBridgeError {
    fn from(e: RtError) -> VmBridgeError {
        VmBridgeError::Rt(e.to_string())
    }
}

/// Lowers the named function of a compiled output into register
/// bytecode under the given parameter bindings and runs the bytecode
/// peephole pass (endpoint-exact rewrites plus register renumbering —
/// see `igen_vm::peephole`). Use [`compile_to_program_raw`] to inspect
/// or pin the un-peepholed lowering.
///
/// # Errors
///
/// [`VmBridgeError::MissingFunction`] if the optimized IR has no such
/// function, [`VmBridgeError::Lower`] if it falls outside the traced
/// subset.
pub fn compile_to_program(
    out: &Output,
    fn_name: &str,
    bind: &BindSpec,
) -> Result<Program, VmBridgeError> {
    let raw = compile_to_program_raw(out, fn_name, bind)?;
    let _span = igen_telemetry::span("vm.peephole");
    Ok(igen_vm::peephole(&raw).0)
}

/// [`compile_to_program`] without the peephole pass: the raw,
/// single-assignment lowering output. Every endpoint bit matches the
/// peepholed program — the `vm_peephole` differential tests pin that —
/// so the choice only affects instruction count and register-file
/// size.
///
/// # Errors
///
/// Same as [`compile_to_program`].
pub fn compile_to_program_raw(
    out: &Output,
    fn_name: &str,
    bind: &BindSpec,
) -> Result<Program, VmBridgeError> {
    let _span = igen_telemetry::span("vm.lower");
    let f = out
        .ir
        .functions()
        .find(|f| f.name == fn_name)
        .ok_or_else(|| VmBridgeError::MissingFunction(fn_name.to_string()))?;
    Ok(lower(f, bind)?)
}

/// An element both the bytecode VM and the reference interpreter run:
/// [`F64I`] or [`DdI`] (sealed through [`VmElem`]). Its methods are how
/// the interpreter holds the element: the value wrapper and the heap
/// arrays.
pub trait RefElem: VmElem {
    #[doc(hidden)]
    fn wrap(self) -> Value;
    #[doc(hidden)]
    fn unwrap(v: &Value) -> Option<Self>;
    #[doc(hidden)]
    fn alloc(interp: &mut Interp, data: &[Self]) -> Value;
    #[doc(hidden)]
    fn read(interp: &Interp, ptr: &Value, len: usize) -> Vec<Self>;
}

/// Implements [`RefElem`] over the interpreter's per-precision value
/// variant and heap accessors.
macro_rules! ref_elem {
    ($t:ty, $variant:ident, $alloc:ident, $read:ident) => {
        impl RefElem for $t {
            fn wrap(self) -> Value {
                Value::$variant(self)
            }
            fn unwrap(v: &Value) -> Option<$t> {
                match v {
                    Value::$variant(x) => Some(*x),
                    _ => None,
                }
            }
            fn alloc(interp: &mut Interp, data: &[$t]) -> Value {
                interp.$alloc(data)
            }
            fn read(interp: &Interp, ptr: &Value, len: usize) -> Vec<$t> {
                interp.$read(ptr, len)
            }
        }
    };
}
ref_elem!(F64I, Interval, alloc_interval, read_interval);
ref_elem!(DdI, DdInterval, alloc_ddi, read_ddi);

/// Runs one item through the `igen-interp` evaluator over the
/// transformed unit, consuming `inputs` and producing outputs in the
/// VM's declared order (inputs: interval scalars and `In`/`InOut`
/// array cells in parameter order; outputs: return value first, then
/// `Out`/`InOut` cells in parameter order). `Uniform` pairs promote
/// through [`VmElem::promote`] exactly like the lowering pass does.
///
/// # Errors
///
/// Propagates interpreter runtime errors; [`VmBridgeError::Shape`] if
/// a declared output is not an interval of `T`'s precision.
///
/// # Panics
///
/// Panics if `inputs` is shorter than the bindings require.
pub fn reference_run<T: RefElem>(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[T],
) -> Result<Vec<T>, VmBridgeError> {
    interp.reset();
    let mut rest = inputs;
    let mut take = |n: usize| {
        let (head, tail) = rest.split_at(n);
        rest = tail;
        head
    };
    let mut args = Vec::with_capacity(bind.args.len());
    // (heap pointer, length) of every array harvested as outputs.
    let mut harvest: Vec<(Value, usize)> = Vec::new();
    for b in &bind.args {
        match b {
            ArgBind::Ival => args.push(take(1)[0].wrap()),
            ArgBind::Int(v) => args.push(Value::Int(*v)),
            ArgBind::In(len) => args.push(T::alloc(interp, take(*len))),
            ArgBind::InOut(len) => {
                let ptr = T::alloc(interp, take(*len));
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Out(len) => {
                let ptr = T::alloc(interp, &vec![T::zero(); *len]);
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Uniform(pairs) => {
                let vals: Vec<T> =
                    pairs.iter().map(|&(lo, hi)| T::promote(capi::ia_set_f64(lo, hi))).collect();
                args.push(T::alloc(interp, &vals));
            }
        }
    }
    let ret = interp.call(fn_name, args)?;
    let mut outputs = Vec::new();
    match (T::unwrap(&ret), ret) {
        (Some(v), _) => outputs.push(v),
        (None, Value::Unit) => {}
        (None, other) => {
            return Err(VmBridgeError::Shape(format!("return value is {other:?}")));
        }
    }
    for (ptr, len) in harvest {
        outputs.extend(T::read(interp, &ptr, len));
    }
    Ok(outputs)
}

/// [`reference_run`] at `f64`; the `perfbench/` client calls it.
pub fn interp_reference(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[F64I],
) -> Result<Vec<F64I>, VmBridgeError> {
    reference_run(interp, fn_name, bind, inputs)
}

/// [`reference_run`] at double-double; the `perfbench/` client calls it.
pub fn interp_reference_dd(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[DdI],
) -> Result<Vec<DdI>, VmBridgeError> {
    reference_run(interp, fn_name, bind, inputs)
}

/// Runs every item through both the bytecode VM and the
/// transformed-unit interpreter and demands bit-identical endpoint
/// components ([`VmElem::parts`]) on every declared output.
///
/// The VM side prepares `program` once and runs every item as one
/// group of a single scalar-width tile; the interpreter then replays
/// the items in order.
///
/// `items` is item-major flattened VM input data: `items.len()` must be
/// a multiple of `program.n_inputs`.
///
/// # Errors
///
/// The first [`VmBridgeError::Mismatch`] found (reported as f64
/// endpoint pairs), or any reference interpreter failure.
///
/// # Panics
///
/// Panics if `T` is not the program's precision, or if `items.len()`
/// is not a multiple of the program's input count (for programs with
/// at least one input).
pub fn verify_program<T: RefElem>(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[T],
) -> Result<(), VmBridgeError> {
    let _span = igen_telemetry::span("vm.verify");
    let nin = program.n_inputs as usize;
    let n_items = items.len().checked_div(nin).unwrap_or(1);
    if nin > 0 {
        assert_eq!(items.len() % nin, 0, "items must be a multiple of n_inputs");
    }
    let prep = PreparedProgram::<T>::new(program.clone());
    let mut bank = TileBank::<T, T>::new(&prep, n_items.max(1));
    for j in 0..nin {
        let col = bank.input_column(j as u32);
        for (item, slot) in col.iter_mut().enumerate().take(n_items) {
            *slot = items[item * nin + j];
        }
    }
    // Slot-major: output `s` of item `i` is `got[s * n_items + i]`.
    let mut got = Vec::new();
    run_tile(&prep, &mut bank, n_items, &mut got);
    let nout = program.outputs.len();
    let mut interp = Interp::new(&out.unit);
    for item in 0..n_items {
        let want = reference_run(&mut interp, &program.name, bind, &items[item * nin..][..nin])?;
        if want.len() != nout {
            return Err(VmBridgeError::Shape(format!(
                "vm produced {nout} outputs, interpreter {}",
                want.len()
            )));
        }
        for (s, (slot, w)) in program.outputs.iter().zip(&want).enumerate() {
            let g = &got[s * n_items + item];
            if !same_bits(g, w) {
                return Err(VmBridgeError::Mismatch {
                    label: slot.label.clone(),
                    item,
                    got: g.endpoints_f64(),
                    want: w.endpoints_f64(),
                });
            }
        }
    }
    Ok(())
}

/// True when `a` and `b` have bit-identical endpoint components.
fn same_bits<T: RefElem>(a: &T, b: &T) -> bool {
    let (a, b) = (a.parts(), b.parts());
    a.as_ref().iter().map(|v| v.to_bits()).eq(b.as_ref().iter().map(|v| v.to_bits()))
}

/// [`verify_program`] at `f64`; the `perfbench/` client calls it.
pub fn verify_bit_identity(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[F64I],
) -> Result<(), VmBridgeError> {
    verify_program(out, program, bind, items)
}

/// [`verify_program`] at double-double; the `perfbench/` client calls
/// it.
pub fn verify_bit_identity_dd(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[DdI],
) -> Result<(), VmBridgeError> {
    verify_program(out, program, bind, items)
}
