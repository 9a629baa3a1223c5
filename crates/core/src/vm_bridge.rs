//! Bridge from compiler output to the bytecode VM, plus the
//! differential reference that pins bytecode semantics to the
//! transformed-unit interpreter.
//!
//! [`compile_to_program`] picks a function out of the optimized IR and
//! lowers it to an [`igen_vm::Program`] under a [`BindSpec`].
//! [`interp_reference`] runs the *same* bindings through the
//! `igen-interp` evaluator over the transformed C unit — consuming
//! inputs and producing outputs in exactly the VM's declared order —
//! so [`verify_bit_identity`] can compare the two endpoint streams bit
//! for bit. The pair is the trust anchor for every compiled program:
//! the VM is only believed because this check passes per function.

use crate::Output;
use igen_interp::{Interp, RtError, Value};
use igen_interval::{capi, DdI, F64I};
use igen_vm::{
    lower, run_tile, ArgBind, BindSpec, Precision, PreparedProgram, Program, TileBank, VmElem,
};

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

/// Runs one item through the `igen-interp` evaluator over the
/// transformed unit, consuming `inputs` and producing outputs in the
/// VM's declared order (inputs: interval scalars and `In`/`InOut`
/// array cells in parameter order; outputs: return value first, then
/// `Out`/`InOut` cells in parameter order).
///
/// # Errors
///
/// Propagates interpreter runtime errors; [`VmBridgeError::Shape`] if
/// a declared output is not an interval.
///
/// # Panics
///
/// Panics if `inputs` is shorter than the bindings require.
pub fn interp_reference(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[F64I],
) -> Result<Vec<F64I>, VmBridgeError> {
    interp.reset();
    let mut cursor = 0usize;
    let mut take = |n: usize| {
        let s = &inputs[cursor..cursor + n];
        cursor += n;
        s.to_vec()
    };
    let mut args = Vec::with_capacity(bind.args.len());
    // (parameter index among pointer args, heap pointer, length)
    let mut harvest: Vec<(Value, usize)> = Vec::new();
    for b in &bind.args {
        match b {
            ArgBind::Ival => args.push(Value::Interval(take(1)[0])),
            ArgBind::Int(v) => args.push(Value::Int(*v)),
            ArgBind::In(len) => args.push(interp.alloc_interval(&take(*len))),
            ArgBind::InOut(len) => {
                let ptr = interp.alloc_interval(&take(*len));
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Out(len) => {
                let ptr = interp.alloc_interval(&vec![F64I::ZERO; *len]);
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Uniform(pairs) => {
                let vals: Vec<F64I> =
                    pairs.iter().map(|&(lo, hi)| capi::ia_set_f64(lo, hi)).collect();
                args.push(interp.alloc_interval(&vals));
            }
        }
    }
    let ret = interp.call(fn_name, args)?;
    let mut outputs = Vec::new();
    match ret {
        Value::Interval(v) => outputs.push(v),
        Value::Unit => {}
        other => {
            return Err(VmBridgeError::Shape(format!("return value is {other:?}")));
        }
    }
    for (ptr, len) in harvest {
        outputs.extend(interp.read_interval(&ptr, len));
    }
    Ok(outputs)
}

/// Double-double twin of [`interp_reference`]; `Uniform` pairs promote
/// through `DdI::from_f64i` exactly like the lowering pass does.
///
/// # Errors
///
/// Same as [`interp_reference`].
///
/// # Panics
///
/// Same as [`interp_reference`].
pub fn interp_reference_dd(
    interp: &mut Interp,
    fn_name: &str,
    bind: &BindSpec,
    inputs: &[DdI],
) -> Result<Vec<DdI>, VmBridgeError> {
    interp.reset();
    let mut cursor = 0usize;
    let mut take = |n: usize| {
        let s = &inputs[cursor..cursor + n];
        cursor += n;
        s.to_vec()
    };
    let mut args = Vec::with_capacity(bind.args.len());
    let mut harvest: Vec<(Value, usize)> = Vec::new();
    for b in &bind.args {
        match b {
            ArgBind::Ival => args.push(Value::DdInterval(take(1)[0])),
            ArgBind::Int(v) => args.push(Value::Int(*v)),
            ArgBind::In(len) => args.push(interp.alloc_ddi(&take(*len))),
            ArgBind::InOut(len) => {
                let ptr = interp.alloc_ddi(&take(*len));
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Out(len) => {
                let ptr = interp.alloc_ddi(&vec![DdI::ZERO; *len]);
                harvest.push((ptr.clone(), *len));
                args.push(ptr);
            }
            ArgBind::Uniform(pairs) => {
                let vals: Vec<DdI> = pairs
                    .iter()
                    .map(|&(lo, hi)| DdI::from_f64i(&capi::ia_set_f64(lo, hi)))
                    .collect();
                args.push(interp.alloc_ddi(&vals));
            }
        }
    }
    let ret = interp.call(fn_name, args)?;
    let mut outputs = Vec::new();
    match ret {
        Value::DdInterval(v) => outputs.push(v),
        Value::Unit => {}
        other => {
            return Err(VmBridgeError::Shape(format!("return value is {other:?}")));
        }
    }
    for (ptr, len) in harvest {
        outputs.extend(interp.read_ddi(&ptr, len));
    }
    Ok(outputs)
}

/// Runs every item through both the bytecode VM and the
/// transformed-unit interpreter and demands bit-identical endpoints on
/// every declared output.
///
/// `items` is item-major flattened VM input data: `items.len()` must be
/// a multiple of `program.n_inputs`.
///
/// # Errors
///
/// The first [`VmBridgeError::Mismatch`] found, or any reference
/// interpreter failure.
///
/// # Panics
///
/// Panics if `items.len()` is not a multiple of the program's input
/// count (for programs with at least one input).
pub fn verify_bit_identity(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[F64I],
) -> Result<(), VmBridgeError> {
    assert_eq!(program.precision, Precision::F64, "use verify_bit_identity_dd for dd programs");
    let bits = |v: &F64I| [v.lo().to_bits(), v.hi().to_bits()];
    let reference =
        |interp: &mut Interp, x: &[F64I]| interp_reference(interp, &program.name, bind, x);
    verify_items(out, program, items, reference, |g, w| bits(g) == bits(w))
}

/// Double-double twin of [`verify_bit_identity`]: compares both
/// double-double components of each endpoint.
///
/// # Errors
///
/// Same as [`verify_bit_identity`].
///
/// # Panics
///
/// Same as [`verify_bit_identity`].
pub fn verify_bit_identity_dd(
    out: &Output,
    program: &Program,
    bind: &BindSpec,
    items: &[DdI],
) -> Result<(), VmBridgeError> {
    assert_eq!(program.precision, Precision::Dd, "use verify_bit_identity for f64 programs");
    let bits = |d: &DdI| {
        let (lo, hi) = (d.lo(), d.hi());
        [lo.hi().to_bits(), lo.lo().to_bits(), hi.hi().to_bits(), hi.lo().to_bits()]
    };
    let reference =
        |interp: &mut Interp, x: &[DdI]| interp_reference_dd(interp, &program.name, bind, x);
    verify_items(out, program, items, reference, |g, w| bits(g) == bits(w))
}

/// The shared self-check body: prepares `program` once, runs every item
/// as one group of a single scalar-width tile, then replays the items
/// through `reference` in order and returns the first difference that
/// `same` rejects (reported as f64 endpoint pairs).
fn verify_items<T: VmElem>(
    out: &Output,
    program: &Program,
    items: &[T],
    reference: impl Fn(&mut Interp, &[T]) -> Result<Vec<T>, VmBridgeError>,
    same: impl Fn(&T, &T) -> bool,
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
        let want = reference(&mut interp, &items[item * nin..(item + 1) * nin])?;
        if want.len() != nout {
            return Err(VmBridgeError::Shape(format!(
                "vm produced {nout} outputs, interpreter {}",
                want.len()
            )));
        }
        for (s, (slot, w)) in program.outputs.iter().zip(&want).enumerate() {
            let g = &got[s * n_items + item];
            if !same(g, w) {
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
