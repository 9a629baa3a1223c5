//! The evaluator: statement execution, expression evaluation, lvalues,
//! the heap and the call machinery.

use crate::builtins;
use crate::value::Value;
use igen_cfront::{BinOp, Expr, Function, Item, Loc, Stmt, TranslationUnit, Type, UnOp};
use igen_interval::{DdI, SumAcc64, SumAccDd, TBool, F64I};
use std::collections::HashMap;
use std::rc::Rc;

/// Runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// The paper's default policy for undecidable branches: an exception
    /// is signalled (Fig. 2 "It may signal exception").
    UnknownBranch,
    /// Type confusion or unsupported operation.
    Type(String),
    /// Unknown function or variable.
    Missing(String),
    /// Out-of-bounds heap access.
    Bounds(String),
    /// The configured step budget was exhausted (runaway loop guard).
    StepBudget,
}

impl core::fmt::Display for RtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RtError::UnknownBranch => {
                write!(f, "interval branch condition is unknown (exception signalled)")
            }
            RtError::Type(m) => write!(f, "type error: {m}"),
            RtError::Missing(m) => write!(f, "unknown symbol: {m}"),
            RtError::Bounds(m) => write!(f, "out-of-bounds access: {m}"),
            RtError::StepBudget => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for RtError {}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Resolved assignment target.
enum Place<'e> {
    Var(&'e str),
    Heap(usize, i64),
    /// Union lane: variable name holding a [`Value::Union`], lane index.
    UnionLane(Box<Place<'e>>, usize),
    /// Union bit view lane (reads/writes f64 lanes as integer bits).
    UnionBits(Box<Place<'e>>, usize),
    /// Whole union content from/to a vector value.
    UnionWhole(Box<Place<'e>>),
}

/// Width-provenance profiling state. Unlike the VM, whose instruction
/// count is known before execution, the interpreter discovers its sites
/// dynamically: each distinct (source location, operation) pair that
/// performs interval arithmetic is assigned a dense index on first use.
struct ProfState {
    prof: igen_telemetry::UnitProfiler,
    sites: HashMap<(u32, u32, String), usize>,
}

/// Relative width of an interval-valued `Value`, `None` for scalars.
fn value_rel_width(v: &Value) -> Option<f64> {
    let iv = match v {
        Value::Interval(i) => *i,
        Value::Interval32(i) => i.to_f64i(),
        Value::DdInterval(d) => d.to_f64i(),
        _ => return None,
    };
    Some(igen_telemetry::profile::rel_width(iv.lo(), iv.hi()))
}

/// Widest relative width across `vals` (NaN if any interval input has a
/// NaN endpoint; 0.0 when no input carries width).
fn max_rel_width(vals: &[Value]) -> f64 {
    let mut max_in = 0.0_f64;
    for v in vals {
        if let Some(w) = value_rel_width(v) {
            if w.is_nan() {
                return f64::NAN;
            }
            if w > max_in {
                max_in = w;
            }
        }
    }
    max_in
}

/// Mnemonic for an `ia_*` builtin: the `ia_` prefix and precision
/// suffix stripped, so interpreter profile rows line up with the VM's
/// instruction names (`ia_mul_f64` and the `mul` bytecode both say
/// `mul`).
fn ia_mnemonic(name: &str) -> &str {
    let s = name.strip_prefix("ia_").unwrap_or(name);
    s.strip_suffix("_f64")
        .or_else(|| s.strip_suffix("_f32"))
        .or_else(|| s.strip_suffix("_dd"))
        .unwrap_or(s)
}

/// The interpreter: owns the program, a heap of arrays, accumulator
/// stores and the bindings of the current call chain.
pub struct Interp {
    functions: HashMap<String, Rc<Function>>,
    heap: Vec<Vec<Value>>,
    accs64: Vec<SumAcc64>,
    accsdd: Vec<SumAccDd>,
    /// One flat stack of live bindings, innermost last. A declaration
    /// pushes a binding; a name resolves to the topmost binding of that
    /// name, so a callee also sees the locals of its callers; a scope
    /// (call, block, `for`, `switch`) truncates back to the length it
    /// entered with.
    vars: Vec<(String, Value)>,
    steps: u64,
    /// Maximum evaluation steps before aborting (defaults to 200M).
    pub step_budget: u64,
    prof: Option<ProfState>,
}

impl Interp {
    /// Builds an interpreter from a parsed translation unit.
    pub fn new(tu: &TranslationUnit) -> Interp {
        let mut functions = HashMap::new();
        for item in &tu.items {
            if let Item::Function(f) = item {
                if f.body.is_some() {
                    functions.insert(f.name.clone(), Rc::new(f.clone()));
                }
            }
        }
        Interp {
            functions,
            heap: Vec::new(),
            accs64: Vec::new(),
            accsdd: Vec::new(),
            vars: Vec::new(),
            steps: 0,
            step_budget: 200_000_000,
            prof: None,
        }
    }

    /// Parses C source and builds an interpreter.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn from_source(src: &str) -> Result<Interp, igen_cfront::ParseError> {
        Ok(Interp::new(&igen_cfront::parse(src)?))
    }

    /// Merges additional functions (e.g. a transformed unit alongside the
    /// original under different names, or generated intrinsics).
    pub fn add_unit(&mut self, tu: &TranslationUnit) {
        for item in &tu.items {
            if let Item::Function(f) = item {
                if f.body.is_some() {
                    self.functions.insert(f.name.clone(), Rc::new(f.clone()));
                }
            }
        }
    }

    /// Drops all heap arrays and accumulators and resets the step
    /// counter, keeping the loaded functions (and any active profile,
    /// which spans calls). Lets one interpreter be reused across many
    /// independent calls (e.g. per-item differential checks) without
    /// cross-item heap growth or budget carry-over.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.accs64.clear();
        self.accsdd.clear();
        self.vars.clear();
        self.steps = 0;
    }

    /// Begins recording a width-provenance profile under `unit`. Every
    /// interval operation evaluated until [`Interp::profile_finish`] —
    /// `ia_*` builtin calls and direct operators on interval values —
    /// records its execution time and width amplification against its
    /// source location. Inert unless telemetry recording is on; never
    /// changes computed values.
    pub fn profile_start(&mut self, unit: &str) {
        self.prof = Some(ProfState {
            prof: igen_telemetry::UnitProfiler::start(unit, 0),
            sites: HashMap::new(),
        });
    }

    /// Stops profiling and merges the recorded rows into the global
    /// telemetry profile registry. No-op if profiling was never started.
    pub fn profile_finish(&mut self) {
        if let Some(ps) = self.prof.take() {
            ps.prof.finish();
        }
    }

    /// Dense site index for a (location, operation) pair, assigning the
    /// next index (and growing the profiler) on first sight.
    fn prof_site(&mut self, loc: Loc, op: &str) -> usize {
        let ps = self.prof.as_mut().expect("prof_site requires active profiling");
        let next = ps.sites.len();
        let key = (loc.line, loc.col, op.to_string());
        match ps.sites.get(&key) {
            Some(&i) => i,
            None => {
                ps.sites.insert(key, next);
                ps.prof.grow(next + 1);
                ps.prof.set_meta(next, loc.line, loc.col, op);
                next
            }
        }
    }

    /// Allocates a heap array of doubles; returns the pointer value.
    pub fn alloc_f64(&mut self, data: &[f64]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::F64(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Allocates a heap array of intervals.
    pub fn alloc_interval(&mut self, data: &[F64I]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::Interval(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Allocates a heap array of double-double intervals.
    pub fn alloc_ddi(&mut self, data: &[DdI]) -> Value {
        self.heap.push(data.iter().map(|&v| Value::DdInterval(v)).collect());
        Value::Ptr(self.heap.len() - 1, 0)
    }

    /// Reads back a heap array as doubles.
    ///
    /// # Panics
    ///
    /// Panics if the pointer is not a heap pointer or elements are not
    /// doubles.
    pub fn read_f64(&self, ptr: &Value, len: usize) -> Vec<f64> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_f64().expect("double"))
            .collect()
    }

    /// Reads back a heap array as intervals.
    ///
    /// # Panics
    ///
    /// Panics on non-pointers / non-interval elements.
    pub fn read_interval(&self, ptr: &Value, len: usize) -> Vec<F64I> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_interval().expect("interval"))
            .collect()
    }

    /// Reads back a heap array as double-double intervals.
    ///
    /// # Panics
    ///
    /// Panics on non-pointers / incompatible elements.
    pub fn read_ddi(&self, ptr: &Value, len: usize) -> Vec<DdI> {
        let Value::Ptr(base, off) = ptr else { panic!("not a pointer") };
        (0..len)
            .map(|i| self.heap[*base][(*off + i as i64) as usize].as_ddi().expect("ddi"))
            .collect()
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// [`RtError`] on runtime failures; notably [`RtError::UnknownBranch`]
    /// when an interval branch condition cannot be decided.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, RtError> {
        let f =
            self.functions.get(name).cloned().ok_or_else(|| RtError::Missing(name.to_string()))?;
        if f.params.len() != args.len() {
            return Err(RtError::Type(format!(
                "{name}: expected {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        // The one scope exit that also runs on errors: whatever an
        // unwinding `?` left open below the call is dropped here.
        let base = self.vars.len();
        for (p, a) in f.params.iter().zip(args) {
            self.declare(&p.name, a);
        }
        let body = f.body.as_ref().expect("definition");
        let result = self.exec_block(body);
        self.vars.truncate(base);
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    // --- bindings -------------------------------------------------------

    fn get_var(&self, name: &str) -> Result<Value, RtError> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| RtError::Missing(name.to_string()))
    }

    fn set_var(&mut self, name: &str, v: Value) -> Result<(), RtError> {
        match self.vars.iter_mut().rev().find(|(n, _)| n == name) {
            Some((_, slot)) => {
                *slot = v;
                Ok(())
            }
            None => Err(RtError::Missing(name.to_string())),
        }
    }

    fn declare(&mut self, name: &str, v: Value) {
        self.vars.push((name.to_string(), v));
    }

    /// Drops each binding above `base` that a later one of the same name
    /// shadows. A loop body that is a bare declaration (or an `if` over
    /// one) redeclares into the enclosing scope every iteration; this
    /// keeps that to one binding per name instead of one per iteration.
    fn drop_shadowed(&mut self, base: usize) {
        let mut i = base;
        while i < self.vars.len() {
            if self.vars[i + 1..].iter().any(|(n, _)| *n == self.vars[i].0) {
                self.vars.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.steps += 1;
        if self.steps > self.step_budget {
            return Err(RtError::StepBudget);
        }
        Ok(())
    }

    // --- statements -----------------------------------------------------

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, RtError> {
        let base = self.vars.len();
        let mut flow = Flow::Normal;
        for s in stmts {
            flow = self.exec(s)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.vars.truncate(base);
        Ok(flow)
    }

    fn exec(&mut self, s: &Stmt) -> Result<Flow, RtError> {
        self.tick()?;
        match s {
            Stmt::Decl(d) => {
                let v = match &d.init {
                    Some(e) => self.eval(e)?,
                    None => self.default_value(&d.ty),
                };
                self.declare(&d.name, v);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.exec_block(b),
            Stmt::If { cond, then_branch, else_branch } => {
                if self.eval_cond(cond)? {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For { init, cond, step, body } => {
                let base = self.vars.len();
                if let Some(i) = init {
                    self.exec(i)?;
                }
                let body_base = self.vars.len();
                let flow = loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !self.eval_cond(c)? {
                            break Flow::Normal;
                        }
                    }
                    match self.exec(body)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        _ => {}
                    }
                    self.drop_shadowed(body_base);
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                };
                self.vars.truncate(base);
                Ok(flow)
            }
            Stmt::While { cond, body } => {
                let base = self.vars.len();
                loop {
                    self.tick()?;
                    if !self.eval_cond(cond)? {
                        return Ok(Flow::Normal);
                    }
                    match self.exec(body)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    self.drop_shadowed(base);
                }
            }
            Stmt::DoWhile { body, cond } => {
                let base = self.vars.len();
                loop {
                    self.tick()?;
                    match self.exec(body)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    self.drop_shadowed(base);
                    if !self.eval_cond(cond)? {
                        return Ok(Flow::Normal);
                    }
                }
            }
            Stmt::Switch { cond, arms } => {
                let v = self.eval(cond)?;
                let Some(n) = v.as_int() else {
                    return Err(RtError::Type(format!("switch on non-integer value {}", v.tag())));
                };
                // Find the matching case (or default), then execute with
                // C fallthrough until a break.
                let start = arms
                    .iter()
                    .position(|a| a.label == Some(n))
                    .or_else(|| arms.iter().position(|a| a.label.is_none()));
                let Some(start) = start else {
                    return Ok(Flow::Normal);
                };
                let base = self.vars.len();
                let mut flow = Flow::Normal;
                'arms: for arm in &arms[start..] {
                    for st in &arm.body {
                        match self.exec(st)? {
                            Flow::Break => break 'arms,
                            Flow::Normal => {}
                            other => {
                                flow = other;
                                break 'arms;
                            }
                        }
                    }
                }
                self.vars.truncate(base);
                Ok(flow)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Pragma(_) | Stmt::Empty => Ok(Flow::Normal),
        }
    }

    fn default_value(&mut self, ty: &Type) -> Value {
        match ty {
            Type::Int | Type::UInt | Type::Long | Type::ULong => Value::Int(0),
            Type::Float | Type::Double => Value::F64(0.0),
            Type::Named(n) => match n.as_str() {
                "f64i" => Value::Interval(F64I::ZERO),
                "f32i" => Value::Interval32(igen_interval::F32I::ZERO),
                "ddi" => Value::DdInterval(DdI::ZERO),
                "tbool" => Value::TBool(TBool::Unknown),
                "acc_f64" => Value::Acc64(usize::MAX),
                "acc_dd" => Value::AccDd(usize::MAX),
                "__m128d" => Value::VecF64(vec![0.0; 2]),
                "__m256d" => Value::VecF64(vec![0.0; 4]),
                "__m128" => Value::VecF64(vec![0.0; 4]),
                "__m256" => Value::VecF64(vec![0.0; 8]),
                // m256di_k packs 2k intervals (k __m256d registers,
                // Table II); ddi_k packs k double-double intervals.
                "m256di_1" => Value::VecInterval(vec![F64I::ZERO; 2]),
                "m256di_2" => Value::VecInterval(vec![F64I::ZERO; 4]),
                "m256di_4" => Value::VecInterval(vec![F64I::ZERO; 8]),
                "ddi_2" => Value::VecDdInterval(vec![DdI::ZERO; 2]),
                "ddi_4" => Value::VecDdInterval(vec![DdI::ZERO; 4]),
                "ddi_8" => Value::VecDdInterval(vec![DdI::ZERO; 8]),
                // Union wrappers of the generated intrinsics: lane count
                // from the name.
                "vec128d" => Value::Union(vec![Value::F64(0.0); 2]),
                "vec256d" => Value::Union(vec![Value::F64(0.0); 4]),
                "vec128" => Value::Union(vec![Value::F64(0.0); 4]),
                "vec256" => Value::Union(vec![Value::F64(0.0); 8]),
                _ => Value::Unit,
            },
            Type::Array(inner, Some(n)) => {
                let elem = self.default_value(inner);
                self.heap.push(vec![elem; *n]);
                Value::Ptr(self.heap.len() - 1, 0)
            }
            Type::Ptr(_) | Type::Array(_, None) => Value::Ptr(usize::MAX, 0),
            Type::Void => Value::Unit,
        }
    }

    // --- conditions -----------------------------------------------------

    fn eval_cond(&mut self, e: &Expr) -> Result<bool, RtError> {
        let v = self.eval(e)?;
        match v {
            Value::TBool(t) => t.to_bool().map_err(|_| RtError::UnknownBranch),
            other => other
                .truthy()
                .ok_or_else(|| RtError::Type(format!("condition of type {}", other.tag()))),
        }
    }

    // --- expressions ----------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Value, RtError> {
        self.tick()?;
        match e {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value)),
            Expr::FloatLit { value, .. } => Ok(Value::F64(*value)),
            Expr::Ident(name, _) => self.get_var(name),
            Expr::Unary(op, inner) => self.eval_unary(*op, inner),
            Expr::PostIncDec(inner, inc) => {
                let old = self.eval(inner)?;
                let delta = if *inc { 1 } else { -1 };
                let new = match &old {
                    Value::Int(v) => Value::Int(v + delta),
                    Value::F64(v) => Value::F64(v + delta as f64),
                    other => return Err(RtError::Type(format!("increment of {}", other.tag()))),
                };
                let place = self.resolve_place(inner)?;
                self.store(place, new)?;
                Ok(old)
            }
            Expr::Binary { op, lhs, rhs, loc } => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    return Ok(Value::Int((self.eval_cond(lhs)? && self.eval_cond(rhs)?) as i64));
                }
                if *op == BinOp::Or {
                    return Ok(Value::Int((self.eval_cond(lhs)? || self.eval_cond(rhs)?) as i64));
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.eval_binop_at(*op, l, r, *loc)
            }
            Expr::Assign { op, lhs, rhs, loc } => {
                let rv = self.eval(rhs)?;
                let new = match op.bin_op() {
                    None => rv,
                    Some(bop) => {
                        let old = self.eval(lhs)?;
                        self.eval_binop_at(bop, old, rv, *loc)?
                    }
                };
                let place = self.resolve_place(lhs)?;
                self.store(place, new.clone())?;
                Ok(new)
            }
            Expr::Call { name, args, loc } => self.eval_call(name, args, *loc),
            Expr::Index(base, idx) => {
                let i = self
                    .eval(idx)?
                    .as_int()
                    .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                // Union views: `u.f[i]` is the lane value, `u.i[i]` the
                // lane's bit pattern (Section V's integer array).
                if let Expr::Member { base: ub, field, .. } = &**base {
                    if field == "f" || field == "i" {
                        let u = self.eval(ub)?;
                        let Value::Union(lanes) = u else {
                            return Err(RtError::Type(format!("lane access on {}", u.tag())));
                        };
                        let lane = lanes
                            .get(i as usize)
                            .cloned()
                            .ok_or_else(|| RtError::Bounds(format!("union lane {i}")))?;
                        return if field == "i" {
                            match lane {
                                Value::F64(f) => Ok(Value::Int(f.to_bits() as i64)),
                                Value::Int(b) => Ok(Value::Int(b)),
                                other => Err(RtError::Type(format!("bit view of {}", other.tag()))),
                            }
                        } else {
                            Ok(lane)
                        };
                    }
                }
                let b = self.eval(base)?;
                match b {
                    Value::Ptr(obj, off) => self.heap_load(obj, off + i),
                    Value::Union(lanes) => lanes
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| RtError::Bounds(format!("union lane {i}"))),
                    other => Err(RtError::Type(format!("indexing {}", other.tag()))),
                }
            }
            Expr::Member { base, field, .. } => {
                let b = self.eval(base)?;
                let Value::Union(lanes) = b else {
                    return Err(RtError::Type(format!("member access on {}", b.tag())));
                };
                match field.as_str() {
                    "v" => Ok(union_whole(&lanes)),
                    // `.f` / `.i` without an index: the enclosing Index
                    // expression extracts the lane; return the union so
                    // Index sees it.
                    "f" | "i" => Ok(Value::Union(lanes)),
                    other => Err(RtError::Missing(format!("union field {other}"))),
                }
            }
            Expr::Cast(ty, inner) => {
                let v = self.eval(inner)?;
                match (ty, v) {
                    (Type::Double | Type::Float, Value::Int(i)) => Ok(Value::F64(i as f64)),
                    (Type::Double, Value::F64(f)) => Ok(Value::F64(f)),
                    (Type::Float, Value::F64(f)) => Ok(Value::F64(f as f32 as f64)),
                    (Type::Int | Type::Long, Value::F64(f)) => Ok(Value::Int(f as i64)),
                    (Type::Int | Type::Long, Value::Int(i)) => Ok(Value::Int(i)),
                    (_, v) => Ok(v), // pointer casts etc.: transparent
                }
            }
            Expr::Cond(c, t, f) => {
                if self.eval_cond(c)? {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
        }
    }

    fn eval_unary(&mut self, op: UnOp, inner: &Expr) -> Result<Value, RtError> {
        match op {
            UnOp::Addr => {
                // Only used for accumulator arguments (&acc) and array
                // element pointers; represented as the place itself.
                match inner {
                    Expr::Ident(name, _) => Ok(self.get_var(name)?),
                    Expr::Index(base, idx) => {
                        let b = self.eval(base)?;
                        let i = self
                            .eval(idx)?
                            .as_int()
                            .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                        match b {
                            Value::Ptr(obj, off) => Ok(Value::Ptr(obj, off + i)),
                            other => Err(RtError::Type(format!("&x[] on {}", other.tag()))),
                        }
                    }
                    _ => Err(RtError::Type("unsupported address-of".into())),
                }
            }
            UnOp::Deref => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(obj, off) => self.heap_load(obj, off),
                    other => Err(RtError::Type(format!("deref of {}", other.tag()))),
                }
            }
            UnOp::PreInc | UnOp::PreDec => {
                let old = self.eval(inner)?;
                let delta = if op == UnOp::PreInc { 1 } else { -1 };
                let new = match old {
                    Value::Int(v) => Value::Int(v + delta),
                    other => return Err(RtError::Type(format!("++ on {}", other.tag()))),
                };
                let place = self.resolve_place(inner)?;
                self.store(place, new.clone())?;
                Ok(new)
            }
            _ => {
                let v = self.eval(inner)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::F64(f)) => Ok(Value::F64(-f)),
                    (UnOp::Neg, Value::Interval(i)) => Ok(Value::Interval(-i)),
                    (UnOp::Neg, Value::Interval32(i)) => Ok(Value::Interval32(-i)),
                    (UnOp::Neg, Value::DdInterval(i)) => Ok(Value::DdInterval(-i)),
                    (UnOp::Plus, v) => Ok(v),
                    (UnOp::Not, Value::Int(i)) => Ok(Value::Int((i == 0) as i64)),
                    (UnOp::Not, Value::TBool(t)) => Ok(Value::TBool(t.not())),
                    (UnOp::BitNot, Value::Int(i)) => Ok(Value::Int(!i)),
                    (o, v) => Err(RtError::Type(format!("{o:?} on {}", v.tag()))),
                }
            }
        }
    }

    /// [`Interp::eval_binop`] with a source location, recording a
    /// profile sample when profiling is on and the operands carry
    /// intervals (direct operator arithmetic on interval values).
    fn eval_binop_at(&mut self, op: BinOp, l: Value, r: Value, loc: Loc) -> Result<Value, RtError> {
        use BinOp::*;
        let interval_args =
            matches!(l, Value::Interval(_) | Value::Interval32(_) | Value::DdInterval(_))
                || matches!(r, Value::Interval(_) | Value::Interval32(_) | Value::DdInterval(_));
        if self.prof.is_none() || !interval_args || !matches!(op, Add | Sub | Mul | Div) {
            return self.eval_binop(op, l, r);
        }
        let wl = value_rel_width(&l).unwrap_or(0.0);
        let wr = value_rel_width(&r).unwrap_or(0.0);
        let max_in = if wl.is_nan() || wr.is_nan() { f64::NAN } else { wl.max(wr) };
        let op_name = match op {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            _ => unreachable!(),
        };
        let site = self.prof_site(loc, op_name);
        let ps = self.prof.as_ref().expect("profiling active");
        let t0 = ps.prof.now_ns();
        let out = self.eval_binop(op, l, r)?;
        if let Some(ps) = self.prof.as_mut() {
            let dt = ps.prof.now_ns().saturating_sub(t0);
            ps.prof.add_time(site, dt);
            if let Some(out_rel) = value_rel_width(&out) {
                ps.prof.add_sample(site, max_in, out_rel);
            }
        }
        Ok(out)
    }

    fn eval_binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, RtError> {
        use BinOp::*;
        // Interval arithmetic via operators happens when kernels are
        // interpreted directly on interval values.
        if matches!(l, Value::Interval(_)) || matches!(r, Value::Interval(_)) {
            if let (Some(a), Some(b)) = (l.as_interval(), r.as_interval()) {
                return builtins::interval_binop(op, a, b);
            }
        }
        if matches!(l, Value::DdInterval(_)) || matches!(r, Value::DdInterval(_)) {
            if let (Some(a), Some(b)) = (l.as_ddi(), r.as_ddi()) {
                return builtins::ddi_binop(op, a, b);
            }
        }
        match (op, &l, &r) {
            (_, Value::Int(a), Value::Int(b)) => {
                let (a, b) = (*a, *b);
                Ok(match op {
                    Add => Value::Int(a.wrapping_add(b)),
                    Sub => Value::Int(a.wrapping_sub(b)),
                    Mul => Value::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            return Err(RtError::Type("integer division by zero".into()));
                        }
                        Value::Int(a / b)
                    }
                    Rem => {
                        if b == 0 {
                            return Err(RtError::Type("integer remainder by zero".into()));
                        }
                        Value::Int(a % b)
                    }
                    Shl => Value::Int(a.wrapping_shl(b as u32)),
                    Shr => Value::Int(((a as u64) >> (b as u32 & 63)) as i64),
                    BitAnd => Value::Int(a & b),
                    BitOr => Value::Int(a | b),
                    BitXor => Value::Int(a ^ b),
                    Lt => Value::Int((a < b) as i64),
                    Le => Value::Int((a <= b) as i64),
                    Gt => Value::Int((a > b) as i64),
                    Ge => Value::Int((a >= b) as i64),
                    Eq => Value::Int((a == b) as i64),
                    Ne => Value::Int((a != b) as i64),
                    And | Or => unreachable!("short-circuited"),
                })
            }
            (_, _, _) if l.as_f64().is_some() && r.as_f64().is_some() => {
                let (a, b) = (l.as_f64().unwrap(), r.as_f64().unwrap());
                Ok(match op {
                    Add => Value::F64(a + b),
                    Sub => Value::F64(a - b),
                    Mul => Value::F64(a * b),
                    Div => Value::F64(a / b),
                    Lt => Value::Int((a < b) as i64),
                    Le => Value::Int((a <= b) as i64),
                    Gt => Value::Int((a > b) as i64),
                    Ge => Value::Int((a >= b) as i64),
                    Eq => Value::Int((a == b) as i64),
                    Ne => Value::Int((a != b) as i64),
                    Rem => Value::F64(a % b),
                    other => return Err(RtError::Type(format!("{other:?} on doubles"))),
                })
            }
            (Add | Sub, Value::Ptr(obj, off), Value::Int(i)) => {
                let delta = if op == Add { *i } else { -*i };
                Ok(Value::Ptr(*obj, off + delta))
            }
            _ => Err(RtError::Type(format!("{op:?} on {} and {}", l.tag(), r.tag()))),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], loc: Loc) -> Result<Value, RtError> {
        // Accumulator builtins take their first argument by address.
        if let Some(v) = builtins::try_accumulator_call(self, name, args)? {
            return Ok(v);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            // `&x` arguments to non-accumulator calls resolve to the
            // pointed-at value (pointers are first-class here).
            vals.push(self.eval(a)?);
        }
        // Profile `ia_*` builtins: in a transformed unit these ARE the
        // interval operations, and the call carries the source location
        // of the expression it replaced.
        if self.prof.is_some() && name.starts_with("ia_") {
            let max_in = max_rel_width(&vals);
            let site = self.prof_site(loc, ia_mnemonic(name));
            let t0 = self.prof.as_ref().expect("profiling active").prof.now_ns();
            if let Some(v) = builtins::try_builtin(self, name, &vals)? {
                if let Some(ps) = self.prof.as_mut() {
                    let dt = ps.prof.now_ns().saturating_sub(t0);
                    ps.prof.add_time(site, dt);
                    if let Some(out_rel) = value_rel_width(&v) {
                        ps.prof.add_sample(site, max_in, out_rel);
                    }
                }
                return Ok(v);
            }
        } else if let Some(v) = builtins::try_builtin(self, name, &vals)? {
            return Ok(v);
        }
        if self.functions.contains_key(name) {
            return self.call(name, vals);
        }
        Err(RtError::Missing(format!("function {name}")))
    }

    // --- heap & places ---------------------------------------------------

    pub(crate) fn heap_load(&self, obj: usize, idx: i64) -> Result<Value, RtError> {
        let arr = self.heap.get(obj).ok_or_else(|| RtError::Bounds(format!("object {obj}")))?;
        if idx < 0 || idx as usize >= arr.len() {
            return Err(RtError::Bounds(format!("index {idx} of {} elements", arr.len())));
        }
        Ok(arr[idx as usize].clone())
    }

    pub(crate) fn heap_store(&mut self, obj: usize, idx: i64, v: Value) -> Result<(), RtError> {
        let arr = self.heap.get_mut(obj).ok_or_else(|| RtError::Bounds(format!("object {obj}")))?;
        if idx < 0 || idx as usize >= arr.len() {
            return Err(RtError::Bounds(format!("index {idx} of {} elements", arr.len())));
        }
        arr[idx as usize] = v;
        Ok(())
    }

    fn resolve_place<'e>(&mut self, e: &'e Expr) -> Result<Place<'e>, RtError> {
        match e {
            Expr::Ident(name, _) => Ok(Place::Var(name)),
            Expr::Index(base, idx) => {
                let i = self
                    .eval(idx)?
                    .as_int()
                    .ok_or_else(|| RtError::Type("non-integer index".into()))?;
                // `u.f[i]` / `u.i[i]`: member then index.
                if let Expr::Member { base: ub, field, .. } = &**base {
                    let inner = self.resolve_place(ub)?;
                    return match field.as_str() {
                        "f" => Ok(Place::UnionLane(Box::new(inner), i as usize)),
                        "i" => Ok(Place::UnionBits(Box::new(inner), i as usize)),
                        other => Err(RtError::Missing(format!("union field {other}"))),
                    };
                }
                let b = self.eval(base)?;
                match b {
                    Value::Ptr(obj, off) => Ok(Place::Heap(obj, off + i)),
                    _ => Err(RtError::Type(format!("assignment into {}", b.tag()))),
                }
            }
            Expr::Member { base, field, .. } => {
                let inner = self.resolve_place(base)?;
                match field.as_str() {
                    "v" => Ok(Place::UnionWhole(Box::new(inner))),
                    other => Err(RtError::Missing(format!("union field {other}"))),
                }
            }
            Expr::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(obj, off) => Ok(Place::Heap(obj, off)),
                    other => Err(RtError::Type(format!("deref-assign of {}", other.tag()))),
                }
            }
            _ => Err(RtError::Type("unsupported assignment target".into())),
        }
    }

    fn load_place(&mut self, p: &Place) -> Result<Value, RtError> {
        match p {
            Place::Var(n) => self.get_var(n),
            Place::Heap(o, i) => self.heap_load(*o, *i),
            Place::UnionLane(inner, i) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("lane access on non-union".into()));
                };
                lanes.get(*i).cloned().ok_or_else(|| RtError::Bounds(format!("lane {i}")))
            }
            Place::UnionBits(inner, i) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("lane access on non-union".into()));
                };
                match lanes.get(*i) {
                    Some(Value::F64(f)) => Ok(Value::Int(f.to_bits() as i64)),
                    Some(Value::Int(b)) => Ok(Value::Int(*b)),
                    Some(other) => Err(RtError::Type(format!("bit view of {}", other.tag()))),
                    None => Err(RtError::Bounds(format!("lane {i}"))),
                }
            }
            Place::UnionWhole(inner) => {
                let v = self.load_place(inner)?;
                let Value::Union(lanes) = v else {
                    return Err(RtError::Type("`.v` on non-union".into()));
                };
                Ok(union_whole(&lanes))
            }
        }
    }

    fn store(&mut self, p: Place, v: Value) -> Result<(), RtError> {
        match p {
            Place::Var(n) => {
                // Declare-on-assign never happens (decls precede); mutate.
                self.set_var(n, v)
            }
            Place::Heap(o, i) => self.heap_store(o, i, v),
            Place::UnionLane(inner, i) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("lane store on non-union".into()));
                    };
                    if i >= lanes.len() {
                        return Err(RtError::Bounds(format!("lane {i}")));
                    }
                    lanes[i] = v;
                }
                self.store(*inner, u)
            }
            Place::UnionBits(inner, i) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("bit store on non-union".into()));
                    };
                    if i >= lanes.len() {
                        return Err(RtError::Bounds(format!("lane {i}")));
                    }
                    let bits = v
                        .as_int()
                        .ok_or_else(|| RtError::Type("bit store of non-integer".into()))?;
                    lanes[i] = Value::F64(f64::from_bits(bits as u64));
                }
                self.store(*inner, u)
            }
            Place::UnionWhole(inner) => {
                let mut u = self.load_place(&inner)?;
                {
                    let Value::Union(lanes) = &mut u else {
                        return Err(RtError::Type("`.v` store on non-union".into()));
                    };
                    match v {
                        Value::VecF64(xs) => {
                            if xs.len() != lanes.len() {
                                return Err(RtError::Type("vector width mismatch".into()));
                            }
                            for (l, x) in lanes.iter_mut().zip(xs) {
                                *l = Value::F64(x);
                            }
                        }
                        Value::VecInterval(xs) => {
                            if xs.len() != lanes.len() {
                                return Err(RtError::Type("vector width mismatch".into()));
                            }
                            for (l, x) in lanes.iter_mut().zip(xs) {
                                *l = Value::Interval(x);
                            }
                        }
                        other => {
                            return Err(RtError::Type(format!("`.v` store of {}", other.tag())))
                        }
                    }
                }
                self.store(*inner, u)
            }
        }
    }

    // Accessors used by the builtin module.
    pub(crate) fn acc64_mut(&mut self) -> &mut Vec<SumAcc64> {
        &mut self.accs64
    }

    pub(crate) fn accdd_mut(&mut self) -> &mut Vec<SumAccDd> {
        &mut self.accsdd
    }

    pub(crate) fn var_value(&self, name: &str) -> Result<Value, RtError> {
        self.get_var(name)
    }

    pub(crate) fn var_set(&mut self, name: &str, v: Value) -> Result<(), RtError> {
        self.set_var(name, v)
    }

    pub(crate) fn eval_pub(&mut self, e: &Expr) -> Result<Value, RtError> {
        self.eval(e)
    }
}

/// The `.v` view of a union's lanes.
fn union_whole(lanes: &[Value]) -> Value {
    if lanes.iter().all(|l| matches!(l, Value::F64(_))) {
        Value::VecF64(lanes.iter().map(|l| l.as_f64().unwrap()).collect())
    } else if lanes.iter().all(|l| matches!(l, Value::Interval(_))) {
        Value::VecInterval(lanes.iter().map(|l| l.as_interval().unwrap()).collect())
    } else {
        // Mixed or default-initialized: treat as doubles.
        Value::VecF64(lanes.iter().map(|l| l.as_f64().unwrap_or(0.0)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_declaration_loop_bodies_do_not_grow_the_binding_stack() {
        let src = "int f(void) { int i = 0; while (i < 500) if (i >= 0) int x = i++; \
                   for (int k = 0; k < 500; k++) int y = k; \
                   do int z = i--; while (i > 0); return x + z; }";
        let mut it = Interp::from_source(src).unwrap();
        assert_eq!(it.call("f", vec![]), Ok(Value::Int(499 + 1)));
        // Truncation keeps the capacity: it shows the deepest the stack got.
        assert!(it.vars.capacity() < 16, "binding stack grew to {}", it.vars.capacity());
    }
}
