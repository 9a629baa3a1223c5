//! The lowering layer (Section IV-B): visits every AST node and
//! produces the equivalent interval program in three-address form,
//! ready for conversion into the typed IR (`igen-ir`).
//!
//! Expression results follow the paper's `igenExpr` design: each
//! transformed expression carries its generated representation plus
//! attributes (kind, constness), and interval constants are folded at
//! compile time (`2.0 + 0.1` becomes a single `ia_set_f64` constant).
//! Intermediate interval operations are materialized into `t1, t2, …`
//! temporaries exactly as in Fig. 2.
//!
//! Reduction handling is split across layers: the *detection* (Section
//! VI-B) happens here, at the `#pragma igen reduce` site, because it
//! needs source-level variable scopes; the *rewriting* into `isum_*`
//! accumulator calls is an IR pass (`crate::opt::reduce`). The pragma is
//! re-emitted directly before the lowered loop as a marker for that
//! pass, and the detected [`ReductionInfo`] groups are handed over in
//! marker order.

use crate::config::{BranchPolicy, Config, Precision};
use crate::consts::{dd_literal_interval, literal_interval, tolerance_interval};
use crate::reduce::{detect_in_stmts, ReductionInfo};
use crate::types::{kind_of, promote, Kind};
use igen_cfront::{
    fmt_f64, AssignOp, BinOp, Expr, Function, Item, Loc, Param, Pragma, Stmt, SwitchArm,
    TranslationUnit, Type, Typedef, UnOp, VarDecl,
};
use igen_interval::F64I;
use std::collections::HashMap;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Frontend failure.
    Parse(igen_cfront::ParseError),
    /// A construct the compiler does not support (Section IV-B
    /// "Limitations": bit-level manipulation of floats, float→int casts,
    /// …).
    Unsupported {
        /// Location if known.
        loc: Loc,
        /// What was unsupported.
        msg: String,
    },
    /// The differential pass verifier (`Config::verify_passes`) observed
    /// different interval endpoints before and after an optimization
    /// pass — a compiler bug, surfaced instead of miscompiled output.
    VerifierMismatch {
        /// The offending pass.
        pass: &'static str,
        /// Human-readable description of the divergence.
        detail: String,
    },
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Unsupported { loc, msg } => {
                write!(f, "unsupported at {}:{}: {msg}", loc.line, loc.col)
            }
            CompileError::VerifierMismatch { pass, detail } => {
                write!(f, "pass verifier: `{pass}` changed observable results: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<igen_cfront::ParseError> for CompileError {
    fn from(e: igen_cfront::ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

/// Result of compiling a translation unit.
#[derive(Debug, Clone)]
pub struct Output {
    /// The transformed unit (starts with `#include "igen_lib.h"`).
    pub unit: TranslationUnit,
    /// Pretty-printed C source of `unit`.
    pub c_source: String,
    /// Warnings (e.g. the `malloc` warning of Section IV-B).
    pub warnings: Vec<String>,
    /// Reductions that were detected and transformed (Section VI-B).
    pub reductions: Vec<ReductionInfo>,
    /// Names of SIMD intrinsics encountered in the input (Section V).
    pub intrinsics_used: Vec<String>,
    /// The optimized IR the C output was emitted from (`--emit-ir`).
    pub ir: igen_ir::IrUnit,
    /// Per-pass op-count/cost report of the optimization pipeline
    /// (`--dump-passes`).
    pub opt_report: crate::opt::PassReport,
}

/// Transformed expression value: a compile-time interval constant or a
/// runtime expression with its kind (the paper's `igenExpr`).
#[derive(Debug, Clone)]
enum XVal {
    Const(F64I),
    V(Expr, Kind),
}

#[derive(Debug, Clone)]
struct VarInfo {
    kind: Kind,
    emit_name: String,
}

pub(crate) struct Xform<'c> {
    cfg: &'c Config,
    scopes: Vec<HashMap<String, VarInfo>>,
    tmp: u32,
    /// Name prefix of the temporaries (`t` unless a source name would
    /// collide; see `igen_ir::temp_prefix`).
    tmp_prefix: String,
    warnings: Vec<String>,
    /// Detected reduction groups, one per re-emitted pragma marker, in
    /// marker (textual) order. Consumed by the IR reduction pass.
    reduction_groups: Vec<Vec<ReductionInfo>>,
    intrinsics: Vec<String>,
    /// Non-hand-optimized intrinsics whose generated interval
    /// implementation must be appended to the output unit.
    generated_needed: Vec<String>,
}

impl<'c> Xform<'c> {
    pub(crate) fn new(cfg: &'c Config, tmp_prefix: &str) -> Xform<'c> {
        Xform {
            cfg,
            scopes: vec![HashMap::new()],
            tmp: 0,
            tmp_prefix: tmp_prefix.to_string(),
            warnings: Vec::new(),
            reduction_groups: Vec::new(),
            intrinsics: Vec::new(),
            generated_needed: Vec::new(),
        }
    }

    pub(crate) fn into_results(
        self,
    ) -> (Vec<String>, Vec<Vec<ReductionInfo>>, Vec<String>, Vec<String>) {
        (self.warnings, self.reduction_groups, self.intrinsics, self.generated_needed)
    }

    fn fresh_tmp(&mut self) -> String {
        self.tmp += 1;
        format!("{}{}", self.tmp_prefix, self.tmp)
    }

    fn lookup(&self, name: &str) -> Option<&VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn declare(&mut self, name: &str, kind: Kind, emit_name: Option<String>) {
        self.scopes.last_mut().expect("scope").insert(
            name.to_string(),
            VarInfo { kind, emit_name: emit_name.unwrap_or_else(|| name.to_string()) },
        );
    }

    fn sfx(&self) -> &'static str {
        self.cfg.suffix()
    }

    fn ia(&self, op: &str) -> String {
        format!("ia_{op}_{}", self.sfx())
    }

    // --- functions -------------------------------------------------------

    pub(crate) fn function(&mut self, f: &Function) -> Result<Function, CompileError> {
        self.scopes.push(HashMap::new());
        self.tmp = 0;
        let mut prelude: Vec<Stmt> = Vec::new();
        let mut params = Vec::new();
        for p in &f.params {
            let kind = kind_of(&p.ty);
            match p.tol {
                Some(tol) if kind == Kind::Interval => {
                    // Fig. 3: the parameter keeps its scalar type; the body
                    // introduces `_a = ia_set_tol(a, tol)`.
                    let emit = format!("_{}", p.name);
                    prelude.push(Stmt::Decl(VarDecl {
                        ty: Type::Named(self.cfg.interval_type().into()),
                        name: emit.clone(),
                        init: Some(Expr::Call {
                            name: format!("ia_set_tol_{}", self.sfx()),
                            args: vec![Expr::ident(&p.name), float_lit(tol)],
                            loc: Loc::default(),
                        }),
                    }));
                    self.declare(&p.name, Kind::Interval, Some(emit));
                    params.push(Param { ty: p.ty.clone(), name: p.name.clone(), tol: None });
                }
                _ => {
                    self.declare(&p.name, kind.clone(), None);
                    params.push(Param {
                        ty: promote(&p.ty, self.cfg),
                        name: p.name.clone(),
                        tol: None,
                    });
                }
            }
        }
        let body = match &f.body {
            None => None,
            Some(stmts) => {
                let mut out = prelude;
                out.extend(self.stmts(stmts)?);
                Some(out)
            }
        };
        self.scopes.pop();
        Ok(Function { ret: promote(&f.ret, self.cfg), name: f.name.clone(), params, body })
    }

    // --- statements ------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < stmts.len() {
            if let Stmt::Pragma(Pragma::IgenReduce(vars)) = &stmts[i] {
                if self.cfg.reductions
                    && i + 1 < stmts.len()
                    && matches!(&stmts[i + 1], Stmt::For { .. })
                {
                    // Section VI-B: analyze the annotated loop nest here
                    // (variable scopes are only known during lowering); the
                    // rewrite itself is the IR reduction pass. The pragma is
                    // kept directly before the lowered loop as its marker.
                    let loop_slice = std::slice::from_ref(&stmts[i + 1]);
                    let reds = detect_in_stmts(loop_slice, vars);
                    self.stmt(&stmts[i + 1], &mut out)?;
                    if !reds.is_empty() {
                        self.reduction_groups.push(reds);
                        // The loop statement is the last one pushed; any
                        // condition temporaries precede the marker.
                        let pragma = Stmt::Pragma(Pragma::IgenReduce(vars.clone()));
                        out.insert(out.len() - 1, pragma);
                    }
                    i += 2;
                    continue;
                }
                // Pragma without transformation enabled: drop it.
                i += 1;
                continue;
            }
            self.stmt(&stmts[i], &mut out)?;
            i += 1;
        }
        Ok(out)
    }

    fn block(&mut self, s: &Stmt) -> Result<Stmt, CompileError> {
        // Transforms a single statement into a block if temporaries are
        // needed.
        let mut out = Vec::new();
        self.stmt(s, &mut out)?;
        if out.len() == 1 {
            Ok(out.pop().unwrap())
        } else {
            Ok(Stmt::Block(out))
        }
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        match s {
            Stmt::Decl(d) => {
                let kind = kind_of(&d.ty);
                let ty = promote(&d.ty, self.cfg);
                let init = match &d.init {
                    None => None,
                    Some(e) => {
                        if kind == Kind::Interval {
                            let v = self.expr(e, out)?;
                            Some(self.lower_interval_expr(v, out))
                        } else {
                            let v = self.expr(e, out)?;
                            Some(self.lower_plain_expr(v, out))
                        }
                    }
                };
                self.declare(&d.name, kind, None);
                out.push(Stmt::Decl(VarDecl { ty, name: d.name.clone(), init }));
                Ok(())
            }
            Stmt::Expr(e) => {
                let v = self.expr(e, out)?;
                if let XVal::V(expr, _) = v {
                    out.push(Stmt::Expr(expr));
                }
                Ok(())
            }
            Stmt::Block(body) => {
                self.scopes.push(HashMap::new());
                let inner = self.stmts(body)?;
                self.scopes.pop();
                out.push(Stmt::Block(inner));
                Ok(())
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.xf_if(cond, then_branch, else_branch.as_deref(), out)
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                let init2 = match init.as_deref() {
                    None => None,
                    Some(st) => {
                        let mut tmp_out = Vec::new();
                        self.stmt(st, &mut tmp_out)?;
                        if tmp_out.len() != 1 {
                            return Err(CompileError::Unsupported {
                                loc: Loc::default(),
                                msg: "loop init requiring temporaries".into(),
                            });
                        }
                        Some(Box::new(tmp_out.pop().unwrap()))
                    }
                };
                let cond2 = match cond {
                    None => None,
                    Some(c) => Some(self.cond_inline(c, out)?),
                };
                let step2 = match step {
                    None => None,
                    Some(e) => {
                        let v = self.expr(e, &mut Vec::new())?;
                        Some(self.lower_plain_expr(v, out))
                    }
                };
                let body2 = self.block(body)?;
                self.scopes.pop();
                out.push(Stmt::For {
                    init: init2,
                    cond: cond2,
                    step: step2,
                    body: Box::new(body2),
                });
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond2 = self.cond_inline(cond, out)?;
                let body2 = self.block(body)?;
                out.push(Stmt::While { cond: cond2, body: Box::new(body2) });
                Ok(())
            }
            Stmt::Switch { cond, arms } => {
                // The controlling expression must stay an integer
                // (C99 6.8.4.2; floating-point selectors would need the
                // undecidable-branch machinery and are not valid C
                // anyway).
                let cv = self.expr(cond, out)?;
                if xval_is_intervalish(&cv) {
                    return Err(CompileError::Unsupported {
                        loc: cond.loc(),
                        msg: "switch on a floating-point controlling expression".into(),
                    });
                }
                let cond2 = self.lower_plain_expr(cv, out);
                let mut arms2 = Vec::new();
                for arm in arms {
                    let mut body2 = Vec::new();
                    for st in &arm.body {
                        self.stmt(st, &mut body2)?;
                    }
                    arms2.push(SwitchArm { label: arm.label, body: body2 });
                }
                out.push(Stmt::Switch { cond: cond2, arms: arms2 });
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let body2 = self.block(body)?;
                let cond2 = self.cond_inline(cond, out)?;
                out.push(Stmt::DoWhile { body: Box::new(body2), cond: cond2 });
                Ok(())
            }
            Stmt::Return(e) => {
                let e2 = match e {
                    None => None,
                    Some(e) => {
                        let v = self.expr(e, out)?;
                        // Interval-valued calls are materialized into a
                        // temporary first, matching the paper's output
                        // shape (Fig. 3 returns `t1`).
                        Some(match v {
                            XVal::V(x @ Expr::Call { .. }, Kind::Interval) => {
                                self.as_operand(XVal::V(x, Kind::Interval), out)
                            }
                            XVal::Const(c) => self.const_expr(&c),
                            XVal::V(x, _) => x,
                        })
                    }
                };
                out.push(Stmt::Return(e2));
                Ok(())
            }
            Stmt::Break => {
                out.push(Stmt::Break);
                Ok(())
            }
            Stmt::Continue => {
                out.push(Stmt::Continue);
                Ok(())
            }
            Stmt::Pragma(p) => {
                out.push(Stmt::Pragma(p.clone()));
                Ok(())
            }
            Stmt::Empty => Ok(()),
        }
    }

    /// Branch transformation (Section IV-B, Fig. 2 lines 9–12).
    fn xf_if(
        &mut self,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CompileError> {
        let cv = self.expr(cond, out)?;
        match cv {
            XVal::V(ce, Kind::TBool) => {
                // tbool t = <cmp>; if (ia_cvt2bool_tb(t)) …
                let t = self.fresh_tmp();
                out.push(Stmt::Decl(VarDecl {
                    ty: Type::Named("tbool".into()),
                    name: t.clone(),
                    init: Some(ce),
                }));
                let decision = Expr::call("ia_cvt2bool_tb", vec![Expr::ident(&t)]);
                match self.cfg.branch_policy {
                    BranchPolicy::Exception => {
                        let tb = self.block(then_branch)?;
                        let eb = match else_branch {
                            Some(e) => Some(Box::new(self.block(e)?)),
                            None => None,
                        };
                        out.push(Stmt::If {
                            cond: decision,
                            then_branch: Box::new(tb),
                            else_branch: eb,
                        });
                        Ok(())
                    }
                    BranchPolicy::JoinBranches => {
                        self.xf_if_join(&t, then_branch, else_branch, out)
                    }
                }
            }
            other => {
                // Integer condition: untouched.
                let ce = self.lower_plain_expr(other, out);
                let tb = self.block(then_branch)?;
                let eb = match else_branch {
                    Some(e) => Some(Box::new(self.block(e)?)),
                    None => None,
                };
                out.push(Stmt::If { cond: ce, then_branch: Box::new(tb), else_branch: eb });
                Ok(())
            }
        }
    }

    /// The join-both-branches alternative (Section IV-B "Unknown-state in
    /// if-else statements").
    fn xf_if_join(
        &mut self,
        tvar: &str,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CompileError> {
        // Which variables do the branches modify?
        let mut modified = Vec::new();
        let mut join_ok = true;
        collect_modified(then_branch, &mut modified);
        if let Some(e) = else_branch {
            collect_modified(e, &mut modified);
        }
        modified.sort();
        modified.dedup();
        for name in &modified {
            match self.lookup(name).map(|v| v.kind.clone()) {
                Some(Kind::Interval) => {}
                _ => {
                    join_ok = false;
                }
            }
        }
        if !join_ok {
            self.warnings.push(
                "join-branches policy disabled for a branch modifying arrays or integer \
                 variables; falling back to exception policy"
                    .to_string(),
            );
            let tb = self.block(then_branch)?;
            let eb = match else_branch {
                Some(e) => Some(Box::new(self.block(e)?)),
                None => None,
            };
            out.push(Stmt::If {
                cond: Expr::call("ia_cvt2bool_tb", vec![Expr::ident(tvar)]),
                then_branch: Box::new(tb),
                else_branch: eb,
            });
            return Ok(());
        }
        // if (ia_is_true_tb(t)) { THEN } else if (ia_is_false_tb(t)) { ELSE }
        // else { save; THEN; swap; ELSE; join }
        let ity = Type::Named(self.cfg.interval_type().into());
        let tb = self.block(then_branch)?;
        let eb = match else_branch {
            Some(e) => self.block(e)?,
            None => Stmt::Block(vec![]),
        };
        let mut both: Vec<Stmt> = Vec::new();
        // Save originals.
        for name in &modified {
            let emit = self.lookup(name).map(|v| v.emit_name.clone()).unwrap_or(name.clone());
            both.push(Stmt::Decl(VarDecl {
                ty: ity.clone(),
                name: format!("_save_{name}"),
                init: Some(Expr::ident(&emit)),
            }));
        }
        both.push(self.block(then_branch)?);
        for name in &modified {
            let emit = self.lookup(name).map(|v| v.emit_name.clone()).unwrap_or(name.clone());
            both.push(Stmt::Decl(VarDecl {
                ty: ity.clone(),
                name: format!("_then_{name}"),
                init: Some(Expr::ident(&emit)),
            }));
            both.push(Stmt::Expr(assign(
                Expr::ident(&emit),
                Expr::ident(&format!("_save_{name}")),
                Loc::default(),
            )));
        }
        both.push(match else_branch {
            Some(e) => self.block(e)?,
            None => Stmt::Block(vec![]),
        });
        for name in &modified {
            let emit = self.lookup(name).map(|v| v.emit_name.clone()).unwrap_or(name.clone());
            both.push(Stmt::Expr(assign(
                Expr::ident(&emit),
                Expr::Call {
                    name: self.ia("join"),
                    args: vec![Expr::ident(&format!("_then_{name}")), Expr::ident(&emit)],
                    loc: Loc::default(),
                },
                Loc::default(),
            )));
        }
        out.push(Stmt::If {
            cond: Expr::call("ia_is_true_tb", vec![Expr::ident(tvar)]),
            then_branch: Box::new(tb),
            else_branch: Some(Box::new(Stmt::If {
                cond: Expr::call("ia_is_false_tb", vec![Expr::ident(tvar)]),
                then_branch: Box::new(eb),
                else_branch: Some(Box::new(Stmt::Block(both))),
            })),
        });
        Ok(())
    }

    /// A condition expression used inline (loop conditions): a tbool
    /// comparison becomes `ia_cvt2bool_tb(cmp)`.
    fn cond_inline(&mut self, c: &Expr, out: &mut Vec<Stmt>) -> Result<Expr, CompileError> {
        let v = self.expr(c, out)?;
        Ok(match v {
            XVal::V(e, Kind::TBool) => Expr::call("ia_cvt2bool_tb", vec![e]),
            other => self.lower_plain_expr(other, out),
        })
    }

    // --- expressions -----------------------------------------------------

    /// Materializes an `XVal` into an interval-typed expression (constants
    /// become `ia_set_*` calls).
    fn lower_interval_expr(&mut self, v: XVal, _out: &mut [Stmt]) -> Expr {
        match v {
            XVal::Const(c) => self.const_expr(&c),
            XVal::V(e, Kind::Int) => {
                // Integer used in interval context: exact conversion.
                Expr::Call {
                    name: format!("ia_set_int_{}", self.sfx()),
                    args: vec![e],
                    loc: Loc::default(),
                }
            }
            XVal::V(e, _) => e,
        }
    }

    fn lower_plain_expr(&mut self, v: XVal, _out: &mut [Stmt]) -> Expr {
        match v {
            XVal::Const(c) => self.const_expr(&c),
            XVal::V(e, _) => e,
        }
    }

    /// `ia_set_f64(lo, hi)` for a constant interval (Fig. 2 line 6).
    /// Under the f32 target the fold is done at f64 and demoted outward,
    /// which keeps the enclosure sound.
    fn const_expr(&self, c: &F64I) -> Expr {
        let (lo, hi) = if self.cfg.precision == Precision::F32 {
            let f = igen_interval::F32I::from_f64i(c);
            (f.lo() as f64, f.hi() as f64)
        } else {
            (c.lo(), c.hi())
        };
        Expr::Call {
            name: format!("ia_set_{}", self.sfx()),
            args: vec![float_lit(lo), float_lit(hi)],
            loc: Loc::default(),
        }
    }

    /// Operand materialization: nested interval calls become `t<N>`
    /// temporaries (Fig. 2 lines 5–7); constants become `ia_set` temps.
    fn as_operand(&mut self, v: XVal, out: &mut Vec<Stmt>) -> Expr {
        match v {
            XVal::Const(c) => {
                let e = self.const_expr(&c);
                let t = self.fresh_tmp();
                out.push(Stmt::Decl(VarDecl {
                    ty: Type::Named(self.cfg.interval_type().into()),
                    name: t.clone(),
                    init: Some(e),
                }));
                Expr::ident(&t)
            }
            XVal::V(e @ Expr::Call { .. }, Kind::Interval) => {
                let t = self.fresh_tmp();
                out.push(Stmt::Decl(VarDecl {
                    ty: Type::Named(self.cfg.interval_type().into()),
                    name: t.clone(),
                    init: Some(e),
                }));
                Expr::ident(&t)
            }
            XVal::V(e, _) => e,
        }
    }

    fn expr(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Result<XVal, CompileError> {
        match e {
            Expr::IntLit { value, .. } => Ok(XVal::V(e.clone(), Kind::Int).with_int_const(*value)),
            Expr::FloatLit { value, text, tol, .. } => {
                if self.cfg.precision == Precision::Dd {
                    // DD target: enclose the decimal at double-double
                    // precision (~2^-106 relative) — a 53-bit enclosure
                    // would cap the whole computation's accuracy.
                    let (lo, hi) = dd_literal_interval(value.abs(), text);
                    let (lo, hi) = if *tol {
                        (hi.neg(), hi) // t-literal: interval around zero
                    } else if *value < 0.0 {
                        (hi.neg(), lo.neg())
                    } else {
                        (lo, hi)
                    };
                    return Ok(XVal::V(ddx_const(lo, hi), Kind::Interval));
                }
                if *tol {
                    Ok(XVal::Const(tolerance_interval(*value, text)))
                } else {
                    Ok(XVal::Const(literal_interval(*value, text)))
                }
            }
            Expr::Ident(name, loc) => match self.lookup(name) {
                Some(vi) => Ok(XVal::V(Expr::Ident(vi.emit_name.clone(), *loc), vi.kind.clone())),
                None => Ok(XVal::V(e.clone(), Kind::Int)),
            },
            Expr::Unary(op, inner) => self.unary(*op, inner, out),
            Expr::PostIncDec(inner, inc) => {
                let v = self.expr(inner, out)?;
                match v {
                    XVal::V(e2, Kind::Int) => {
                        Ok(XVal::V(Expr::PostIncDec(Box::new(e2), *inc), Kind::Int))
                    }
                    _ => Err(CompileError::Unsupported {
                        loc: inner.loc(),
                        msg: "increment of a floating-point value".into(),
                    }),
                }
            }
            Expr::Binary { op, lhs, rhs, loc } => self.binary(*op, lhs, rhs, *loc, out),
            Expr::Assign { op, lhs, rhs, loc } => self.assign_expr(*op, lhs, rhs, *loc, out),
            Expr::Call { name, args, loc } => self.call(name, args, *loc, out),
            Expr::Index(base, idx) => {
                let b = self.expr(base, out)?;
                let i = self.expr(idx, out)?;
                let i_e = self.lower_plain_expr(i, out);
                match b {
                    XVal::V(be, kind) => {
                        Ok(XVal::V(Expr::Index(Box::new(be), Box::new(i_e)), kind))
                    }
                    XVal::Const(_) => Err(CompileError::Unsupported {
                        loc: base.loc(),
                        msg: "indexing a constant".into(),
                    }),
                }
            }
            Expr::Member { base, field, arrow } => {
                let b = self.expr(base, out)?;
                let be = self.lower_plain_expr(b, out);
                // Union member access (generated intrinsics): `.f` holds
                // promoted intervals, `.v` the packed vector. The integer
                // view `.i` is rewritten to the interval view with the
                // MaskBits kind: bitwise operations on it become the
                // endpoint-wise interval mask operations of Section V.
                let (field2, kind) = match field.as_str() {
                    "f" => ("f".to_string(), Kind::Interval),
                    "i" => ("f".to_string(), Kind::MaskBits),
                    other => (other.to_string(), Kind::Other),
                };
                Ok(XVal::V(Expr::Member { base: Box::new(be), field: field2, arrow: *arrow }, kind))
            }
            Expr::Cast(ty, inner) => {
                let v = self.expr(inner, out)?;
                let target = kind_of(ty);
                match (&v, &target) {
                    (XVal::Const(_), Kind::Interval) => Ok(v),
                    (XVal::V(_, Kind::Interval), Kind::Int) => Err(CompileError::Unsupported {
                        loc: inner.loc(),
                        msg: "cast from floating-point to integer (intervals on integers are \
                              not implemented)"
                            .into(),
                    }),
                    (XVal::V(_, Kind::Int), Kind::Interval) => {
                        let e2 = self.lower_plain_expr(v, out);
                        Ok(XVal::V(
                            Expr::Call {
                                name: format!("ia_set_int_{}", self.sfx()),
                                args: vec![e2],
                                loc: Loc::default(),
                            },
                            Kind::Interval,
                        ))
                    }
                    (XVal::V(_, Kind::Interval), Kind::Interval) => Ok(v),
                    _ => {
                        let e2 = self.lower_plain_expr(v, out);
                        Ok(XVal::V(Expr::Cast(promote(ty, self.cfg), Box::new(e2)), target))
                    }
                }
            }
            Expr::Cond(c, t, f) => {
                let cv = self.cond_inline(c, out)?;
                let tv = self.expr(t, out)?;
                let fv = self.expr(f, out)?;
                let t_e = self.lower_plain_expr(tv, out);
                let f_e = self.lower_plain_expr(fv, out);
                let kind = Kind::Interval; // conservative; ints pass through fine
                Ok(XVal::V(Expr::Cond(Box::new(cv), Box::new(t_e), Box::new(f_e)), kind))
            }
        }
    }

    fn unary(&mut self, op: UnOp, inner: &Expr, out: &mut Vec<Stmt>) -> Result<XVal, CompileError> {
        let v = self.expr(inner, out)?;
        match op {
            UnOp::Neg => match v {
                XVal::Const(c) => Ok(XVal::Const(-c)),
                XVal::V(e, Kind::Interval) => {
                    let operand = self.as_operand(XVal::V(e, Kind::Interval), out);
                    Ok(XVal::V(
                        Expr::Call {
                            name: self.ia("neg"),
                            args: vec![operand],
                            loc: Loc::default(),
                        },
                        Kind::Interval,
                    ))
                }
                XVal::V(e, k) => Ok(XVal::V(Expr::Unary(UnOp::Neg, Box::new(e)), k)),
            },
            UnOp::Plus => Ok(v),
            UnOp::Not => {
                let e = self.lower_plain_expr(v, out);
                Ok(XVal::V(Expr::Unary(UnOp::Not, Box::new(e)), Kind::Int))
            }
            UnOp::BitNot => match v {
                XVal::V(e, Kind::Int) => {
                    Ok(XVal::V(Expr::Unary(UnOp::BitNot, Box::new(e)), Kind::Int))
                }
                XVal::V(e, Kind::MaskBits) => Ok(XVal::V(
                    Expr::Call { name: self.ia("not"), args: vec![e], loc: Loc::default() },
                    Kind::MaskBits,
                )),
                _ => Err(CompileError::Unsupported {
                    loc: inner.loc(),
                    msg: "bit-level manipulation of floating-point values".into(),
                }),
            },
            UnOp::Deref => {
                let k = match &v {
                    XVal::V(_, k) => k.clone(),
                    _ => Kind::Other,
                };
                let e = self.lower_plain_expr(v, out);
                Ok(XVal::V(Expr::Unary(UnOp::Deref, Box::new(e)), k))
            }
            UnOp::Addr => {
                let k = match &v {
                    XVal::V(_, k) => k.clone(),
                    _ => Kind::Other,
                };
                let e = self.lower_plain_expr(v, out);
                Ok(XVal::V(Expr::Unary(UnOp::Addr, Box::new(e)), k))
            }
            UnOp::PreInc | UnOp::PreDec => {
                let e = self.lower_plain_expr(v, out);
                Ok(XVal::V(Expr::Unary(op, Box::new(e)), Kind::Int))
            }
        }
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        loc: Loc,
        out: &mut Vec<Stmt>,
    ) -> Result<XVal, CompileError> {
        // Optional rewrite (Config::sqr_rewrite): `e * e` on structurally
        // identical side-effect-free operands (`x`, `v[i]`, `p.f`) becomes
        // the dependency-aware `ia_sqr_*` — tighter when the interval
        // straddles zero, identical otherwise. Purity guarantees that
        // evaluating the operand once instead of twice is unobservable.
        if self.cfg.sqr_rewrite && op == BinOp::Mul && pure_same_operand(lhs, rhs) {
            let v = self.expr(lhs, out)?;
            if xval_is_intervalish(&v) {
                let e = self.lower_interval_expr(v, out);
                return Ok(XVal::V(
                    Expr::Call { name: self.ia("sqr"), args: vec![e], loc },
                    Kind::Interval,
                ));
            }
            // Not an interval (e.g. integer): fall through to the plain
            // lowering below by re-wrapping the already-evaluated value.
            let le = self.lower_plain_expr(v, out);
            return Ok(XVal::V(
                Expr::Binary { op, lhs: Box::new(le.clone()), rhs: Box::new(le), loc },
                Kind::Int,
            ));
        }
        let lv = self.expr(lhs, out)?;
        let rv = self.expr(rhs, out)?;
        // Bitwise operations touching a union integer view: endpoint-wise
        // interval mask operations (Section V). Shifts and arithmetic on
        // the raw bits are outside the supported subset.
        let mask_involved =
            matches!(&lv, XVal::V(_, Kind::MaskBits)) || matches!(&rv, XVal::V(_, Kind::MaskBits));
        if mask_involved {
            let fname = match op {
                BinOp::BitAnd => "and",
                BinOp::BitOr => "or",
                BinOp::BitXor => "xor",
                _ => {
                    return Err(CompileError::Unsupported {
                        loc,
                        msg: format!(
                            "operator `{}` on the integer view of a floating-point vector \
                             (bit-level manipulation, Section IV-B)",
                            op.as_str()
                        ),
                    })
                }
            };
            let le = self.lower_plain_expr(lv, out);
            let re = self.lower_plain_expr(rv, out);
            return Ok(XVal::V(
                Expr::Call { name: self.ia(fname), args: vec![le, re], loc },
                Kind::MaskBits,
            ));
        }
        let interval_involved = xval_is_intervalish(&lv) || xval_is_intervalish(&rv);
        if !interval_involved {
            // Pure integer expression: rebuild.
            let le = self.lower_plain_expr(lv, out);
            let re = self.lower_plain_expr(rv, out);
            return Ok(XVal::V(
                Expr::Binary { op, lhs: Box::new(le), rhs: Box::new(re), loc },
                Kind::Int,
            ));
        }
        // Constant folding on intervals (Section IV-B): only for f64
        // precision, where the compile-time arithmetic matches the runtime.
        if let (XVal::Const(a), XVal::Const(b)) = (&lv, &rv) {
            if self.cfg.precision == crate::config::Precision::F64 {
                let folded = match op {
                    BinOp::Add => Some(*a + *b),
                    BinOp::Sub => Some(*a - *b),
                    BinOp::Mul => Some(*a * *b),
                    BinOp::Div => Some(*a / *b),
                    _ => None,
                };
                if let Some(c) = folded {
                    return Ok(XVal::Const(c));
                }
            }
        }
        if op.is_comparison() {
            let cmp = match op {
                BinOp::Lt => "cmplt",
                BinOp::Le => "cmple",
                BinOp::Gt => "cmpgt",
                BinOp::Ge => "cmpge",
                BinOp::Eq => "cmpeq",
                BinOp::Ne => "cmpne",
                _ => unreachable!(),
            };
            let (le, re) = self.two_interval_operands(lv, rv, out);
            return Ok(XVal::V(
                Expr::Call { name: self.ia(cmp), args: vec![le, re], loc },
                Kind::TBool,
            ));
        }
        let fname = match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::BitAnd => "and",
            BinOp::BitOr => "or",
            BinOp::BitXor => "xor",
            BinOp::Rem | BinOp::Shl | BinOp::Shr => {
                return Err(CompileError::Unsupported {
                    loc,
                    msg: format!("operator `{}` on floating-point values", op.as_str()),
                })
            }
            BinOp::And | BinOp::Or => {
                return Err(CompileError::Unsupported {
                    loc,
                    msg: "logical operator on floating-point values".into(),
                })
            }
            _ => unreachable!(),
        };
        let (le, re) = self.two_interval_operands(lv, rv, out);
        Ok(XVal::V(Expr::Call { name: self.ia(fname), args: vec![le, re], loc }, Kind::Interval))
    }

    fn two_interval_operands(&mut self, lv: XVal, rv: XVal, out: &mut Vec<Stmt>) -> (Expr, Expr) {
        let lv = self.lift_int(lv);
        let rv = self.lift_int(rv);
        let le = self.as_operand(lv, out);
        let re = self.as_operand(rv, out);
        (le, re)
    }

    /// Lifts integer *constants* appearing in interval arithmetic to exact
    /// interval constants (e.g. the `1` in `1 - a*xi*xi`).
    fn lift_int(&mut self, v: XVal) -> XVal {
        match v {
            XVal::V(Expr::IntLit { value, .. }, Kind::Int) => {
                XVal::Const(F64I::point(value as f64))
            }
            other => other,
        }
    }

    fn assign_expr(
        &mut self,
        op: AssignOp,
        lhs: &Expr,
        rhs: &Expr,
        loc: Loc,
        out: &mut Vec<Stmt>,
    ) -> Result<XVal, CompileError> {
        let lv = self.expr(lhs, out)?;
        let XVal::V(l_e, l_kind) = lv else {
            return Err(CompileError::Unsupported { loc, msg: "assignment to a constant".into() });
        };
        match (op.bin_op(), &l_kind) {
            (None, Kind::Interval | Kind::MaskBits) => {
                let rv = self.expr(rhs, out)?;
                let r_e = self.lower_interval_expr(rv, out);
                Ok(XVal::V(assign(l_e, r_e, loc), Kind::Interval))
            }
            (Some(bop), Kind::Interval) => {
                // a += b  →  a = ia_add(a, b)
                let combined = Expr::Binary {
                    op: bop,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(rhs.clone()),
                    loc,
                };
                let rv = self.expr(&combined, out)?;
                let r_e = self.lower_interval_expr(rv, out);
                Ok(XVal::V(assign(l_e, r_e, loc), Kind::Interval))
            }
            _ => {
                let rv = self.expr(rhs, out)?;
                let r_e = self.lower_plain_expr(rv, out);
                Ok(XVal::V(
                    Expr::Assign { op, lhs: Box::new(l_e), rhs: Box::new(r_e), loc },
                    l_kind,
                ))
            }
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        loc: Loc,
        out: &mut Vec<Stmt>,
    ) -> Result<XVal, CompileError> {
        // Elementary function detection by name and signature (§IV-B).
        // pow with a compile-time integer exponent lowers to the
        // dependency-aware `ia_pow_*` kernel (tighter than the repeated
        // multiplication a user would otherwise write: even powers never
        // dip below zero). Other exponents stay unsupported, matching
        // the runtime library.
        if name == "pow" && args.len() == 2 {
            let n: Option<i64> = match &args[1] {
                Expr::IntLit { value, .. } => Some(*value),
                Expr::FloatLit { value, .. }
                    if value.fract() == 0.0 && value.abs() <= i32::MAX as f64 =>
                {
                    Some(*value as i64)
                }
                Expr::Unary(UnOp::Neg, inner) => match &**inner {
                    Expr::IntLit { value, .. } => Some(-*value),
                    Expr::FloatLit { value, .. }
                        if value.fract() == 0.0 && value.abs() <= i32::MAX as f64 =>
                    {
                        Some(-(*value as i64))
                    }
                    _ => None,
                },
                _ => None,
            };
            let Some(n) = n.filter(|n| i32::try_from(*n).is_ok()) else {
                return Err(CompileError::Unsupported {
                    loc,
                    msg: "pow() is supported only with a compile-time integer exponent \
                          (the runtime library provides integer powers only)"
                        .to_string(),
                });
            };
            let base = self.expr(&args[0], out)?;
            let base = self.lift_int(base);
            let base = self.as_operand(base, out);
            return Ok(XVal::V(
                Expr::Call { name: self.ia("pow"), args: vec![base, Expr::int(n)], loc },
                Kind::Interval,
            ));
        }
        let elementary: Option<&str> = match (name, args.len()) {
            ("sqrt", 1) => Some("sqrt"),
            ("fabs", 1) => Some("abs"),
            ("floor", 1) => Some("floor"),
            ("ceil", 1) => Some("ceil"),
            ("exp", 1) => Some("exp"),
            ("log", 1) => Some("log"),
            ("sin", 1) => Some("sin"),
            ("cos", 1) => Some("cos"),
            ("tan", 1) => Some("tan"),
            ("atan", 1) => Some("atan"),
            ("asin", 1) => Some("asin"),
            ("acos", 1) => Some("acos"),
            ("fmin", 2) => Some("min"),
            ("fmax", 2) => Some("max"),
            _ => None,
        };
        if let Some(ia_name) = elementary {
            if self.cfg.precision == crate::config::Precision::Dd
                && !matches!(ia_name, "sqrt" | "abs" | "min" | "max" | "floor" | "ceil")
            {
                return Err(CompileError::Unsupported {
                    loc,
                    msg: format!(
                        "elementary function `{name}` in double-double precision (the paper's \
                         library does not support them either)"
                    ),
                });
            }
            let mut xargs = Vec::new();
            for a in args {
                let v = self.expr(a, out)?;
                let v = self.lift_int(v);
                xargs.push(self.as_operand(v, out));
            }
            return Ok(XVal::V(
                Expr::Call { name: self.ia(ia_name), args: xargs, loc },
                Kind::Interval,
            ));
        }
        if name == "malloc" {
            self.warnings.push(format!(
                "line {}: malloc() size argument is not adjusted for interval types; \
                 sizeof-based allocation must be reviewed manually",
                loc.line
            ));
        }
        if let Some(stripped) = name.strip_prefix("_mm") {
            // SIMD intrinsic in the input (Section V): hand-optimized
            // intrinsics map to the runtime's `ia_mm…` kernels; the rest
            // call the automatically generated interval implementation
            // `_c_mm…`, which transform_unit appends to the output.
            self.intrinsics.push(name.to_string());
            let mut xargs = Vec::new();
            for a in args {
                let v = self.expr(a, out)?;
                xargs.push(self.lower_plain_expr(v, out));
            }
            let kind = intrinsic_result_kind(name);
            if crate::simd::hand_optimized(name) {
                return Ok(XVal::V(
                    Expr::Call { name: format!("ia_mm{stripped}"), args: xargs, loc },
                    kind,
                ));
            }
            self.generated_needed.push(name.to_string());
            return Ok(XVal::V(Expr::Call { name: format!("_c{name}"), args: xargs, loc }, kind));
        }
        // Ordinary call: arguments promoted, name kept.
        let mut xargs = Vec::new();
        for a in args {
            let v = self.expr(a, out)?;
            let v2 = match v {
                XVal::Const(c) => XVal::V(self.const_expr(&c), Kind::Interval),
                other => other,
            };
            xargs.push(self.lower_plain_expr(v2, out));
        }
        Ok(XVal::V(
            Expr::Call { name: name.to_string(), args: xargs, loc },
            Kind::Interval, // unknown user functions: assume interval result
        ))
    }
}

impl XVal {
    fn with_int_const(self, _v: i64) -> XVal {
        self
    }
}

/// True when `a` and `b` are structurally the same side-effect-free
/// operand (location-insensitive): a variable, an indexed access with a
/// pure index, or a member access. Used by the `sqr_rewrite` option.
fn pure_same_operand(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Ident(x, _), Expr::Ident(y, _)) => x == y,
        (Expr::IntLit { value: x, .. }, Expr::IntLit { value: y, .. }) => x == y,
        (Expr::Index(xb, xi), Expr::Index(yb, yi)) => {
            pure_same_operand(xb, yb) && pure_same_operand(xi, yi)
        }
        (
            Expr::Member { base: xb, field: xf, arrow: xa },
            Expr::Member { base: yb, field: yf, arrow: ya },
        ) => xf == yf && xa == ya && pure_same_operand(xb, yb),
        _ => false,
    }
}

fn xval_is_intervalish(v: &XVal) -> bool {
    match v {
        XVal::Const(_) => true,
        XVal::V(_, k) => k.is_intervalish() || matches!(k, Kind::MaskBits),
    }
}

/// Result kind of an interval intrinsic by name.
fn intrinsic_result_kind(name: &str) -> Kind {
    if name.contains("store") {
        Kind::Other
    } else if name.starts_with("_mm256") {
        Kind::IntervalVec(2)
    } else {
        Kind::IntervalVec(1)
    }
}

/// A plain `lhs = rhs` assignment. `loc` carries the source location of
/// the original assignment; the IR reduction pass matches accumulate
/// stores by this location (compiler-synthesized assignments pass
/// [`Loc::default`]).
fn assign(lhs: Expr, rhs: Expr, loc: Loc) -> Expr {
    Expr::Assign { op: AssignOp::Assign, lhs: Box::new(lhs), rhs: Box::new(rhs), loc }
}

fn float_lit(v: f64) -> Expr {
    Expr::FloatLit { value: v, text: fmt_f64(v), f32: false, tol: false }
}

/// `ia_set_ddx(lo_hi, lo_lo, hi_hi, hi_lo)`: a double-double interval
/// constant with full-precision endpoints.
fn ddx_const(lo: igen_dd::Dd, hi: igen_dd::Dd) -> Expr {
    Expr::Call {
        name: "ia_set_ddx".to_string(),
        args: vec![float_lit(lo.hi()), float_lit(lo.lo()), float_lit(hi.hi()), float_lit(hi.lo())],
        loc: Loc::default(),
    }
}

/// Variables assigned anywhere in a statement (for the join policy's
/// modified-set analysis).
fn collect_modified(s: &Stmt, out: &mut Vec<String>) {
    fn expr_mods(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Assign { lhs, rhs, .. } => {
                if let Expr::Ident(n, _) = &**lhs {
                    out.push(n.clone());
                } else if let Expr::Index(b, _) = &**lhs {
                    // Array writes: marked with a sentinel so the caller
                    // rejects the join.
                    if let Expr::Ident(n, _) = &**b {
                        out.push(format!("{n}[]"));
                    }
                }
                expr_mods(rhs, out);
            }
            Expr::Binary { lhs, rhs, .. } => {
                expr_mods(lhs, out);
                expr_mods(rhs, out);
            }
            Expr::Unary(_, i) | Expr::Cast(_, i) | Expr::PostIncDec(i, _) => expr_mods(i, out),
            Expr::Call { args, .. } => args.iter().for_each(|a| expr_mods(a, out)),
            Expr::Index(b, i) => {
                expr_mods(b, out);
                expr_mods(i, out);
            }
            Expr::Cond(c, t, f) => {
                expr_mods(c, out);
                expr_mods(t, out);
                expr_mods(f, out);
            }
            _ => {}
        }
    }
    match s {
        Stmt::Expr(e) => expr_mods(e, out),
        Stmt::Decl(d) => {
            if let Some(i) = &d.init {
                expr_mods(i, out);
            }
        }
        Stmt::Block(b) => b.iter().for_each(|s| collect_modified(s, out)),
        Stmt::If { then_branch, else_branch, .. } => {
            collect_modified(then_branch, out);
            if let Some(e) = else_branch {
                collect_modified(e, out);
            }
        }
        Stmt::For { init, step, body, .. } => {
            if let Some(i) = init {
                collect_modified(i, out);
            }
            if let Some(st) = step {
                expr_mods(st, out);
            }
            collect_modified(body, out);
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => collect_modified(body, out),
        Stmt::Switch { arms, .. } => {
            for arm in arms {
                arm.body.iter().for_each(|s| collect_modified(s, out));
            }
        }
        _ => {}
    }
}

/// The pieces whole-unit lowering produces: the lowered unit, warnings,
/// detected reduction groups (one per pragma marker, in marker order),
/// the intrinsics encountered, and the temporaries' name prefix.
pub(crate) type UnitXform =
    (TranslationUnit, Vec<String>, Vec<Vec<ReductionInfo>>, Vec<String>, String);

/// Lowers a full translation unit (type promotion, interval-constant
/// folding, three-address materialization — but no reduction rewriting).
/// Temporaries are named `t1, t2, …` unless the source itself uses such
/// a name, in which case they take the first collision-free prefix.
pub(crate) fn lower_unit(tu: &TranslationUnit, cfg: &Config) -> Result<UnitXform, CompileError> {
    lower_unit_with(tu, cfg, &igen_ir::temp_prefix(&t_names(&[tu])))
}

/// Every source name that could read as a temporary (those starting
/// with `t`): declared and referenced variables, parameters, functions
/// and typedefs.
pub(crate) fn t_names(units: &[&TranslationUnit]) -> Vec<String> {
    fn name(out: &mut Vec<String>, n: &str) {
        if n.starts_with('t') {
            out.push(n.to_string());
        }
    }
    fn expr(out: &mut Vec<String>, e: &Expr) {
        match e {
            Expr::Ident(n, _) => name(out, n),
            Expr::Call { name: n, args, .. } => {
                name(out, n);
                args.iter().for_each(|a| expr(out, a));
            }
            Expr::Unary(_, a) | Expr::PostIncDec(a, _) | Expr::Cast(_, a) => expr(out, a),
            Expr::Member { base, .. } => expr(out, base),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                expr(out, lhs);
                expr(out, rhs);
            }
            Expr::Index(a, b) => {
                expr(out, a);
                expr(out, b);
            }
            Expr::Cond(a, b, c) => [a, b, c].into_iter().for_each(|x| expr(out, x)),
            Expr::IntLit { .. } | Expr::FloatLit { .. } => {}
        }
    }
    fn decl(out: &mut Vec<String>, d: &VarDecl) {
        name(out, &d.name);
        d.init.iter().for_each(|e| expr(out, e));
    }
    fn stmt(out: &mut Vec<String>, s: &Stmt) {
        match s {
            Stmt::Decl(d) => decl(out, d),
            Stmt::Expr(e) | Stmt::Return(Some(e)) => expr(out, e),
            Stmt::Block(b) => b.iter().for_each(|x| stmt(out, x)),
            Stmt::If { cond, then_branch, else_branch } => {
                expr(out, cond);
                stmt(out, then_branch);
                else_branch.iter().for_each(|x| stmt(out, x));
            }
            Stmt::For { init, cond, step, body } => {
                init.iter().for_each(|x| stmt(out, x));
                cond.iter().chain(step).for_each(|x| expr(out, x));
                stmt(out, body);
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                expr(out, cond);
                stmt(out, body);
            }
            Stmt::Switch { cond, arms } => {
                expr(out, cond);
                arms.iter().flat_map(|a| &a.body).for_each(|x| stmt(out, x));
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Pragma(_) | Stmt::Empty => {}
        }
    }
    let mut out = Vec::new();
    for item in units.iter().flat_map(|u| &u.items) {
        match item {
            Item::Global(d) => decl(&mut out, d),
            Item::Typedef(Typedef::Union { name: n, .. } | Typedef::Alias { name: n, .. }) => {
                name(&mut out, n)
            }
            Item::Function(f) => {
                name(&mut out, &f.name);
                f.params.iter().for_each(|p| name(&mut out, &p.name));
                f.body.iter().flatten().for_each(|s| stmt(&mut out, s));
            }
            Item::Include(_) | Item::Pragma(_) => {}
        }
    }
    out
}

fn lower_unit_with(
    tu: &TranslationUnit,
    cfg: &Config,
    prefix: &str,
) -> Result<UnitXform, CompileError> {
    let mut xf = Xform::new(cfg, prefix);
    let mut items = vec![Item::Include("\"igen_lib.h\"".to_string())];
    for item in &tu.items {
        match item {
            Item::Include(s) => {
                // Math/intrinsics headers are superseded by igen_lib.h.
                if !s.contains("math.h") && !s.contains("immintrin") && !s.contains("emmintrin") {
                    items.push(Item::Include(s.clone()));
                }
            }
            Item::Pragma(p) => items.push(Item::Pragma(p.clone())),
            Item::Typedef(td) => items.push(Item::Typedef(promote_typedef(td, cfg))),
            Item::Global(d) => {
                let kind = kind_of(&d.ty);
                let ty = promote(&d.ty, cfg);
                xf.declare(&d.name, kind, None);
                // Global initializers must be constants; fold if interval.
                let init = match &d.init {
                    None => None,
                    Some(e) => {
                        let mut pre = Vec::new();
                        let v = xf.expr(e, &mut pre)?;
                        if !pre.is_empty() {
                            return Err(CompileError::Unsupported {
                                loc: e.loc(),
                                msg: "non-constant global initializer".into(),
                            });
                        }
                        Some(xf.lower_plain_expr(v, &mut pre))
                    }
                };
                items.push(Item::Global(VarDecl { ty, name: d.name.clone(), init }));
            }
            Item::Function(f) => {
                items.push(Item::Function(xf.function(f)?));
            }
        }
    }
    let (warnings, mut reduction_groups, intrinsics, mut needed) = xf.into_results();
    needed.sort();
    needed.dedup();
    if !needed.is_empty() {
        // Fig. 4: generate the C implementation of each needed intrinsic
        // from the specification corpus and self-compile it to interval
        // code, appending it (plus its union typedefs) to the unit.
        let specs = igen_simdgen::corpus_specs();
        let mut gen_items: Vec<Item> = Vec::new();
        let mut kinds: Vec<(i64, igen_simdgen::Elem)> = Vec::new();
        for name in &needed {
            let Some(spec) = specs.iter().find(|s| &s.name == name) else {
                return Err(CompileError::Unsupported {
                    loc: Loc::default(),
                    msg: format!("intrinsic {name} is not in the specification corpus"),
                });
            };
            let f = igen_simdgen::generate_c(spec).map_err(|e| CompileError::Unsupported {
                loc: Loc::default(),
                msg: format!("intrinsic {name}: {e}"),
            })?;
            for ty in spec
                .params
                .iter()
                .map(|p| p.ty.as_str())
                .chain(std::iter::once(spec.rettype.as_str()))
            {
                if let Some(k) = igen_simdgen::vec_kind(ty) {
                    if !kinds.contains(&k) {
                        kinds.push(k);
                    }
                }
            }
            gen_items.push(Item::Function(f));
        }
        let mut gen_unit = TranslationUnit {
            items: kinds
                .iter()
                .map(|&(bits, elem)| Item::Typedef(igen_simdgen::union_typedef(bits, elem)))
                .collect(),
        };
        gen_unit.items.extend(gen_items);
        // The generated intrinsics join this unit, so they share its
        // temporary prefix; relower if their names collide with it.
        let joint = igen_ir::temp_prefix(&t_names(&[tu, &gen_unit]));
        if joint != prefix {
            return lower_unit_with(tu, cfg, &joint);
        }
        let (gen_transformed, w2, g2, _, _) = lower_unit_with(&gen_unit, cfg, prefix)?;
        let _ = w2;
        reduction_groups.extend(g2);
        items.extend(gen_transformed.items.into_iter().filter(|i| !matches!(i, Item::Include(_))));
    }
    Ok((TranslationUnit { items }, warnings, reduction_groups, intrinsics, prefix.to_string()))
}

pub(crate) fn promote_typedef(td: &Typedef, cfg: &Config) -> Typedef {
    match td {
        Typedef::Union { name, fields } => Typedef::Union {
            name: name.clone(),
            fields: fields
                .iter()
                .map(|(ty, n)| {
                    // The integer view of the union stays raw.
                    if n == "i" {
                        (ty.clone(), n.clone())
                    } else {
                        (promote(ty, cfg), n.clone())
                    }
                })
                .collect(),
        },
        Typedef::Alias { name, ty } => Typedef::Alias { name: name.clone(), ty: promote(ty, cfg) },
    }
}
