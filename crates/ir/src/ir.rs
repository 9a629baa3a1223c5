//! The IR node types: a typed three-address form of interval programs.
//!
//! Statements mirror the structured control flow of the C subset; the
//! three-address discipline lives in [`IrStmt::Def`] — every
//! intermediate interval operation is bound to a numbered temporary
//! `t<N>` that is defined exactly once and never reassigned (SSA by
//! construction of the lowering, which materializes nested operations
//! into fresh temporaries as in Fig. 2 of the paper). Named program
//! variables remain mutable and are represented as [`IrExpr::Var`].

use crate::op::{OpKind, Sfx};
use igen_cfront::{AssignOp, BinOp, Loc, Param, Pragma, Type, Typedef, UnOp, VarDecl};

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// Integer literal (source spelling preserved).
    Int {
        /// Value.
        value: i64,
        /// Source spelling.
        text: String,
    },
    /// Floating literal (source spelling preserved).
    Float {
        /// Parsed binary64 value.
        value: f64,
        /// Source spelling (no suffix).
        text: String,
        /// `f` suffix.
        f32: bool,
        /// IGen tolerance suffix `t`.
        tol: bool,
    },
    /// A named program variable (parameter, local, global, accumulator).
    Var(String, Loc),
    /// A numbered SSA temporary `t<N>`.
    Temp(u32),
    /// An interval runtime operation (`ia_*` / `isum_*`).
    Op {
        /// Opcode.
        op: OpKind,
        /// Endpoint precision.
        sfx: Sfx,
        /// Operands.
        args: Vec<IrExpr>,
        /// Source location of the originating expression.
        loc: Loc,
    },
    /// Any other call (user functions, generated `_c_mm…` intrinsics).
    Call {
        /// Callee.
        name: String,
        /// Arguments.
        args: Vec<IrExpr>,
        /// Location.
        loc: Loc,
    },
    /// Unary operation on plain (non-interval) values.
    Unary(UnOp, Box<IrExpr>),
    /// Postfix `x++` / `x--`.
    PostIncDec(Box<IrExpr>, bool),
    /// Plain binary operation (integer arithmetic, index math).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<IrExpr>,
        /// Right operand.
        rhs: Box<IrExpr>,
        /// Location.
        loc: Loc,
    },
    /// Assignment (a store when the target is a variable or memory).
    Assign {
        /// Operator.
        op: AssignOp,
        /// Target lvalue.
        lhs: Box<IrExpr>,
        /// Stored value.
        rhs: Box<IrExpr>,
        /// Location (preserved from the source assignment for the
        /// reduction pass's Polly-style report).
        loc: Loc,
    },
    /// `base[index]` — a memory access.
    Index(Box<IrExpr>, Box<IrExpr>),
    /// `base.field` / `base->field`.
    Member {
        /// Accessed object.
        base: Box<IrExpr>,
        /// Field.
        field: String,
        /// `->`.
        arrow: bool,
    },
    /// C cast.
    Cast(Type, Box<IrExpr>),
    /// Ternary conditional.
    Cond(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
}

impl IrExpr {
    /// Convenience temp reference.
    pub fn temp(n: u32) -> IrExpr {
        IrExpr::Temp(n)
    }

    /// Convenience variable reference.
    pub fn var(name: &str) -> IrExpr {
        IrExpr::Var(name.to_string(), Loc::default())
    }

    /// Visits this expression and all sub-expressions, outside-in.
    pub fn walk(&self, f: &mut dyn FnMut(&IrExpr)) {
        f(self);
        match self {
            IrExpr::Op { args, .. } | IrExpr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            IrExpr::Unary(_, e) | IrExpr::PostIncDec(e, _) | IrExpr::Cast(_, e) => e.walk(f),
            IrExpr::Binary { lhs, rhs, .. } | IrExpr::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            IrExpr::Index(b, i) => {
                b.walk(f);
                i.walk(f);
            }
            IrExpr::Member { base, .. } => base.walk(f),
            IrExpr::Cond(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            _ => {}
        }
    }

    /// Mutably visits this expression and all sub-expressions,
    /// outside-in. The callback may rewrite nodes in place; rewritten
    /// children are still visited.
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut IrExpr)) {
        f(self);
        match self {
            IrExpr::Op { args, .. } | IrExpr::Call { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            IrExpr::Unary(_, e) | IrExpr::PostIncDec(e, _) | IrExpr::Cast(_, e) => e.walk_mut(f),
            IrExpr::Binary { lhs, rhs, .. } | IrExpr::Assign { lhs, rhs, .. } => {
                lhs.walk_mut(f);
                rhs.walk_mut(f);
            }
            IrExpr::Index(b, i) => {
                b.walk_mut(f);
                i.walk_mut(f);
            }
            IrExpr::Member { base, .. } => base.walk_mut(f),
            IrExpr::Cond(c, t, e) => {
                c.walk_mut(f);
                t.walk_mut(f);
                e.walk_mut(f);
            }
            _ => {}
        }
    }

    /// Structural equality ignoring source locations and literal
    /// spellings (value-based).
    pub fn struct_eq(&self, other: &IrExpr) -> bool {
        use IrExpr::*;
        match (self, other) {
            (Int { value: a, .. }, Int { value: b, .. }) => a == b,
            (
                Float { value: a, f32: af, tol: at, .. },
                Float { value: b, f32: bf, tol: bt, .. },
            ) => a.to_bits() == b.to_bits() && af == bf && at == bt,
            (Var(a, _), Var(b, _)) => a == b,
            (Temp(a), Temp(b)) => a == b,
            (Op { op: o1, sfx: s1, args: a1, .. }, Op { op: o2, sfx: s2, args: a2, .. }) => {
                o1 == o2
                    && s1 == s2
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| x.struct_eq(y))
            }
            (Call { name: n1, args: a1, .. }, Call { name: n2, args: a2, .. }) => {
                n1 == n2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| x.struct_eq(y))
            }
            (Unary(o1, e1), Unary(o2, e2)) => o1 == o2 && e1.struct_eq(e2),
            (PostIncDec(e1, i1), PostIncDec(e2, i2)) => i1 == i2 && e1.struct_eq(e2),
            (Binary { op: o1, lhs: l1, rhs: r1, .. }, Binary { op: o2, lhs: l2, rhs: r2, .. }) => {
                o1 == o2 && l1.struct_eq(l2) && r1.struct_eq(r2)
            }
            (Assign { op: o1, lhs: l1, rhs: r1, .. }, Assign { op: o2, lhs: l2, rhs: r2, .. }) => {
                o1 == o2 && l1.struct_eq(l2) && r1.struct_eq(r2)
            }
            (Index(b1, i1), Index(b2, i2)) => b1.struct_eq(b2) && i1.struct_eq(i2),
            (
                Member { base: b1, field: f1, arrow: r1 },
                Member { base: b2, field: f2, arrow: r2 },
            ) => f1 == f2 && r1 == r2 && b1.struct_eq(b2),
            (Cast(t1, e1), Cast(t2, e2)) => t1 == t2 && e1.struct_eq(e2),
            (Cond(c1, t1, f1), Cond(c2, t2, f2)) => {
                c1.struct_eq(c2) && t1.struct_eq(t2) && f1.struct_eq(f2)
            }
            _ => false,
        }
    }

    /// True if the expression contains a memory access (index, deref or
    /// member) anywhere.
    pub fn touches_memory(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                IrExpr::Index(..) | IrExpr::Member { .. } | IrExpr::Unary(UnOp::Deref, _)
            ) {
                found = true;
            }
        });
        found
    }

    /// All named variables referenced anywhere in the expression.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let IrExpr::Var(n, _) = e {
                out.push(n.clone());
            }
        });
        out
    }
}

/// One `case`/`default` arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct IrArm {
    /// Label value; `None` for `default:`.
    pub label: Option<i64>,
    /// Arm body (C fallthrough semantics).
    pub body: Vec<IrStmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// Definition of an SSA temporary: `<ty> t<N> = <init>;`.
    Def {
        /// Temporary number.
        temp: u32,
        /// Declared type (`f64i`, `tbool`, `m256di_2`, …).
        ty: Type,
        /// The defining expression.
        init: IrExpr,
    },
    /// Declaration of a named variable.
    Decl {
        /// Declared type.
        ty: Type,
        /// Name.
        name: String,
        /// Optional initializer.
        init: Option<IrExpr>,
    },
    /// Expression statement (stores, side-effecting calls).
    Expr(IrExpr),
    /// `{ … }`.
    Block(Vec<IrStmt>),
    /// `if`/`else`.
    If {
        /// Condition.
        cond: IrExpr,
        /// Then branch.
        then_branch: Box<IrStmt>,
        /// Else branch.
        else_branch: Option<Box<IrStmt>>,
    },
    /// `for`.
    For {
        /// Init clause.
        init: Option<Box<IrStmt>>,
        /// Condition.
        cond: Option<IrExpr>,
        /// Step.
        step: Option<IrExpr>,
        /// Body.
        body: Box<IrStmt>,
    },
    /// `while`.
    While {
        /// Condition.
        cond: IrExpr,
        /// Body.
        body: Box<IrStmt>,
    },
    /// `do … while`.
    DoWhile {
        /// Body.
        body: Box<IrStmt>,
        /// Condition.
        cond: IrExpr,
    },
    /// `switch`.
    Switch {
        /// Controlling expression.
        cond: IrExpr,
        /// Arms in source order.
        arms: Vec<IrArm>,
    },
    /// `return`.
    Return(Option<IrExpr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// A pragma kept in the stream. `#pragma igen reduce` markers survive
    /// lowering (when reductions are enabled) and are consumed by the
    /// reduction pass.
    Pragma(Pragma),
    /// `;`.
    Empty,
}

impl IrStmt {
    /// Visits every expression in this statement and its sub-statements.
    pub fn walk_exprs(&self, f: &mut dyn FnMut(&IrExpr)) {
        match self {
            IrStmt::Def { init, .. } => init.walk(f),
            IrStmt::Decl { init: Some(e), .. } => e.walk(f),
            IrStmt::Expr(e) => e.walk(f),
            IrStmt::Block(b) => {
                for s in b {
                    s.walk_exprs(f);
                }
            }
            IrStmt::If { cond, then_branch, else_branch } => {
                cond.walk(f);
                then_branch.walk_exprs(f);
                if let Some(e) = else_branch {
                    e.walk_exprs(f);
                }
            }
            IrStmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    i.walk_exprs(f);
                }
                if let Some(c) = cond {
                    c.walk(f);
                }
                if let Some(s) = step {
                    s.walk(f);
                }
                body.walk_exprs(f);
            }
            IrStmt::While { cond, body } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            IrStmt::DoWhile { body, cond } => {
                body.walk_exprs(f);
                cond.walk(f);
            }
            IrStmt::Switch { cond, arms } => {
                cond.walk(f);
                for arm in arms {
                    for s in &arm.body {
                        s.walk_exprs(f);
                    }
                }
            }
            IrStmt::Return(Some(e)) => e.walk(f),
            _ => {}
        }
    }

    /// Mutable variant of [`IrStmt::walk_exprs`].
    pub fn walk_exprs_mut(&mut self, f: &mut dyn FnMut(&mut IrExpr)) {
        match self {
            IrStmt::Def { init, .. } => init.walk_mut(f),
            IrStmt::Decl { init: Some(e), .. } => e.walk_mut(f),
            IrStmt::Expr(e) => e.walk_mut(f),
            IrStmt::Block(b) => {
                for s in b {
                    s.walk_exprs_mut(f);
                }
            }
            IrStmt::If { cond, then_branch, else_branch } => {
                cond.walk_mut(f);
                then_branch.walk_exprs_mut(f);
                if let Some(e) = else_branch {
                    e.walk_exprs_mut(f);
                }
            }
            IrStmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    i.walk_exprs_mut(f);
                }
                if let Some(c) = cond {
                    c.walk_mut(f);
                }
                if let Some(s) = step {
                    s.walk_mut(f);
                }
                body.walk_exprs_mut(f);
            }
            IrStmt::While { cond, body } => {
                cond.walk_mut(f);
                body.walk_exprs_mut(f);
            }
            IrStmt::DoWhile { body, cond } => {
                body.walk_exprs_mut(f);
                cond.walk_mut(f);
            }
            IrStmt::Switch { cond, arms } => {
                cond.walk_mut(f);
                for arm in arms {
                    for s in &mut arm.body {
                        s.walk_exprs_mut(f);
                    }
                }
            }
            IrStmt::Return(Some(e)) => e.walk_mut(f),
            _ => {}
        }
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Return type (already promoted to interval types).
    pub ret: Type,
    /// Name.
    pub name: String,
    /// Parameters (promoted).
    pub params: Vec<Param>,
    /// Body; `None` for prototypes.
    pub body: Option<Vec<IrStmt>>,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum IrItem {
    /// `#include` line.
    Include(String),
    /// Top-level pragma.
    Pragma(Pragma),
    /// Typedef (kept in AST form; passes do not touch types).
    Typedef(Typedef),
    /// Global variable (initializers are compile-time constants after
    /// lowering; passes do not touch them).
    Global(VarDecl),
    /// Function.
    Function(IrFunction),
}

/// A whole translation unit in IR form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrUnit {
    /// Items in output order.
    pub items: Vec<IrItem>,
    /// Name prefix of the compiler temporaries: [`IrExpr::Temp`]`(n)`
    /// prints as `<temp_prefix><n>` (see [`crate::temp_prefix`]).
    pub temp_prefix: String,
}

impl IrUnit {
    /// Iterates all function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &IrFunction> {
        self.items.iter().filter_map(|i| match i {
            IrItem::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Mutably iterates all function definitions.
    pub fn functions_mut(&mut self) -> impl Iterator<Item = &mut IrFunction> {
        self.items.iter_mut().filter_map(|i| match i {
            IrItem::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }
}
