//! AST → IR conversion.
//!
//! The lowered AST produced by the compiler's first layer is already in
//! three-address shape (temporaries `t1, t2, …` hold every intermediate
//! interval operation), so building the IR is a faithful structural
//! conversion: runtime call names are decoded into [`OpKind`]s,
//! temporary declarations become [`IrStmt::Def`]s, and everything else
//! maps one-to-one. [`crate::emit`] is the exact inverse; a
//! build-then-emit round trip reproduces the input unit byte-for-byte
//! when printed.

use crate::ir::{IrArm, IrExpr, IrFunction, IrItem, IrStmt, IrUnit};
use crate::op::OpKind;
use igen_cfront::{Expr, Function, Item, Stmt, SwitchArm, TranslationUnit};

/// The temporary prefix of every unit whose source declares no name of
/// the form `t<digits>`: temporaries print as `t1, t2, …`, the paper's
/// naming.
const DEFAULT_TEMP_PREFIX: &str = "t";

/// The temporary prefix for a unit whose source uses the identifiers
/// `idents`: the first of `t`, `t_`, `t__`, … under which no source
/// identifier reads as a temporary. Temporaries are renamed only when a
/// source name would collide with them, so every unit without such
/// names keeps the default `t1, t2, …`.
pub fn temp_prefix(idents: &[String]) -> String {
    let mut prefix = DEFAULT_TEMP_PREFIX.to_string();
    while idents.iter().any(|name| temp_number(name, &prefix).is_some()) {
        prefix.push('_');
    }
    prefix
}

/// The number of a compiler temporary named `<prefix><digits>` (`t1`,
/// `t2`, … under the default prefix), or `None` for any other name.
fn temp_number(name: &str, prefix: &str) -> Option<u32> {
    let digits = name.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Converts a lowered translation unit whose temporaries carry the
/// default prefix (`t1, t2, …`) into IR.
pub fn build_unit(tu: &TranslationUnit) -> IrUnit {
    build_unit_with_prefix(tu, DEFAULT_TEMP_PREFIX)
}

/// Converts a lowered translation unit into IR, recognizing
/// `<prefix><digits>` names as temporaries (see [`temp_prefix`]).
pub fn build_unit_with_prefix(tu: &TranslationUnit, p: &str) -> IrUnit {
    let items = tu
        .items
        .iter()
        .map(|item| match item {
            Item::Include(s) => IrItem::Include(s.clone()),
            Item::Pragma(p) => IrItem::Pragma(p.clone()),
            Item::Typedef(td) => IrItem::Typedef(td.clone()),
            Item::Global(d) => IrItem::Global(d.clone()),
            Item::Function(f) => IrItem::Function(build_function(p, f)),
        })
        .collect();
    IrUnit { items, temp_prefix: p.to_string() }
}

/// Converts one function (temporaries named `<p><digits>`).
pub fn build_function(p: &str, f: &Function) -> IrFunction {
    IrFunction {
        ret: f.ret.clone(),
        name: f.name.clone(),
        params: f.params.clone(),
        body: f.body.as_ref().map(|b| b.iter().map(|x| build_stmt(p, x)).collect()),
    }
}

fn build_stmt(p: &str, s: &Stmt) -> IrStmt {
    match s {
        Stmt::Decl(d) => match (temp_number(&d.name, p), &d.init) {
            (Some(n), Some(init)) => {
                IrStmt::Def { temp: n, ty: d.ty.clone(), init: build_expr(p, init) }
            }
            _ => IrStmt::Decl {
                ty: d.ty.clone(),
                name: d.name.clone(),
                init: d.init.as_ref().map(|x| build_expr(p, x)),
            },
        },
        Stmt::Expr(e) => IrStmt::Expr(build_expr(p, e)),
        Stmt::Block(b) => IrStmt::Block(b.iter().map(|x| build_stmt(p, x)).collect()),
        Stmt::If { cond, then_branch, else_branch } => IrStmt::If {
            cond: build_expr(p, cond),
            then_branch: Box::new(build_stmt(p, then_branch)),
            else_branch: else_branch.as_ref().map(|e| Box::new(build_stmt(p, e))),
        },
        Stmt::For { init, cond, step, body } => IrStmt::For {
            init: init.as_ref().map(|s| Box::new(build_stmt(p, s))),
            cond: cond.as_ref().map(|x| build_expr(p, x)),
            step: step.as_ref().map(|x| build_expr(p, x)),
            body: Box::new(build_stmt(p, body)),
        },
        Stmt::While { cond, body } => {
            IrStmt::While { cond: build_expr(p, cond), body: Box::new(build_stmt(p, body)) }
        }
        Stmt::DoWhile { body, cond } => {
            IrStmt::DoWhile { body: Box::new(build_stmt(p, body)), cond: build_expr(p, cond) }
        }
        Stmt::Switch { cond, arms } => IrStmt::Switch {
            cond: build_expr(p, cond),
            arms: arms
                .iter()
                .map(|SwitchArm { label, body }| IrArm {
                    label: *label,
                    body: body.iter().map(|x| build_stmt(p, x)).collect(),
                })
                .collect(),
        },
        Stmt::Return(e) => IrStmt::Return(e.as_ref().map(|x| build_expr(p, x))),
        Stmt::Break => IrStmt::Break,
        Stmt::Continue => IrStmt::Continue,
        Stmt::Pragma(p) => IrStmt::Pragma(p.clone()),
        Stmt::Empty => IrStmt::Empty,
    }
}

/// Converts one expression (temporary `<p>N` identifiers become
/// [`IrExpr::Temp`], runtime calls become [`IrExpr::Op`]).
pub fn build_expr(p: &str, e: &Expr) -> IrExpr {
    match e {
        Expr::IntLit { value, text } => IrExpr::Int { value: *value, text: text.clone() },
        Expr::FloatLit { value, text, f32, tol } => {
            IrExpr::Float { value: *value, text: text.clone(), f32: *f32, tol: *tol }
        }
        Expr::Ident(name, loc) => match temp_number(name, p) {
            Some(n) => IrExpr::Temp(n),
            None => IrExpr::Var(name.clone(), *loc),
        },
        Expr::Unary(op, inner) => IrExpr::Unary(*op, Box::new(build_expr(p, inner))),
        Expr::PostIncDec(inner, inc) => IrExpr::PostIncDec(Box::new(build_expr(p, inner)), *inc),
        Expr::Binary { op, lhs, rhs, loc } => IrExpr::Binary {
            op: *op,
            lhs: Box::new(build_expr(p, lhs)),
            rhs: Box::new(build_expr(p, rhs)),
            loc: *loc,
        },
        Expr::Assign { op, lhs, rhs, loc } => IrExpr::Assign {
            op: *op,
            lhs: Box::new(build_expr(p, lhs)),
            rhs: Box::new(build_expr(p, rhs)),
            loc: *loc,
        },
        Expr::Call { name, args, loc } => {
            let args: Vec<IrExpr> = args.iter().map(|x| build_expr(p, x)).collect();
            match OpKind::parse(name) {
                Some((op, sfx)) => IrExpr::Op { op, sfx, args, loc: *loc },
                None => IrExpr::Call { name: name.clone(), args, loc: *loc },
            }
        }
        Expr::Index(base, idx) => {
            IrExpr::Index(Box::new(build_expr(p, base)), Box::new(build_expr(p, idx)))
        }
        Expr::Member { base, field, arrow } => IrExpr::Member {
            base: Box::new(build_expr(p, base)),
            field: field.clone(),
            arrow: *arrow,
        },
        Expr::Cast(ty, inner) => IrExpr::Cast(ty.clone(), Box::new(build_expr(p, inner))),
        Expr::Cond(c, t, f) => IrExpr::Cond(
            Box::new(build_expr(p, c)),
            Box::new(build_expr(p, t)),
            Box::new(build_expr(p, f)),
        ),
    }
}
