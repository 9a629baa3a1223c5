//! IR → AST conversion (the emit layer's front half): the exact inverse
//! of [`crate::build`]. The resulting unit is printed by the existing
//! `igen-cfront` printer, which keeps the paper's output style.

use crate::ir::{IrArm, IrExpr, IrFunction, IrItem, IrStmt, IrUnit};
use igen_cfront::{Expr, Function, Item, Loc, Stmt, SwitchArm, TranslationUnit, VarDecl};

/// Converts an IR unit back into a printable AST.
pub fn emit_unit(unit: &IrUnit) -> TranslationUnit {
    TranslationUnit {
        items: unit
            .items
            .iter()
            .map(|item| match item {
                IrItem::Include(s) => Item::Include(s.clone()),
                IrItem::Pragma(p) => Item::Pragma(p.clone()),
                IrItem::Typedef(td) => Item::Typedef(td.clone()),
                IrItem::Global(d) => Item::Global(d.clone()),
                IrItem::Function(f) => Item::Function(emit_function(&unit.temp_prefix, f)),
            })
            .collect(),
    }
}

/// Converts one function (temporaries named `<p><digits>`).
pub fn emit_function(p: &str, f: &IrFunction) -> Function {
    Function {
        ret: f.ret.clone(),
        name: f.name.clone(),
        params: f.params.clone(),
        body: f.body.as_ref().map(|b| b.iter().map(|x| emit_stmt(p, x)).collect()),
    }
}

fn emit_stmt(p: &str, s: &IrStmt) -> Stmt {
    match s {
        IrStmt::Def { temp, ty, init } => Stmt::Decl(VarDecl {
            ty: ty.clone(),
            name: format!("{p}{temp}"),
            init: Some(emit_expr(p, init)),
        }),
        IrStmt::Decl { ty, name, init } => Stmt::Decl(VarDecl {
            ty: ty.clone(),
            name: name.clone(),
            init: init.as_ref().map(|x| emit_expr(p, x)),
        }),
        IrStmt::Expr(e) => Stmt::Expr(emit_expr(p, e)),
        IrStmt::Block(b) => Stmt::Block(b.iter().map(|x| emit_stmt(p, x)).collect()),
        IrStmt::If { cond, then_branch, else_branch } => Stmt::If {
            cond: emit_expr(p, cond),
            then_branch: Box::new(emit_stmt(p, then_branch)),
            else_branch: else_branch.as_ref().map(|e| Box::new(emit_stmt(p, e))),
        },
        IrStmt::For { init, cond, step, body } => Stmt::For {
            init: init.as_ref().map(|s| Box::new(emit_stmt(p, s))),
            cond: cond.as_ref().map(|x| emit_expr(p, x)),
            step: step.as_ref().map(|x| emit_expr(p, x)),
            body: Box::new(emit_stmt(p, body)),
        },
        IrStmt::While { cond, body } => {
            Stmt::While { cond: emit_expr(p, cond), body: Box::new(emit_stmt(p, body)) }
        }
        IrStmt::DoWhile { body, cond } => {
            Stmt::DoWhile { body: Box::new(emit_stmt(p, body)), cond: emit_expr(p, cond) }
        }
        IrStmt::Switch { cond, arms } => Stmt::Switch {
            cond: emit_expr(p, cond),
            arms: arms
                .iter()
                .map(|IrArm { label, body }| SwitchArm {
                    label: *label,
                    body: body.iter().map(|x| emit_stmt(p, x)).collect(),
                })
                .collect(),
        },
        IrStmt::Return(e) => Stmt::Return(e.as_ref().map(|x| emit_expr(p, x))),
        IrStmt::Break => Stmt::Break,
        IrStmt::Continue => Stmt::Continue,
        IrStmt::Pragma(p) => Stmt::Pragma(p.clone()),
        IrStmt::Empty => Stmt::Empty,
    }
}

/// Converts one expression back to AST form (temporaries named
/// `<p><digits>`).
pub fn emit_expr(p: &str, e: &IrExpr) -> Expr {
    match e {
        IrExpr::Int { value, text } => Expr::IntLit { value: *value, text: text.clone() },
        IrExpr::Float { value, text, f32, tol } => {
            Expr::FloatLit { value: *value, text: text.clone(), f32: *f32, tol: *tol }
        }
        IrExpr::Var(name, loc) => Expr::Ident(name.clone(), *loc),
        IrExpr::Temp(n) => Expr::Ident(format!("{p}{n}"), Loc::default()),
        IrExpr::Op { op, sfx, args, loc } => Expr::Call {
            name: op.c_name(*sfx),
            args: args.iter().map(|x| emit_expr(p, x)).collect(),
            loc: *loc,
        },
        IrExpr::Call { name, args, loc } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|x| emit_expr(p, x)).collect(),
            loc: *loc,
        },
        IrExpr::Unary(op, inner) => Expr::Unary(*op, Box::new(emit_expr(p, inner))),
        IrExpr::PostIncDec(inner, inc) => Expr::PostIncDec(Box::new(emit_expr(p, inner)), *inc),
        IrExpr::Binary { op, lhs, rhs, loc } => Expr::Binary {
            op: *op,
            lhs: Box::new(emit_expr(p, lhs)),
            rhs: Box::new(emit_expr(p, rhs)),
            loc: *loc,
        },
        IrExpr::Assign { op, lhs, rhs, loc } => Expr::Assign {
            op: *op,
            lhs: Box::new(emit_expr(p, lhs)),
            rhs: Box::new(emit_expr(p, rhs)),
            loc: *loc,
        },
        IrExpr::Index(base, idx) => {
            Expr::Index(Box::new(emit_expr(p, base)), Box::new(emit_expr(p, idx)))
        }
        IrExpr::Member { base, field, arrow } => {
            Expr::Member { base: Box::new(emit_expr(p, base)), field: field.clone(), arrow: *arrow }
        }
        IrExpr::Cast(ty, inner) => Expr::Cast(ty.clone(), Box::new(emit_expr(p, inner))),
        IrExpr::Cond(c, t, f) => Expr::Cond(
            Box::new(emit_expr(p, c)),
            Box::new(emit_expr(p, t)),
            Box::new(emit_expr(p, f)),
        ),
    }
}
