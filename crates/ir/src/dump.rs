//! Human-readable IR dump (`igen-cli compile --emit-ir`).
//!
//! The format is a typed three-address listing: one line per statement,
//! definitions as `t1: f64i = add.f64 a, b`, structured control flow
//! indented. It is for inspection only — the C emitter is the
//! authoritative output path.

use crate::ir::{IrExpr, IrFunction, IrItem, IrStmt, IrUnit};
use crate::op::OpKind;
use igen_cfront::Type;
use std::fmt::Write as _;

/// Dumps a whole unit.
pub fn dump_unit(unit: &IrUnit) -> String {
    let mut out = String::new();
    for item in &unit.items {
        match item {
            IrItem::Include(s) => {
                let _ = writeln!(out, "include {s}");
            }
            IrItem::Pragma(p) => {
                let _ = writeln!(out, "pragma {p:?}");
            }
            IrItem::Typedef(td) => {
                let name = match td {
                    igen_cfront::Typedef::Union { name, .. }
                    | igen_cfront::Typedef::Alias { name, .. } => name,
                };
                let _ = writeln!(out, "typedef {name}");
            }
            IrItem::Global(d) => {
                let _ = writeln!(out, "global {} {}", ty_str(&d.ty), d.name);
            }
            IrItem::Function(f) => {
                out.push_str(&dump_function(&unit.temp_prefix, f));
            }
        }
    }
    out
}

/// Dumps one function (temporaries named `<p><digits>`).
pub fn dump_function(p: &str, f: &IrFunction) -> String {
    let mut out = String::new();
    let params: Vec<String> =
        f.params.iter().map(|p| format!("{} {}", ty_str(&p.ty), p.name)).collect();
    let _ = writeln!(out, "func {}({}) -> {} {{", f.name, params.join(", "), ty_str(&f.ret));
    if let Some(body) = &f.body {
        for s in body {
            dump_stmt(p, s, 1, &mut out);
        }
    }
    out.push_str("}\n");
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn dump_stmt(p: &str, s: &IrStmt, depth: usize, out: &mut String) {
    // Blocks add no line of their own; their statements print at the
    // same depth.
    if let IrStmt::Block(b) = s {
        for st in b {
            dump_stmt(p, st, depth, out);
        }
        return;
    }
    indent(depth, out);
    match s {
        IrStmt::Def { temp, ty, init } => {
            let _ = writeln!(out, "{p}{temp}: {} = {}", ty_str(ty), expr_str(p, init));
        }
        IrStmt::Decl { ty, name, init } => match init {
            Some(e) => {
                let _ = writeln!(out, "{name}: {} = {}", ty_str(ty), expr_str(p, e));
            }
            None => {
                let _ = writeln!(out, "{name}: {}", ty_str(ty));
            }
        },
        IrStmt::Expr(e) => {
            let _ = writeln!(out, "{}", expr_str(p, e));
        }
        IrStmt::Block(_) => unreachable!("handled above"),
        IrStmt::If { cond, then_branch, else_branch } => {
            let _ = writeln!(out, "if {} {{", expr_str(p, cond));
            dump_stmt(p, then_branch, depth + 1, out);
            if let Some(e) = else_branch {
                indent(depth, out);
                out.push_str("} else {\n");
                dump_stmt(p, e, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        IrStmt::For { init, cond, step, body } => {
            out.push_str("for ");
            if let Some(i) = init {
                let mut one = String::new();
                dump_stmt(p, i, 0, &mut one);
                out.push_str(one.trim_end());
            }
            out.push_str("; ");
            if let Some(c) = cond {
                out.push_str(&expr_str(p, c));
            }
            out.push_str("; ");
            if let Some(st) = step {
                out.push_str(&expr_str(p, st));
            }
            out.push_str(" {\n");
            dump_stmt(p, body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        IrStmt::While { cond, body } => {
            let _ = writeln!(out, "while {} {{", expr_str(p, cond));
            dump_stmt(p, body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        IrStmt::DoWhile { body, cond } => {
            out.push_str("do {\n");
            dump_stmt(p, body, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}} while {}", expr_str(p, cond));
        }
        IrStmt::Switch { cond, arms } => {
            let _ = writeln!(out, "switch {} {{", expr_str(p, cond));
            for arm in arms {
                indent(depth, out);
                match arm.label {
                    Some(v) => {
                        let _ = writeln!(out, "case {v}:");
                    }
                    None => out.push_str("default:\n"),
                }
                for st in &arm.body {
                    dump_stmt(p, st, depth + 1, out);
                }
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        IrStmt::Return(e) => match e {
            Some(e) => {
                let _ = writeln!(out, "return {}", expr_str(p, e));
            }
            None => out.push_str("return\n"),
        },
        IrStmt::Break => out.push_str("break\n"),
        IrStmt::Continue => out.push_str("continue\n"),
        IrStmt::Pragma(p) => {
            let _ = writeln!(out, "pragma {p:?}");
        }
        IrStmt::Empty => out.push_str(";\n"),
    }
}

fn ty_str(ty: &Type) -> String {
    match ty {
        Type::Void => "void".into(),
        Type::Int => "int".into(),
        Type::UInt => "unsigned".into(),
        Type::Long => "long".into(),
        Type::ULong => "unsigned long".into(),
        Type::Float => "float".into(),
        Type::Double => "double".into(),
        Type::Named(n) => n.clone(),
        Type::Ptr(t) => format!("{}*", ty_str(t)),
        Type::Array(t, Some(n)) => format!("{}[{n}]", ty_str(t)),
        Type::Array(t, None) => format!("{}[]", ty_str(t)),
    }
}

/// The `add.f64`-style mnemonic of an operation.
fn mnemonic(op: &OpKind, sfx: crate::op::Sfx) -> String {
    let name = op.c_name(sfx);
    let tail = name.strip_prefix("ia_").unwrap_or(&name);
    match tail.rsplit_once('_') {
        Some((tag, s)) if s == sfx.as_str() => format!("{tag}.{s}"),
        _ => tail.to_string(),
    }
}

fn expr_str(p: &str, e: &IrExpr) -> String {
    match e {
        IrExpr::Int { text, .. } => text.clone(),
        IrExpr::Float { text, f32, tol, .. } => {
            format!("{text}{}{}", if *f32 { "f" } else { "" }, if *tol { "t" } else { "" })
        }
        IrExpr::Var(n, _) => n.clone(),
        IrExpr::Temp(n) => format!("{p}{n}"),
        IrExpr::Op { op, sfx, args, .. } => {
            let args: Vec<String> = args.iter().map(|x| expr_str(p, x)).collect();
            format!("{} {}", mnemonic(op, *sfx), args.join(", "))
        }
        IrExpr::Call { name, args, .. } => {
            let args: Vec<String> = args.iter().map(|x| expr_str(p, x)).collect();
            format!("call {name}({})", args.join(", "))
        }
        IrExpr::Unary(op, inner) => format!(
            "{}{}",
            match op {
                igen_cfront::UnOp::Neg => "-",
                igen_cfront::UnOp::Plus => "+",
                igen_cfront::UnOp::Not => "!",
                igen_cfront::UnOp::BitNot => "~",
                igen_cfront::UnOp::Deref => "*",
                igen_cfront::UnOp::Addr => "&",
                igen_cfront::UnOp::PreInc => "++",
                igen_cfront::UnOp::PreDec => "--",
            },
            expr_str(p, inner)
        ),
        IrExpr::PostIncDec(inner, inc) => {
            format!("{}{}", expr_str(p, inner), if *inc { "++" } else { "--" })
        }
        IrExpr::Binary { op, lhs, rhs, .. } => {
            format!("({} {} {})", expr_str(p, lhs), op.as_str(), expr_str(p, rhs))
        }
        IrExpr::Assign { op, lhs, rhs, .. } => {
            format!("{} {} {}", expr_str(p, lhs), op.as_str(), expr_str(p, rhs))
        }
        IrExpr::Index(base, idx) => format!("{}[{}]", expr_str(p, base), expr_str(p, idx)),
        IrExpr::Member { base, field, arrow } => {
            format!("{}{}{field}", expr_str(p, base), if *arrow { "->" } else { "." })
        }
        IrExpr::Cast(ty, inner) => format!("({}) {}", ty_str(ty), expr_str(p, inner)),
        IrExpr::Cond(c, t, f) => {
            format!("{} ? {} : {}", expr_str(p, c), expr_str(p, t), expr_str(p, f))
        }
    }
}
