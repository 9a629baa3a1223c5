//! Reduction rewriting (Section VI-B, Fig. 7) as an IR pass.
//!
//! Lowering re-emits each `#pragma igen reduce` whose loop nest contains
//! detected reductions as a marker statement directly before the lowered
//! loop, and hands the detected [`ReductionInfo`] groups over in marker
//! order. This pass consumes the markers and performs the rewrite:
//!
//! * every `for` loop in the annotated nest whose induction variable is
//!   the outermost carrying loop of a reduction is wrapped with
//!   `acc_* accN; isum_init_*(&accN, lhs);` before and
//!   `lhs = isum_reduce_*(&accN);` after (Fig. 7 lines 2, 4 and 9);
//! * the accumulating store (matched by its source location) becomes
//!   `isum_accumulate_*(&accN, term);`, materializing the accumulated
//!   term into a temporary if it is not one already (Fig. 7 lines 6–7).
//!
//! Accumulator names are numbered unit-globally in marker order,
//! matching the original single-pass rewriter; with no annotated
//! reductions the IR is untouched, preserving the `-O0` byte-identity
//! contract.

use super::{Pass, PassCtx};
use crate::config::Precision;
use crate::lower::CompileError;
use crate::reduce::ReductionInfo;
use igen_cfront::{AssignOp, Loc, Pragma, Type, UnOp};
use igen_ir::{build_expr, IrExpr, IrStmt, IrUnit, OpKind, Sfx};
use std::collections::VecDeque;

/// The reduction-rewriting pass.
#[derive(Default)]
pub struct ReducePass;

/// One reduction with its assigned accumulator and (lowered) lvalue.
struct Assigned {
    red: ReductionInfo,
    acc: String,
    lhs: IrExpr,
}

struct St<'a> {
    groups: &'a mut VecDeque<Vec<ReductionInfo>>,
    reductions: &'a mut Vec<ReductionInfo>,
    /// Unit-global accumulator counter (marker order).
    acc: u32,
    /// Per-function temporary high-water mark for materialized terms.
    next_tmp: u32,
    /// The unit's temporary name prefix.
    temp_prefix: String,
    ity: String,
    acc_ty: String,
    sfx: Sfx,
    changed: bool,
}

impl Pass for ReducePass {
    fn name(&self) -> &'static str {
        "reduce"
    }

    /// The accurate accumulators intentionally tighten enclosures, so
    /// before/after endpoints differ by design.
    fn exact(&self) -> bool {
        false
    }

    fn run(&mut self, unit: &mut IrUnit, ctx: &mut PassCtx<'_>) -> Result<bool, CompileError> {
        let sfx = match ctx.cfg.precision {
            Precision::F32 => Sfx::F32,
            Precision::F64 => Sfx::F64,
            Precision::Dd => Sfx::Dd,
        };
        let (ity, sfx_str) = (ctx.cfg.interval_type().to_string(), ctx.cfg.suffix());
        let mut groups = std::mem::take(&mut ctx.reduction_groups);
        let mut st = St {
            groups: &mut groups,
            reductions: &mut ctx.reductions,
            acc: 0,
            next_tmp: 0,
            temp_prefix: unit.temp_prefix.clone(),
            ity,
            acc_ty: format!("acc_{sfx_str}"),
            sfx,
            changed: false,
        };
        for f in unit.functions_mut() {
            let body = f.body.as_mut().expect("definition");
            st.next_tmp = max_temp(body);
            process_stmts(body, &mut st);
        }
        Ok(st.changed)
    }
}

/// Highest temporary number defined or referenced in `stmts`.
fn max_temp(stmts: &[IrStmt]) -> u32 {
    let mut max = 0;
    for s in stmts {
        super::for_each_stmt(s, &mut |s| {
            if let IrStmt::Def { temp, .. } = s {
                max = max.max(*temp);
            }
        });
        s.walk_exprs(&mut |e| {
            if let IrExpr::Temp(n) = e {
                max = max.max(*n);
            }
        });
    }
    max
}

fn process_stmts(stmts: &mut Vec<IrStmt>, st: &mut St<'_>) {
    let mut i = 0;
    while i < stmts.len() {
        if matches!(&stmts[i], IrStmt::Pragma(Pragma::IgenReduce(_))) {
            let next_is_for = matches!(stmts.get(i + 1), Some(IrStmt::For { .. }));
            stmts.remove(i);
            if next_is_for {
                if let Some(group) = st.groups.pop_front() {
                    let mut assigned: Vec<Assigned> = group
                        .iter()
                        .map(|r| {
                            st.acc += 1;
                            Assigned {
                                red: r.clone(),
                                acc: format!("acc{}", st.acc),
                                lhs: build_expr(&st.temp_prefix, &r.lhs),
                            }
                        })
                        .collect();
                    st.reductions.extend(group);
                    for a in &mut assigned {
                        rewrite_accumulates(&mut stmts[i], a, st);
                    }
                    // Wrap carrying loops inside the nest, then the
                    // annotated loop itself (whose wrappers land here, in
                    // the parent list).
                    wrap_inner(&mut stmts[i], &assigned, st);
                    wrap_at(stmts, i, &assigned, st);
                }
            }
            // Re-examine index i: the marker is gone and nested markers in
            // the (possibly wrapped) loop body are found via recursion.
            continue;
        }
        process_children(&mut stmts[i], st);
        i += 1;
    }
}

/// Recurses into every nested statement list looking for further pragma
/// markers.
fn process_children(s: &mut IrStmt, st: &mut St<'_>) {
    match s {
        IrStmt::Block(b) => process_stmts(b, st),
        IrStmt::If { then_branch, else_branch, .. } => {
            process_children(then_branch, st);
            if let Some(e) = else_branch {
                process_children(e, st);
            }
        }
        IrStmt::For { body, .. } | IrStmt::While { body, .. } | IrStmt::DoWhile { body, .. } => {
            process_children(body, st)
        }
        IrStmt::Switch { arms, .. } => {
            for arm in arms {
                process_stmts(&mut arm.body, st);
            }
        }
        _ => {}
    }
}

/// The induction variable of a `for` statement, if recognizable
/// (`for (int i = …` or `for (i = …`).
fn induction_var(s: &IrStmt) -> Option<String> {
    let IrStmt::For { init, .. } = s else {
        return None;
    };
    match init.as_deref() {
        Some(IrStmt::Decl { name, .. }) => Some(name.clone()),
        Some(IrStmt::Expr(IrExpr::Assign { lhs, .. })) => match &**lhs {
            IrExpr::Var(n, _) => Some(n.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn addr(name: &str) -> IrExpr {
    IrExpr::Unary(UnOp::Addr, Box::new(IrExpr::Var(name.to_string(), Loc::default())))
}

/// The Fig. 7 wrapper statements for the reductions in `matches`.
fn wrappers(matches: &[&Assigned], st: &St<'_>) -> (Vec<IrStmt>, Vec<IrStmt>) {
    let mut pre = Vec::new();
    let mut post = Vec::new();
    for a in matches {
        pre.push(IrStmt::Decl {
            ty: Type::Named(st.acc_ty.clone()),
            name: a.acc.clone(),
            init: None,
        });
        pre.push(IrStmt::Expr(IrExpr::Op {
            op: OpKind::SumInit,
            sfx: st.sfx,
            args: vec![addr(&a.acc), a.lhs.clone()],
            loc: Loc::default(),
        }));
        post.push(IrStmt::Expr(IrExpr::Assign {
            op: AssignOp::Assign,
            lhs: Box::new(a.lhs.clone()),
            rhs: Box::new(IrExpr::Op {
                op: OpKind::SumReduce,
                sfx: st.sfx,
                args: vec![addr(&a.acc)],
                loc: Loc::default(),
            }),
            loc: Loc::default(),
        }));
    }
    (pre, post)
}

fn matching(assigned: &[Assigned], var: Option<String>) -> Vec<&Assigned> {
    let Some(var) = var else {
        return Vec::new();
    };
    assigned.iter().filter(|a| a.red.carrying_loops.first() == Some(&var)).collect()
}

/// Wraps the `for` at `stmts[idx]` if its induction variable carries a
/// reduction, splicing the wrappers into the parent list.
fn wrap_at(stmts: &mut Vec<IrStmt>, idx: usize, assigned: &[Assigned], st: &mut St<'_>) {
    let m = matching(assigned, induction_var(&stmts[idx]));
    if m.is_empty() {
        return;
    }
    let (pre, post) = wrappers(&m, st);
    st.changed = true;
    for (k, s) in post.into_iter().enumerate() {
        stmts.insert(idx + 1 + k, s);
    }
    for (k, s) in pre.into_iter().enumerate() {
        stmts.insert(idx + k, s);
    }
}

/// Recursively wraps carrying loops strictly inside `s`.
fn wrap_inner(s: &mut IrStmt, assigned: &[Assigned], st: &mut St<'_>) {
    match s {
        IrStmt::Block(b) => wrap_in_vec(b, assigned, st),
        IrStmt::If { then_branch, else_branch, .. } => {
            wrap_box(then_branch, assigned, st);
            if let Some(e) = else_branch {
                wrap_box(e, assigned, st);
            }
        }
        IrStmt::For { body, .. } | IrStmt::While { body, .. } | IrStmt::DoWhile { body, .. } => {
            wrap_box(body, assigned, st)
        }
        IrStmt::Switch { arms, .. } => {
            for arm in arms {
                wrap_in_vec(&mut arm.body, assigned, st);
            }
        }
        _ => {}
    }
}

fn wrap_in_vec(stmts: &mut Vec<IrStmt>, assigned: &[Assigned], st: &mut St<'_>) {
    let mut i = 0;
    while i < stmts.len() {
        wrap_inner(&mut stmts[i], assigned, st);
        if matches!(stmts[i], IrStmt::For { .. }) {
            let m = matching(assigned, induction_var(&stmts[i]));
            if !m.is_empty() {
                let (pre, post) = wrappers(&m, st);
                let skip = pre.len() + 1 + post.len();
                st.changed = true;
                for (k, s) in post.into_iter().enumerate() {
                    stmts.insert(i + 1 + k, s);
                }
                for (k, s) in pre.into_iter().enumerate() {
                    stmts.insert(i + k, s);
                }
                i += skip;
                continue;
            }
        }
        i += 1;
    }
}

/// A carrying loop in single-statement position (e.g. the direct body of
/// an outer loop) becomes a block holding its wrappers.
fn wrap_box(b: &mut Box<IrStmt>, assigned: &[Assigned], st: &mut St<'_>) {
    wrap_inner(b, assigned, st);
    if matches!(**b, IrStmt::For { .. }) {
        let m = matching(assigned, induction_var(b));
        if !m.is_empty() {
            let (pre, post) = wrappers(&m, st);
            st.changed = true;
            let old = std::mem::replace(&mut **b, IrStmt::Empty);
            let mut v = pre;
            v.push(old);
            v.extend(post);
            **b = IrStmt::Block(v);
        }
    }
}

/// Rewrites the accumulating store of `a.red` (matched by source
/// location) into `isum_accumulate_*` anywhere in `s`, capturing the
/// lowered lvalue for the wrappers.
fn rewrite_accumulates(s: &mut IrStmt, a: &mut Assigned, st: &mut St<'_>) {
    match s {
        IrStmt::Block(b) => rewrite_in_vec(b, a, st),
        IrStmt::If { then_branch, else_branch, .. } => {
            rewrite_in_box(then_branch, a, st);
            if let Some(e) = else_branch {
                rewrite_in_box(e, a, st);
            }
        }
        IrStmt::For { body, .. } | IrStmt::While { body, .. } | IrStmt::DoWhile { body, .. } => {
            rewrite_in_box(body, a, st)
        }
        IrStmt::Switch { arms, .. } => {
            for arm in arms {
                rewrite_in_vec(&mut arm.body, a, st);
            }
        }
        _ => {}
    }
}

/// `Some((replacement, captured lhs))` if `s` is the accumulating store.
fn accumulate_replacement(s: &IrStmt, a: &Assigned, st: &mut St<'_>) -> Option<Vec<IrStmt>> {
    let IrStmt::Expr(IrExpr::Assign { op: AssignOp::Assign, lhs, rhs, loc }) = s else {
        return None;
    };
    if *loc != a.red.loc {
        return None;
    }
    let IrExpr::Op { op: OpKind::Add, args, .. } = &**rhs else {
        return None;
    };
    let term = if args[0].struct_eq(lhs) { args[1].clone() } else { args[0].clone() };
    let accumulate = |term: IrExpr, st: &St<'_>| {
        IrStmt::Expr(IrExpr::Op {
            op: OpKind::SumAccumulate,
            sfx: st.sfx,
            args: vec![addr(&a.acc), term],
            loc: Loc::default(),
        })
    };
    Some(if matches!(term, IrExpr::Temp(_)) {
        vec![accumulate(term, st)]
    } else {
        // Materialize the term like Fig. 7 line 6.
        st.next_tmp += 1;
        let t = st.next_tmp;
        vec![
            IrStmt::Def { temp: t, ty: Type::Named(st.ity.clone()), init: term },
            accumulate(IrExpr::Temp(t), st),
        ]
    })
}

fn rewrite_in_vec(stmts: &mut Vec<IrStmt>, a: &mut Assigned, st: &mut St<'_>) {
    let mut i = 0;
    while i < stmts.len() {
        if let Some(replacement) = accumulate_replacement(&stmts[i], a, st) {
            if let IrStmt::Expr(IrExpr::Assign { lhs, .. }) = &stmts[i] {
                a.lhs = (**lhs).clone();
            }
            let n = replacement.len();
            stmts.splice(i..=i, replacement);
            st.changed = true;
            i += n;
            continue;
        }
        rewrite_accumulates(&mut stmts[i], a, st);
        i += 1;
    }
}

fn rewrite_in_box(b: &mut Box<IrStmt>, a: &mut Assigned, st: &mut St<'_>) {
    if let Some(replacement) = accumulate_replacement(b, a, st) {
        if let IrStmt::Expr(IrExpr::Assign { lhs, .. }) = &**b {
            a.lhs = (**lhs).clone();
        }
        st.changed = true;
        **b = if replacement.len() == 1 {
            replacement.into_iter().next().expect("one statement")
        } else {
            IrStmt::Block(replacement)
        };
        return;
    }
    rewrite_accumulates(b, a, st);
}
