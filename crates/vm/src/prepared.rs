//! The tiled, instruction-major executor: the one loop that executes
//! bytecode.
//!
//! Decoding every instruction once per item (or per 4-item group) makes
//! dispatch most of the runtime on short programs. [`run_tile`] flips
//! the loop nest: the register file is a SoA *bank* of `TILE` groups
//! per register (`bank[reg * tile + g]`), each instruction is decoded
//! once per tile, and the inner loop is a tight, branch-free sweep over
//! the contiguous group column — the classic vectorized-interpreter
//! trick, applied to interval lanes. With `TILE = 8` packed groups, one
//! decode covers 32 items. The same loop runs at packed width (`L =
//! T::Lane`) and at scalar width (`L = T`: the batch tail,
//! [`run_scalar`](crate::exec::run_scalar) and the compile-time
//! self-check); [`run_tile_profiled`] adds a per-instruction hook.
//!
//! Two pieces of per-call waste are also hoisted to preparation time:
//!
//! * [`PreparedProgram`] decodes every pool constant **once per
//!   (program, element type)** instead of re-decoding and re-splatting
//!   an `Insn::Const` on every call.
//! * [`TileBank`] is built once per worker and pre-fills the constant
//!   columns, so a call only writes the input columns and the scratch
//!   registers the program itself defines. There is no per-call
//!   zeroing: [`Program::validate`] guarantees every read follows a
//!   write, so stale scratch from the previous tile is never observed.
//!
//! Execution order within a tile is *group-major per instruction*
//! (instruction-major overall), but every value computed for group `g`
//! depends only on column `g` — the columns never interact — so the
//! results are bit-identical to running each group alone as a
//! one-group tile, for any tile size. That keeps the batch determinism
//! guarantee: tile size, like thread count, cannot change a single
//! endpoint bit.

use crate::bytecode::{Insn, Program};
use crate::exec::{VmElem, VM_INSNS_EXECUTED};
use igen_kernels::{IntervalOp, LaneOrScalar, SweepInsn};
use igen_telemetry::profile::rel_width;
use igen_telemetry::Counter;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tiles executed by [`run_tile`] (one count per call, independent of
/// tile size and lane width).
pub static VM_TILES: Counter = Counter::new("vm.tiles");

/// Default number of packed groups per tile (8 groups = 32 items at
/// packed width). Chosen so a register bank of a few dozen slots stays
/// comfortably inside L1 while still amortizing the per-instruction
/// decode ~8×; measured flat from 4–16 on the gauntlet kernels.
pub const DEFAULT_TILE_GROUPS: usize = 8;

static NEXT_PREP_ID: AtomicU64 = AtomicU64::new(0);

/// A [`Program`] with its per-call setup paid up front for element type
/// `T`: constants decoded from the pool once, and `Const` instructions
/// whose register is never rewritten split out of the executed body so
/// a [`TileBank`] can hold them for the program's lifetime.
///
/// Clones share the preparation identity, so a [`TileBank`] built for
/// one clone works with any other — the hoisted constants are
/// identical by construction.
#[derive(Debug, Clone)]
pub struct PreparedProgram<T: VmElem> {
    prog: Program,
    id: u64,
    /// Hoisted constants: `(register, decoded value)`. A `Const` is
    /// hoistable iff its destination is written exactly once in the
    /// whole program and is not an input register — then its value is
    /// call-invariant and lives in the bank.
    consts: Vec<(u32, T)>,
    /// The instructions executed per call (everything not hoisted, in
    /// original order).
    body: Vec<Insn>,
    /// For each body instruction, its index in `prog.insns` — the key
    /// into the program's [`DebugMap`](crate::bytecode::DebugMap) and
    /// the profiler's site table (hoisting shifts body positions, so
    /// body index ≠ instruction index).
    body_idx: Vec<u32>,
}

impl<T: VmElem> PreparedProgram<T> {
    /// Prepares `prog` for tiled execution.
    ///
    /// # Panics
    ///
    /// Panics if `T`'s precision does not match the program's, or if
    /// the program fails [`Program::validate`].
    pub fn new(prog: Program) -> PreparedProgram<T> {
        assert_eq!(T::PRECISION, prog.precision, "element precision does not match program");
        prog.validate().expect("prepared program must validate");
        let mut writes = vec![0u32; prog.n_regs as usize];
        for insn in &prog.insns {
            writes[insn.dst() as usize] += 1;
        }
        let mut consts = Vec::new();
        let mut body = Vec::new();
        let mut body_idx = Vec::new();
        for (i, insn) in prog.insns.iter().enumerate() {
            if let Insn::Const { dst, idx } = *insn {
                if dst >= prog.n_inputs && writes[dst as usize] == 1 {
                    consts.push((dst, T::from_const(&prog.consts[idx as usize])));
                    continue;
                }
            }
            body.push(*insn);
            body_idx.push(i as u32);
        }
        let id = NEXT_PREP_ID.fetch_add(1, Ordering::Relaxed);
        PreparedProgram { prog, id, consts, body, body_idx }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Instructions executed per call (hoisted constants excluded).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Constants hoisted into the bank.
    pub fn hoisted_consts(&self) -> usize {
        self.consts.len()
    }
}

/// The SoA register bank for one worker: `n_regs` columns of `tile`
/// lane vectors, laid out `bank[reg * tile + g]` so each instruction's
/// inner sweep walks contiguous memory. Constant columns are filled at
/// construction and never touched by [`run_tile`]; build one bank per
/// worker thread and reuse it across every tile that worker executes.
#[derive(Debug)]
pub struct TileBank<T: VmElem, L: LaneOrScalar<T>> {
    bank: Vec<L>,
    tile: usize,
    n_inputs: usize,
    prep_id: u64,
    _elem: PhantomData<T>,
}

impl<T: VmElem, L: LaneOrScalar<T>> TileBank<T, L> {
    /// Builds a bank of `tile` groups per register for `prep`,
    /// pre-filling the hoisted constant columns.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn new(prep: &PreparedProgram<T>, tile: usize) -> TileBank<T, L> {
        assert!(tile > 0, "tile must be at least one group");
        let n_regs = prep.prog.n_regs as usize;
        let mut bank = vec![L::splat_l(T::zero()); n_regs * tile];
        for &(reg, c) in &prep.consts {
            let v = L::splat_l(c);
            bank[reg as usize * tile..(reg as usize + 1) * tile].fill(v);
        }
        TileBank {
            bank,
            tile,
            n_inputs: prep.prog.n_inputs as usize,
            prep_id: prep.id,
            _elem: PhantomData,
        }
    }

    /// Groups per tile.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The mutable input column for register `reg`: `tile` lane
    /// vectors, group-major. Fill `0..n_groups` before [`run_tile`];
    /// groups past `n_groups` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not an input register.
    pub fn input_column(&mut self, reg: u32) -> &mut [L] {
        assert!((reg as usize) < self.n_inputs, "r{reg} is not an input register");
        let base = reg as usize * self.tile;
        &mut self.bank[base..base + self.tile]
    }
}

#[inline(always)]
fn sweep2<L: Copy>(
    bank: &mut [L],
    tile: usize,
    n: usize,
    dst: u32,
    a: u32,
    b: u32,
    f: impl Fn(L, L) -> L,
) {
    let (di, ai, bi) = (dst as usize * tile, a as usize * tile, b as usize * tile);
    // One bounds proof up front lets the inner loop run unchecked.
    assert!(di + n <= bank.len() && ai + n <= bank.len() && bi + n <= bank.len());
    for g in 0..n {
        // Read-before-write per element, so dst == a or dst == b (the
        // peephole reuses registers) is still exact.
        bank[di + g] = f(bank[ai + g], bank[bi + g]);
    }
}

#[inline(always)]
fn sweep1<L: Copy>(bank: &mut [L], tile: usize, n: usize, dst: u32, a: u32, f: impl Fn(L) -> L) {
    let (di, ai) = (dst as usize * tile, a as usize * tile);
    assert!(di + n <= bank.len() && ai + n <= bank.len());
    for g in 0..n {
        bank[di + g] = f(bank[ai + g]);
    }
}

/// Executes one body instruction over the first `n_groups` groups of
/// the tile: the one execution path of every opcode. The interval
/// arithmetic opcodes go through [`LaneOrScalar::sweep`], which runs
/// the whole column in one dispatch for lane types with a fused kernel;
/// the rest (and every opcode at scalar width) are value-op loops.
#[inline(always)]
fn exec_insn<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    bk: &mut [L],
    tile: usize,
    n_groups: usize,
    insn: &Insn,
) {
    // One `sweep` call per arm keeps each arm's opcode a constant, so
    // the default value-op loop compiles to that op's loop alone.
    let arith = |op, dst, a, b, acc| SweepInsn { op, dst, a, b, acc };
    match *insn {
        Insn::Add { dst, a, b } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::Add, dst, a, b, a))
        }
        Insn::Sub { dst, a, b } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::Sub, dst, a, b, a))
        }
        Insn::Mul { dst, a, b } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::Mul, dst, a, b, a))
        }
        Insn::Div { dst, a, b } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::Div, dst, a, b, a))
        }
        Insn::Sqr { dst, a } => L::sweep(bk, tile, n_groups, arith(IntervalOp::Sqr, dst, a, a, a)),
        // The accumulate superinstructions keep the product in a machine
        // register instead of round-tripping a temp column through the
        // bank — both interval roundings preserved.
        Insn::MulAdd { dst, a, b, acc } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::MulAdd, dst, a, b, acc))
        }
        Insn::MulSub { dst, a, b, acc } => {
            L::sweep(bk, tile, n_groups, arith(IntervalOp::MulSub, dst, a, b, acc))
        }
        // Only non-hoistable constants reach the body (rewritten register
        // or input-register destination).
        Insn::Const { dst, idx } => {
            let v = L::splat_l(T::from_const(&prep.prog.consts[idx as usize]));
            sweep1(bk, tile, n_groups, dst, dst, |_| v);
        }
        Insn::Min { dst, a, b } => sweep2(bk, tile, n_groups, dst, a, b, |x, y| x.min_l(y)),
        Insn::Max { dst, a, b } => sweep2(bk, tile, n_groups, dst, a, b, |x, y| x.max_l(y)),
        Insn::Neg { dst, a } => sweep1(bk, tile, n_groups, dst, a, |x| -x),
        Insn::Sqrt { dst, a } => sweep1(bk, tile, n_groups, dst, a, |x| x.sqrt_l()),
        Insn::Abs { dst, a } => sweep1(bk, tile, n_groups, dst, a, |x| x.abs_l()),
        Insn::Pow { dst, a, n } => {
            // No packed powi kernel: lane-wise is bit-identical because
            // the lanes are independent.
            sweep1(bk, tile, n_groups, dst, a, |x| L::from_fn_l(|i| x.lane_l(i).powi_e(n)))
        }
    }
}

/// Executes `prep` over the first `n_groups` group columns of `bank`
/// (inputs already written via [`TileBank::input_column`]). Declared
/// outputs land in `outputs` slot-major: `outputs[slot * n_groups + g]`
/// is output `slot` for group `g`.
///
/// Bit-identical to running each group alone as a one-group tile, for
/// every tile size and lane width — see the module docs.
///
/// # Panics
///
/// Panics if `bank` was built for a different [`PreparedProgram`] or if
/// `n_groups` exceeds the bank's tile.
pub fn run_tile<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    bank: &mut TileBank<T, L>,
    n_groups: usize,
    outputs: &mut Vec<L>,
) {
    tile_loop(prep, bank, n_groups, outputs, None);
}

/// [`run_tile`] with per-instruction profiling. Each body instruction's
/// sweep over the tile is timed as one sample against its *original*
/// instruction index (the hoisted-constant split shifts body positions,
/// so the prepared program carries the index map), and every element it
/// produced contributes an input/output width sample.
///
/// The sweeps are the exact loop of [`run_tile`] — the profiler reads
/// the bank between instructions, never inside a sweep — so the outputs
/// are bit-identical to an unprofiled run. When `prof` is inactive
/// (telemetry compiled out or recording off) this is [`run_tile`].
pub fn run_tile_profiled<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    bank: &mut TileBank<T, L>,
    n_groups: usize,
    outputs: &mut Vec<L>,
    prof: &mut igen_telemetry::UnitProfiler,
) {
    let prof = if prof.active() { Some(prof) } else { None };
    tile_loop(prep, bank, n_groups, outputs, prof);
}

/// The one loop over body instructions. The profiler is checked once
/// per instruction, outside the sweep; [`run_tile`] passes `None`, so
/// once inlined its loop is the bare sweep sequence.
#[inline(always)]
fn tile_loop<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    bank: &mut TileBank<T, L>,
    n_groups: usize,
    outputs: &mut Vec<L>,
    mut prof: Option<&mut igen_telemetry::UnitProfiler>,
) {
    assert_eq!(bank.prep_id, prep.id, "tile bank was built for a different program");
    assert!(n_groups <= bank.tile, "n_groups {} exceeds tile {}", n_groups, bank.tile);
    let tile = bank.tile;
    let bk = &mut bank.bank[..];
    // Per-element input widths of the profiled instruction, reused.
    let mut max_in = Vec::new();
    for (bi, insn) in prep.body.iter().enumerate() {
        let Some(prof) = prof.as_deref_mut() else {
            exec_insn(prep, bk, tile, n_groups, insn);
            continue;
        };
        let oi = prep.body_idx[bi] as usize;
        let site = prep.prog.debug.site(oi);
        prof.set_meta(oi, site.line, site.col, insn.op_name());
        // Input widths are read before the sweep: the renumbered
        // programs reuse registers, so dst may alias a source.
        max_in.clear();
        for g in 0..n_groups {
            for l in 0..L::WIDTH {
                let at = |r: u32| bk[r as usize * tile + g].lane_l(l).endpoints_f64();
                max_in.push(max_src_rel(insn, at));
            }
        }
        let t0 = prof.now_ns();
        exec_insn(prep, bk, tile, n_groups, insn);
        prof.add_time(oi, prof.now_ns().saturating_sub(t0));
        let di = insn.dst() as usize * tile;
        for (e, &w_in) in max_in.iter().enumerate() {
            let (lo, hi) = bk[di + e / L::WIDTH].lane_l(e % L::WIDTH).endpoints_f64();
            prof.add_sample(oi, w_in, rel_width(lo, hi));
        }
    }
    VM_INSNS_EXECUTED.add(prep.body.len() as u64);
    VM_TILES.inc();
    outputs.clear();
    for o in &prep.prog.outputs {
        let oi = o.reg as usize * tile;
        outputs.extend_from_slice(&bk[oi..oi + n_groups]);
    }
}

/// Largest relative input width of `insn`'s source registers, or `0.0`
/// for a zero-operand instruction (a `Const` is a width *source*: any
/// width at its output is width introduced, not amplified).
fn max_src_rel(insn: &Insn, at: impl Fn(u32) -> (f64, f64)) -> f64 {
    let mut max_in = 0.0f64;
    for r in crate::peephole::srcs(insn) {
        let (lo, hi) = at(r);
        let w = rel_width(lo, hi);
        // NaN operands poison the max (NaN.max keeps the other side,
        // so propagate by hand): the sample lands in the top bucket.
        if w.is_nan() {
            return f64::NAN;
        }
        max_in = max_in.max(w);
    }
    max_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{OutputSlot, PoolConst, Precision};
    use crate::exec::run_scalar;
    use igen_interval::{F64Ix4, F64I};

    fn quad() -> Program {
        // return -b + sqrt(b² - 4ac), same shape as the exec tests.
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

    fn item(i: usize) -> [F64I; 3] {
        let f = i as f64;
        [
            F64I::new(1.0 + 0.25 * f, 1.0 + 0.3 * f).unwrap(),
            F64I::new(-3.5 - f, -3.0 - f).unwrap(),
            F64I::new(0.5, 0.75 + 0.1 * f).unwrap(),
        ]
    }

    #[test]
    fn constants_are_hoisted_out_of_the_body() {
        let prep = PreparedProgram::<F64I>::new(quad());
        assert_eq!(prep.hoisted_consts(), 1);
        assert_eq!(prep.body_len(), 7);
    }

    #[test]
    fn tiled_scalar_matches_run_scalar_at_every_fill_level() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64I>::new(&prep, 5);
        let mut out = Vec::new();
        for n_groups in [0usize, 1, 3, 5] {
            for (g, it) in (0..n_groups).map(|g| (g, item(g + 7 * n_groups))) {
                for (r, v) in it.iter().enumerate() {
                    bank.input_column(r as u32)[g] = *v;
                }
            }
            run_tile(&prep, &mut bank, n_groups, &mut out);
            assert_eq!(out.len(), n_groups);
            for (g, got) in out.iter().enumerate() {
                let want = run_scalar(&p, &item(g + 7 * n_groups))[0];
                assert_eq!(got.lo().to_bits(), want.lo().to_bits());
                assert_eq!(got.hi().to_bits(), want.hi().to_bits());
            }
        }
    }

    #[test]
    fn tiled_packed_matches_scalar_per_lane_and_bank_reuse_is_clean() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64Ix4>::new(&prep, 3);
        let mut out = Vec::new();
        // Two consecutive calls through the same bank: the second must
        // not observe anything from the first (constants persist,
        // scratch is dead by validation).
        for call in 0..2usize {
            let n_groups = if call == 0 { 3 } else { 2 };
            for g in 0..n_groups {
                for r in 0..3u32 {
                    bank.input_column(r)[g] = <F64Ix4 as LaneOrScalar<F64I>>::from_fn_l(|l| {
                        item(100 * call + 4 * g + l)[r as usize]
                    });
                }
            }
            run_tile(&prep, &mut bank, n_groups, &mut out);
            for (g, group) in out.iter().enumerate().take(n_groups) {
                for l in 0..4 {
                    let want = run_scalar(&p, &item(100 * call + 4 * g + l))[0];
                    let got = group.lane_l(l);
                    assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "call {call} g{g} l{l}");
                    assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "call {call} g{g} l{l}");
                }
            }
        }
    }

    #[test]
    fn register_reuse_with_dst_equal_to_src_is_exact() {
        // r1 = x + x; r1 = r1 * r1 (relaxed form, dst == both srcs).
        let p = Program {
            name: "reuse".into(),
            precision: Precision::F64,
            n_inputs: 1,
            n_regs: 2,
            consts: vec![],
            insns: vec![Insn::Add { dst: 1, a: 0, b: 0 }, Insn::Mul { dst: 1, a: 1, b: 1 }],
            inputs: vec!["x".into()],
            outputs: vec![OutputSlot { label: "return".into(), reg: 1 }],
            debug: crate::bytecode::DebugMap::default(),
        };
        p.validate().expect("relaxed form validates");
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64I>::new(&prep, 4);
        let mut out = Vec::new();
        for g in 0..4 {
            bank.input_column(0)[g] = F64I::new(-1.5 - g as f64, 2.0 + g as f64).unwrap();
        }
        run_tile(&prep, &mut bank, 4, &mut out);
        for (g, got) in out.iter().enumerate() {
            let x = F64I::new(-1.5 - g as f64, 2.0 + g as f64).unwrap();
            let want = run_scalar(&p, &[x])[0];
            assert_eq!(got.lo().to_bits(), want.lo().to_bits());
            assert_eq!(got.hi().to_bits(), want.hi().to_bits());
        }
    }

    #[test]
    fn profiled_tile_is_bit_identical_to_plain() {
        let p = quad();
        let prep = PreparedProgram::<F64I>::new(p.clone());
        let mut bank = TileBank::<F64I, F64I>::new(&prep, 4);
        let mut plain = Vec::new();
        for g in 0..4 {
            for (r, v) in item(g).iter().enumerate() {
                bank.input_column(r as u32)[g] = *v;
            }
        }
        run_tile(&prep, &mut bank, 4, &mut plain);
        let mut profiled = Vec::new();
        let mut prof = igen_telemetry::UnitProfiler::start(&p.name, p.insns.len());
        for g in 0..4 {
            for (r, v) in item(g).iter().enumerate() {
                bank.input_column(r as u32)[g] = *v;
            }
        }
        run_tile_profiled(&prep, &mut bank, 4, &mut profiled, &mut prof);
        prof.finish();
        assert_eq!(plain.len(), profiled.len());
        for (w, g) in plain.iter().zip(&profiled) {
            assert_eq!(w.lo().to_bits(), g.lo().to_bits());
            assert_eq!(w.hi().to_bits(), g.hi().to_bits());
        }
    }

    #[test]
    fn body_index_map_names_original_instructions() {
        // quad hoists the single Const (original index 1): every body
        // instruction keeps its index into prog.insns.
        let prep = PreparedProgram::<F64I>::new(quad());
        assert_eq!(prep.body_idx.len(), prep.body.len());
        assert_eq!(prep.body_idx, vec![0, 2, 3, 4, 5, 6, 7]);
        for (bi, &oi) in prep.body_idx.iter().enumerate() {
            assert_eq!(prep.body[bi], prep.prog.insns[oi as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn bank_is_pinned_to_its_program() {
        let prep_a = PreparedProgram::<F64I>::new(quad());
        let prep_b = PreparedProgram::<F64I>::new(quad());
        let mut bank = TileBank::<F64I, F64I>::new(&prep_a, 2);
        let mut out = Vec::new();
        run_tile(&prep_b, &mut bank, 1, &mut out);
    }
}
