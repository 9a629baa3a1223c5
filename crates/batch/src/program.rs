//! Batched execution of compiled bytecode programs.
//!
//! [`BatchProgram`] prepares an [`igen_vm::Program`] once — constants
//! decoded and hoisted into a persistent register bank — and fans it
//! out over a structure-of-arrays input batch through the tiled,
//! instruction-major executor ([`igen_vm::run_tile`]): items are
//! grouped four at a time onto the packed lane path (`F64Ix4`/`DdIx4`),
//! tiles of [`BatchConfig::tile_groups`] groups share one instruction
//! decode per opcode, and the scalar tail runs through the *same* tiled
//! executor at width 1. Tiles are distributed across threads with the
//! engine's pinned, order-preserving combine, and each worker reuses
//! one register bank across all its tiles, so per-call setup is gone
//! from both the packed and the tail path. One generic body serves both
//! precisions: [`SoaBatch`] names the element and lane types of
//! [`BatchF64I`] and [`BatchDdI`].
//!
//! Because the tile executor is bit-identical to per-group execution
//! for every tile size and lane width, the output batch is
//! **bit-identical at any thread count and any tile size** — the same
//! guarantee the named kernels enjoy, now for arbitrary compiled
//! functions.

use crate::engine::{par_map_indexed_with, BatchConfig};
use crate::soa::{BatchDdI, BatchF64I};
use igen_interval::{DdI, DdIx4, F64Ix4, F64I};
use igen_kernels::LaneOrScalar;
use igen_telemetry::UnitProfiler;
use igen_vm::{
    program_width_hist, run_tile, run_tile_profiled, Precision, PreparedProgram, Program, TileBank,
    VmElem,
};
use std::any::Any;
use std::sync::Mutex;

/// Upper bound on pooled scratch sets kept across calls — enough for
/// any realistic worker count without hoarding memory on huge machines.
const POOL_CAP: usize = 64;

mod sealed {
    pub trait Sealed {}
}

/// An SoA interval batch a [`BatchProgram`] runs over: [`BatchF64I`]
/// for `f64` programs, [`BatchDdI`] for `dd` programs. Sealed — the two
/// precisions are the whole set. Its element and lane types select the
/// program's prepared engine.
pub trait SoaBatch: sealed::Sealed + Sized + Sync + PartialEq {
    /// The interval element.
    type Elem: VmElem + 'static;
    /// The packed four-lane vector of [`SoaBatch::Elem`].
    type Lane: LaneOrScalar<Self::Elem> + core::fmt::Debug + 'static;
    /// An empty batch with room for `n` intervals.
    fn with_capacity(n: usize) -> Self;
    /// Columnizes a slice of intervals.
    fn from_intervals(xs: &[Self::Elem]) -> Self;
    /// Number of intervals in the batch.
    fn len(&self) -> usize;
    /// True when the batch holds no intervals.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `i`-th interval.
    fn get(&self, i: usize) -> Self::Elem;
    /// Lanes `start, start + stride, ..` as one packed vector.
    fn load_x4(&self, start: usize, stride: usize) -> Self::Lane;
    /// Appends one interval.
    fn push(&mut self, v: Self::Elem);
}

/// Implements [`SoaBatch`] by forwarding to the batch's inherent methods.
macro_rules! soa_batch {
    ($batch:ident, $elem:ty, $lane:ty) => {
        impl sealed::Sealed for $batch {}
        impl SoaBatch for $batch {
            type Elem = $elem;
            type Lane = $lane;
            fn with_capacity(n: usize) -> $batch {
                $batch::with_capacity(n)
            }
            fn from_intervals(xs: &[$elem]) -> $batch {
                $batch::from_intervals(xs)
            }
            fn len(&self) -> usize {
                $batch::len(self)
            }
            fn get(&self, i: usize) -> $elem {
                $batch::get(self, i)
            }
            fn load_x4(&self, start: usize, stride: usize) -> $lane {
                $batch::load_x4(self, start, stride)
            }
            fn push(&mut self, v: $elem) {
                $batch::push(self, v);
            }
        }
    };
}
soa_batch!(BatchF64I, F64I, F64Ix4);
soa_batch!(BatchDdI, DdI, DdIx4);

/// The program prepared for its own precision.
#[derive(Debug, Clone)]
enum Prepared {
    F64(Engine<F64I, F64Ix4>),
    Dd(Engine<DdI, DdIx4>),
}

/// A prepared program plus its scratch pool: tile banks handed back
/// after every run so repeated calls (the benchmark loop, long-lived
/// services) stop paying bank allocation and constant fill. The pool
/// holds allocations only, never values, so sharing it across calls
/// cannot change a result bit.
#[derive(Debug)]
struct Engine<T: VmElem, L: LaneOrScalar<T>> {
    prep: PreparedProgram<T>,
    pool: Mutex<Vec<Scratch<T, L>>>,
}

impl<T: VmElem, L: LaneOrScalar<T>> Clone for Engine<T, L> {
    fn clone(&self) -> Engine<T, L> {
        // Scratch is per-instance cache, not state: clones start empty.
        Engine { prep: self.prep.clone(), pool: Mutex::new(Vec::new()) }
    }
}

/// A compiled program ready for batched evaluation.
///
/// Inputs are consumed item-major: item `i` occupies elements
/// `i * n_inputs .. (i + 1) * n_inputs` of the input batch, in the
/// program's declared input order; outputs are produced item-major in
/// the program's declared output order.
#[derive(Debug, Clone)]
pub struct BatchProgram {
    prepared: Prepared,
}

/// Per-worker scratch: the tile register banks and output buffers one
/// worker thread reuses across every tile it executes. Banks are built
/// lazily so a worker that only sees the tail never allocates the
/// packed one (and vice versa). Scratch carries allocations only —
/// never values — so it cannot perturb the determinism guarantee.
#[derive(Debug)]
struct Scratch<T: VmElem, L: LaneOrScalar<T>> {
    /// Tile size the packed bank was built for; a pooled scratch with a
    /// different tile drops its packed bank and rebuilds. Banks are
    /// sized to the tile actually *used* (never wider than the batch
    /// has groups): a wider bank would stride its sweeps past cold
    /// slots and waste cache-line bandwidth on every instruction.
    tile: usize,
    packed: Option<(TileBank<T, L>, Vec<L>)>,
    /// Items in the scalar-tail bank (1–3); same exact-fit rationale.
    tail_tile: usize,
    tail: Option<(TileBank<T, T>, Vec<T>)>,
}

/// Checks a scratch set out of a pool and returns it on drop (even on
/// worker panic unwinding), capped at [`POOL_CAP`].
struct Lease<'a, S> {
    scratch: Option<S>,
    pool: &'a Mutex<Vec<S>>,
}

impl<S> Lease<'_, S> {
    fn get(&mut self) -> &mut S {
        self.scratch.as_mut().expect("lease holds scratch until drop")
    }
}

impl<S> Drop for Lease<'_, S> {
    fn drop(&mut self) {
        if let (Some(s), Ok(mut pool)) = (self.scratch.take(), self.pool.lock()) {
            if pool.len() < POOL_CAP {
                pool.push(s);
            }
        }
    }
}

/// How one run cuts its batch into tasks: `tile_tasks` tiles of up to
/// `tile` packed groups, then one scalar-tail task if `tail > 0`.
struct Split {
    nin: usize,
    nout: usize,
    groups: usize,
    tail: usize,
    tile: usize,
    tile_tasks: usize,
}

impl Split {
    fn new(prog: &Program, items: usize, cfg: &BatchConfig) -> Split {
        let groups = items / 4;
        // Exact-fit tile: never wider than the batch has groups, so the
        // bank sweeps touch only warm, contiguous slots.
        let tile = cfg.tile_groups().min(groups.max(1));
        Split {
            nin: prog.n_inputs as usize,
            nout: prog.outputs.len(),
            groups,
            tail: items % 4,
            tile,
            tile_tasks: groups.div_ceil(tile),
        }
    }

    fn n_tasks(&self) -> usize {
        self.tile_tasks + usize::from(self.tail > 0)
    }
}

impl<T: VmElem, L: LaneOrScalar<T>> Engine<T, L> {
    fn new(prog: Program) -> Engine<T, L> {
        Engine { prep: PreparedProgram::new(prog), pool: Mutex::new(Vec::new()) }
    }

    /// Leases a scratch set fitted to `split` from the pool.
    fn lease(&self, split: &Split) -> Lease<'_, Scratch<T, L>> {
        let mut s = self.pool.lock().ok().and_then(|mut p| p.pop()).unwrap_or(Scratch {
            tile: split.tile,
            packed: None,
            tail_tile: split.tail,
            tail: None,
        });
        if s.tile != split.tile {
            s.packed = None;
            s.tile = split.tile;
        }
        if s.tail_tile != split.tail {
            s.tail = None;
            s.tail_tile = split.tail;
        }
        Lease { scratch: Some(s), pool: &self.pool }
    }
}

/// Runs task `t` of `split`: a tile of up to `split.tile` packed groups,
/// or the scalar tail as one tile at width 1. Returns the task's
/// outputs item-major.
fn run_task<B: SoaBatch>(
    prep: &PreparedProgram<B::Elem>,
    split: &Split,
    scratch: &mut Scratch<B::Elem, B::Lane>,
    inputs: &B,
    t: usize,
    prof: Option<&mut UnitProfiler>,
) -> Vec<B::Elem> {
    if t < split.tile_tasks {
        let g0 = t * split.tile;
        let ng = (split.groups - g0).min(split.tile);
        let bufs =
            scratch.packed.get_or_insert_with(|| (TileBank::new(prep, split.tile), Vec::new()));
        tile_task(prep, split, bufs, g0 * 4, ng, |i| inputs.load_x4(i, split.nin), prof)
    } else {
        let bufs =
            scratch.tail.get_or_insert_with(|| (TileBank::new(prep, split.tail), Vec::new()));
        tile_task(prep, split, bufs, split.groups * 4, split.tail, |i| inputs.get(i), prof)
    }
}

/// One tile of `ng` groups starting at item `first`: fills the input
/// columns (`load(i)` reads the group whose first element is batch
/// element `i`), runs the tile, and reads the slot-major outputs back
/// item-major.
fn tile_task<T: VmElem, L: LaneOrScalar<T>>(
    prep: &PreparedProgram<T>,
    split: &Split,
    (bank, out): &mut (TileBank<T, L>, Vec<L>),
    first: usize,
    ng: usize,
    load: impl Fn(usize) -> L,
    prof: Option<&mut UnitProfiler>,
) -> Vec<T> {
    let (nin, nout) = (split.nin, split.nout);
    for j in 0..nin {
        let col = bank.input_column(j as u32);
        for (g, slot) in col.iter_mut().enumerate().take(ng) {
            *slot = load((first + g * L::WIDTH) * nin + j);
        }
    }
    match prof {
        Some(prof) => run_tile_profiled(prep, bank, ng, out, prof),
        None => run_tile(prep, bank, ng, out),
    }
    let mut part = Vec::with_capacity(ng * L::WIDTH * nout);
    for g in 0..ng {
        for l in 0..L::WIDTH {
            for s in 0..nout {
                part.push(out[s * ng + g].lane_l(l));
            }
        }
    }
    part
}

impl BatchProgram {
    /// Prepares a lowered program for batched evaluation (decodes the
    /// constant pool once, per the program's precision).
    ///
    /// # Panics
    ///
    /// Panics if the program declares no inputs (a closed program has
    /// nothing to batch over).
    pub fn new(prog: Program) -> BatchProgram {
        assert!(prog.n_inputs > 0, "batched programs need at least one input");
        let prepared = match prog.precision {
            Precision::F64 => Prepared::F64(Engine::new(prog)),
            Precision::Dd => Prepared::Dd(Engine::new(prog)),
        };
        BatchProgram { prepared }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        match &self.prepared {
            Prepared::F64(e) => e.prep.program(),
            Prepared::Dd(e) => e.prep.program(),
        }
    }

    /// Items contained in an input batch of this length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of the program's input count.
    pub fn items_in(&self, len: usize) -> usize {
        let nin = self.program().n_inputs as usize;
        assert_eq!(len % nin, 0, "input batch length must be a multiple of {nin}");
        len / nin
    }

    /// The prepared engine for `B`'s precision.
    fn engine<B: SoaBatch>(&self) -> &Engine<B::Elem, B::Lane> {
        let e: &dyn Any = match &self.prepared {
            Prepared::F64(e) => e,
            Prepared::Dd(e) => e,
        };
        e.downcast_ref().unwrap_or_else(|| {
            panic!(
                "a {:?} program cannot run over a {:?} batch",
                self.program().precision,
                B::Elem::PRECISION
            )
        })
    }

    /// Runs the program over an item-major input batch of its own
    /// precision ([`BatchF64I`] for `f64`, [`BatchDdI`] for `dd`);
    /// returns the item-major output batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch precision is not the program's or the batch
    /// length is not a multiple of the input count.
    pub fn run<B: SoaBatch>(&self, cfg: &BatchConfig, inputs: &B) -> B {
        let e = self.engine::<B>();
        let prog = e.prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.", &prog.name);
        let items = self.items_in(inputs.len());
        let split = Split::new(prog, items, cfg);
        let parts: Vec<Vec<B::Elem>> = par_map_indexed_with(
            cfg,
            split.n_tasks(),
            || e.lease(&split),
            |lease, t| run_task(&e.prep, &split, lease.get(), inputs, t, None),
        );
        let mut result = B::with_capacity(items * split.nout);
        // Width recording only while a trace is live — same one-branch
        // guard the named kernels use, so untraced runs pay nothing.
        let recording = igen_telemetry::recording();
        let hist = program_width_hist(&prog.name);
        for v in parts.into_iter().flatten() {
            if recording {
                let (lo, hi) = v.endpoints_f64();
                hist.record(lo, hi);
            }
            result.push(v);
        }
        result
    }

    /// [`BatchProgram::run`] for `dd` programs. Kept as a named entry
    /// point because the `perfbench/` client calls it.
    ///
    /// # Panics
    ///
    /// Same as [`BatchProgram::run`].
    pub fn run_dd(&self, cfg: &BatchConfig, inputs: &BatchDdI) -> BatchDdI {
        self.run(cfg, inputs)
    }

    /// Runs the program with per-instruction width-provenance profiling
    /// into `prof` ([`igen_vm::run_tile_profiled`]).
    ///
    /// Sequential by design: profiling wants undistorted per-site
    /// timing, and the output is bit-identical to [`BatchProgram::run`]
    /// at any thread count regardless — the tasks are the same. The
    /// program-level width histogram is *not* fed here — the profile
    /// rows already carry the widths, site by site.
    ///
    /// # Panics
    ///
    /// Same as [`BatchProgram::run`].
    pub fn run_profiled<B: SoaBatch>(
        &self,
        cfg: &BatchConfig,
        inputs: &B,
        prof: &mut UnitProfiler,
    ) -> B {
        let e = self.engine::<B>();
        let prog = e.prep.program();
        let _span = igen_telemetry::span_joined("vm.batch.profiled.", &prog.name);
        let items = self.items_in(inputs.len());
        let split = Split::new(prog, items, cfg);
        let mut lease = e.lease(&split);
        let mut result = B::with_capacity(items * split.nout);
        for t in 0..split.n_tasks() {
            for v in run_task(&e.prep, &split, lease.get(), inputs, t, Some(&mut *prof)) {
                result.push(v);
            }
        }
        result
    }
}
