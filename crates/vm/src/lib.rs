//! Register bytecode for IGen interval programs.
//!
//! This crate turns an optimized, renumbered [`igen_ir::IrFunction`]
//! into a compact register [`Program`] — one flat instruction stream
//! over dense virtual registers, constants pooled and deduplicated,
//! inputs and outputs declared up front — and executes it with a
//! single lane-generic, tiled interpreter loop, [`run_tile`].
//!
//! The same program runs at scalar width (`F64I`, `DdI`) and at packed
//! width (`F64Ix4`, `DdIx4` via the `LaneOps` kernels) from one code
//! path. Because every packed kernel is lane-wise bit-identical to its
//! scalar counterpart, the packed execution of a compiled program is
//! bit-identical, endpoint for endpoint, to the scalar reference —
//! which is in turn pinned against the differential IR interpreter.
//! That chain is what lets `igen-batch` fan an arbitrary compiled
//! function out across threads with a determinism guarantee instead of
//! a tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod lower;
pub mod peephole;
pub mod prepared;

pub use bytecode::{DebugMap, Insn, OutputSlot, PoolConst, Precision, Program, SrcLoc};
pub use exec::{program_width_hist, run_scalar, VmElem};
pub use lower::{lower, ArgBind, BindSpec, LowerError, DEFAULT_STEP_BUDGET, MAX_INSNS};
pub use peephole::{peephole, PeepholeStats};
pub use prepared::{run_tile, run_tile_profiled, PreparedProgram, TileBank, DEFAULT_TILE_GROUPS};
