//! `igen-batch`: a parallel batch-evaluation engine over the IGen
//! interval runtime.
//!
//! The paper's runtime (and this reproduction's `igen-interval` /
//! `igen-kernels` crates) evaluates one kernel instance at a time. Real
//! deployments of a sound-arithmetic runtime are batch-shaped — many dot
//! products, many initial conditions, many inference inputs — so this
//! crate adds the missing throughput layer:
//!
//! * [`soa`] — structure-of-arrays interval buffers ([`BatchF64I`],
//!   [`BatchDdI`]): endpoint columns stored in the intervals' internal
//!   (negated-low) representation, feeding the `vector.rs` lane types
//!   with plain strided loads.
//! * [`engine`] — a chunked multi-threaded map/reduce
//!   ([`engine::par_map`], [`engine::par_reduce`]) built on
//!   `std::thread::scope` (`rayon` is unavailable offline — documented
//!   substitution), with a configurable sequential fallback threshold
//!   ([`BatchConfig`]).
//! * [`kernels`] — batched entry points for the paper kernels: dot
//!   products, matrix-vector products, GEMM row blocks, Hénon orbit
//!   ensembles, and FFNN inference batches.
//!
//! # Soundness and determinism
//!
//! All directed rounding in this workspace is *software* rounding via
//! error-free transformations — a pure function of its inputs. Batching
//! therefore cannot change results: every batched kernel executes, per
//! batch item, exactly the scalar kernel's operation sequence (four
//! items per packed register, element-wise lane ops), so outputs are
//! **bit-identical to the scalar path at any thread count**. Reductions
//! pin their combine order to fixed-size chunks so they too are
//! reproducible across thread counts. The property tests in
//! `tests/batch_properties.rs` enforce both guarantees.
//!
//! # Example
//!
//! ```
//! use igen_batch::{dot_batch, BatchConfig, BatchF64I};
//! use igen_interval::F64I;
//!
//! // 8 vectors of length 3, batched item-major.
//! let xs: BatchF64I = (0..24).map(|i| F64I::point(i as f64)).collect();
//! let cfg = BatchConfig::new().with_threads(2).with_seq_threshold(0);
//! let dots = dot_batch(&cfg, 3, &xs, &xs);
//! assert_eq!(dots.len(), 8);
//! assert_eq!(dots.get(0).hi(), 0.0 + 1.0 + 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod kernels;
pub mod program;
pub mod soa;

pub use engine::{available_threads, BatchConfig, DEFAULT_SEQ_THRESHOLD};
pub use igen_vm::DEFAULT_TILE_GROUPS;
pub use kernels::{
    dot_batch, dot_batch_dd, ffnn_batch, gemm_row_blocks, henon_ensemble, henon_ensemble_dd,
    mvm_batch, mvm_batch_dd,
};
pub use program::{BatchProgram, SoaBatch};
pub use soa::{BatchDdI, BatchF64I};
