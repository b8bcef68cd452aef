//! # mcs-extsort
//!
//! The out-of-core path of the multi-column sort: when a caller sets a
//! resident-memory budget smaller than the sort's leased footprint
//! ([`mcs_core::lease_footprint_bytes`]), the input is split into
//! budget-sized chunks, each chunk is sorted in memory by the existing
//! massaged SIMD sort (leasing buffers from the caller's
//! [`mcs_core::ExecArena`]), the sorted chunks are spilled to disk as
//! self-describing little-endian run files, and the runs are k-way
//! merged back through the streaming offset-value-coded loser tree of
//! [`mcs_simd_sort::LoserTree`] behind bounded read-ahead buffers —
//! so merge comparisons stay code-resolved out-of-core (Do & Graefe,
//! *Robust and Efficient Sorting with Offset-Value Coding*).
//!
//! Run files store each row's direction-adjusted sort key packed into
//! `⌈W/64⌉` big-endian-ordered words plus its global oid; offset-value
//! codes are **not** stored — they are rebuilt for free while streaming
//! a run back, coding each head against its run predecessor (the run's
//! first element against the all-zero key). See `DESIGN.md` §13.
//!
//! The external path produces output **byte-identical** to the
//! in-memory path: the core executor emits ties in row order (its `Auto`
//! kernels are stable; under `MergeSort` it canonicalizes them), chunks
//! are contiguous row ranges, and the merge tree breaks key ties
//! toward the lower run index, so ties drain in global row order either
//! way. `tests/differential_oracle.rs` asserts this across the full
//! plan/bank/thread/direction/OVC matrix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod runfile;
mod sort;

pub use runfile::{RunFileError, RunFileReader, RunFileWriter, RunHeader, RUN_MAGIC, RUN_VERSION};
pub use sort::{
    chunk_rows_for_budget, external_multi_column_sort_with, live_spill_dirs, run_entry_bytes,
    SpillStats,
};
