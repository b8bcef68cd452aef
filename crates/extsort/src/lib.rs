//! # mcs-extsort
//!
//! The memory-budgeted path of the multi-column sort: when a caller sets
//! a working-memory budget smaller than the sort's leased footprint
//! ([`mcs_core::lease_footprint_bytes`]), the output oids are
//! range-partitioned on the direction-adjusted key, one byte per level
//! read straight from the input columns, into buckets of at most
//! [`chunk_rows_for_budget`] rows. Each bucket is sorted in memory by
//! the existing massaged SIMD sort, which reads the key columns through
//! the bucket's oids and leases buffers from the caller's
//! [`mcs_core::ExecArena`]; the key columns the caller names
//! (`ExecConfig::want_keys`) are decoded bucket by bucket into their
//! range of the result. A byte that holds more rows than a bucket
//! recurses on the next byte; one that runs past the key's last bit is a
//! single tie group.
//!
//! The inputs are resident columns, so nothing goes to disk and nothing
//! is merged: buckets are disjoint key ranges in key order. See
//! `DESIGN.md` §13.
//!
//! The budgeted path produces output **byte-identical** to the in-memory
//! path: the first level scatters the caller's rows stably, so every
//! bucket holds its rows in the caller's order; bucket edges are group
//! edges; and the core executor emits ties in the order of its row list
//! (its `Auto` kernels are stable; under `MergeSort` it canonicalizes
//! them). `tests/differential_oracle.rs` and `tests/partition_proptests.rs`
//! assert this across the plan/bank/thread/direction matrix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod sort;

pub use sort::external_multi_column_sort_with;
pub use sort::{budgeted_sort_rows, chunk_rows_for_budget, SpillStats};
