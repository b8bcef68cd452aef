//! # mcs-core
//!
//! **Code massaging** — the primary contribution of *Fast Multi-Column
//! Sorting in Main-Memory Column-Stores* (Xu, Feng, Lo; SIGMOD 2016).
//!
//! Multi-column sorting (`ORDER BY c1, c2, …` / `GROUP BY` /
//! `PARTITION BY`) is conventionally executed column-at-a-time: one SIMD
//! sorting round per column, with lookups and scans in between. Code
//! massaging manipulates the *bits across the columns*: the concatenated
//! `W`-bit sort key is re-partitioned into rounds that either eliminate
//! sorting rounds (stitching), improve SIMD data parallelism
//! (bit-borrowing into narrower banks), or both. Lemma 1 of the paper
//! guarantees any such re-partition yields the same tuple order.
//!
//! This crate provides:
//! * [`MassagePlan`] / [`Round`] / [`SortSpec`] — the plan model
//!   (`{R1: 18/[32], R2: 32/[32]}` notation included);
//! * [`MassageProgram`] — the compiled four-instruction (shift/mask/or/
//!   shift) program of the paper's Figure 6, with `I_FIP` accounting and
//!   `DESC` complementing (Figure 5);
//! * [`multi_column_sort`] — the one sort entry point: massage →
//!   per-round lookup/segmented-SIMD-sort/scan, with per-phase
//!   telemetry, over every row or a caller's row list (a filter's oids),
//!   reading each key column through the list where it lies;
//! * [`ExecArena`] — the reusable execution arena the sort draws its
//!   working memory from: repeated sorts run their round loop with zero
//!   heap allocations once the arena is warm;
//! * [`ExecConfig::memory_budget_bytes`] — a working-memory budget: a
//!   sort whose [`lease_footprint_bytes`] exceed it is range-partitioned
//!   on the key into buckets that fit, each sorted in memory in turn,
//!   with byte-identical output;
//! * [`ExecConfig::want_keys`] — sort columns read back in output order
//!   from the sorted round keys (the inverse FIP), not through the oids.
//!
//! ```
//! use mcs_columnar::CodeVec;
//! use mcs_core::{multi_column_sort, ExecArena, ExecConfig, MassagePlan, SortSpec};
//!
//! // ORDER BY nation (10-bit), ship_date (17-bit): stitch into one
//! // 27-bit round instead of two rounds.
//! let nation = CodeVec::from_u64s(10, [1u64, 0, 1]);
//! let ship = CodeVec::from_u64s(17, [1201u64, 301, 501]);
//! let specs = [SortSpec::asc(10), SortSpec::asc(17)];
//! let plan = MassagePlan::from_widths(&[27]);
//! let mut arena = ExecArena::new();
//! let cfg = ExecConfig::default();
//! let out = multi_column_sort(&[&nation, &ship], None, &specs, &plan, &cfg, &mut arena)
//!     .expect("plan covers the 27-bit key");
//! assert_eq!(out.oids, vec![1, 2, 0]);
//!
//! // The same sort of rows 2 and 0 only, under a one-byte budget: every
//! // row is its own bucket.
//! let cfg = ExecConfig { memory_budget_bytes: Some(1), ..ExecConfig::default() };
//! let out = multi_column_sort(&[&nation, &ship], Some(&[2, 0]), &specs, &plan, &cfg, &mut arena)
//!     .expect("plan covers the 27-bit key");
//! assert_eq!((out.oids, out.stats.buckets), (vec![2, 0], 2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod arena;
mod budget;
mod executor;
mod massage;
mod plan;

pub use arena::{lease_footprint_bytes, ArenaStats, ExecArena};
pub use executor::{
    multi_column_sort, tuple_cmp, verify_sorted, ExecConfig, ExecStats, MultiColumnSortOutput,
    RoundStats, SortError,
};
pub use massage::{massage, width_mask, FipStep, MassageProgram, RoundKeys};
pub use plan::{MassagePlan, PlanError, Round, SortSpec};

// Re-export the pieces callers need alongside plans.
pub use mcs_cancel::{CancelCause, CancelToken, CHECK_INTERVAL};
pub use mcs_simd_sort::{Bank, GroupBounds, PhaseTimes, SortConfig, SortKernel};
