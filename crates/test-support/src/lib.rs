//! # mcs-test-support
//!
//! The shared differential-testing substrate for the workspace. The
//! repo builds in fully offline environments, so instead of `rand` /
//! `proptest` this crate provides, with zero external
//! dependencies:
//!
//! * [`rng`] — a seeded xoshiro256++ PRNG with a `rand`-style API
//!   (`seed_from_u64`, `gen`, `gen_range`, `gen_bool`, `shuffle`);
//! * [`prop`] — a mini property-test harness (`PROPTEST_CASES` caps the
//!   case count, `MCS_TEST_SEED` replays one failing case);
//! * [`gen`] — seeded multi-column workload generators: random widths,
//!   ASC/DESC mixes, uniform / duplicate-heavy / skewed / adversarial
//!   distributions, and the degenerate shapes n=0, n=1, width=1;
//! * [`oracle`] — a naive scalar reference that sorts row tuples
//!   lexicographically and derives group bounds, ranks, and aggregates,
//!   plus [`oracle::assert_matches_reference`] for comparing an engine
//!   result against it;
//! * [`alloc_counter`] — a counting `GlobalAlloc` wrapper so tests can
//!   assert allocation budgets (e.g. the warm-arena zero-allocation
//!   round loop).
//!
//! The oracle operates on plain `Vec<u64>` columns and shares no code
//! with the massage/SIMD pipeline, which is what makes the comparison a
//! differential test rather than a tautology.

// Only `alloc_counter` needs `unsafe` (the `GlobalAlloc` trait is
// unsafe by definition); everything else stays forbidden per-module.
#![deny(unsafe_code)]

pub mod alloc_counter;
pub mod gen;
pub mod oracle;
pub mod prop;
pub mod rng;

pub use alloc_counter::{allocation_count, thread_allocation_count, CountingAlloc};
pub use gen::{
    degenerate_problems, gen_codes, gen_problem, gen_row_list, random_specs, ColumnSpec, Dist,
};
pub use oracle::{
    assert_matches_reference, reference_aggregates, reference_rank, reference_sort,
    GroupAggregates, Reference, SortProblem,
};
pub use prop::{check, num_cases};
pub use rng::Rng;
