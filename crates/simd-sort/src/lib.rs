//! # mcs-simd-sort
//!
//! The sort substrate of *Fast Multi-Column Sorting in Main-Memory
//! Column-Stores* (SIGMOD'16): sorting `(key, oid)` pairs over
//! 16/32/64-bit key banks.
//!
//! By default ([`SortKernel::Auto`]) every sort is dispatched on its
//! length alone ([`kernel_for`]): insertion sort up to
//! [`INSERTION_MAX_ROWS`] rows, a comparison sort on packed `key‖oid`
//! words up to [`PACKED_MAX_ROWS`], a scratch-backed radix sort
//! ([`radix`]: MSD partition past [`MSD_MIN_ROWS`], LSD in cache) above.
//! [`sort_pairs_in_groups`] runs that dispatch once per tied group of a
//! multi-column round, serially or on workers that each own one
//! contiguous row range of the round, range-partitioning any oversized
//! group between them under either kernel ([`parallel`]).
//!
//! The paper's own `SIMD-Sort` stays reachable as
//! [`SortKernel::MergeSort`] for the figure bins and the cost-model
//! tests: the merge-sort of Balkesen et al. that the paper's cost model
//! (Eq. 5) decomposes into three phases:
//!
//! 1. **in-register sorting** — vertical Batcher networks over `L = 256/b`
//!    registers + transpose, producing sorted runs of `L`;
//! 2. **in-cache merging** — streaming binary bitonic merge networks until
//!    runs reach half the L2 cache;
//! 3. **out-of-cache merging** — `F`-way loser-tree merge passes
//!    ([`multiway`]).
//!
//! Keys occupy `b`-bit lanes; the 32-bit oid payload travels in parallel
//! registers, so narrower banks really do get proportionally more data
//! parallelism — the property code massaging exploits.
//!
//! On x86-64 with AVX2 the explicit-intrinsics kernels in [`avx2`] are
//! used (runtime-detected); elsewhere (or with
//! [`SortConfig::force_portable`]) the portable array kernels run.
//!
//! ```
//! use mcs_simd_sort::{sort_pairs, Bank};
//!
//! let mut keys: Vec<u32> = vec![30, 10, 20, 40];
//! let mut oids: Vec<u32> = (0..4).collect();
//! sort_pairs(&mut keys, &mut oids);
//! assert_eq!(keys, vec![10, 20, 30, 40]);
//! assert_eq!(oids, vec![1, 2, 0, 3]);
//! assert_eq!(Bank::min_for_width(17), Bank::B32);
//! ```

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod kernel;
mod key;
pub mod multiway;
pub mod network;
pub mod parallel;
pub mod phase;
pub mod portable;
pub mod radix;
pub mod scalar;
mod scratch;
mod segmented;
mod sort;

pub use key::{Bank, Key};
pub use mcs_cancel::{CancelCause, CancelToken, CHECK_INTERVAL};
pub use multiway::{multiway_merge, multiway_pass, MergeCounters};
pub use parallel::{
    for_each_chunk, for_each_worker, sort_pairs_in_groups, MorselCounts, WorkerPanic,
};
pub use phase::PhaseTimes;
pub use radix::{radix_sort_pairs, MSD_MIN_ROWS};
pub use scalar::{insertion_sort_pairs, sort_pairs_packed, sort_pairs_scalar};
pub use scratch::{MergeScratch, SortScratch, WorkerScratch};
pub use segmented::{group_boundaries, GroupBounds, SegmentedSortStats};
pub use sort::{
    avx2_available, kernel_for, runs_serially, SizeKernel, SortConfig, SortKernel, SortableKey,
    INSERTION_MAX_ROWS, MERGE_FANOUT, MERGE_SORT_INSERTION_MAX_ROWS, PACKED_MAX_ROWS,
    PARALLEL_CUTOFF_ROWS,
};

/// Sort `(keys, oids)` ascending by key with default configuration.
///
/// `keys` and `oids` must be the same length; oid values must be
/// `< u32::MAX` (reserved as the internal padding sentinel).
pub fn sort_pairs<K: SortableKey>(keys: &mut [K], oids: &mut [u32]) {
    sort_pairs_with(keys, oids, &SortConfig::default());
}

/// Sort `(keys, oids)` ascending by key with an explicit [`SortConfig`],
/// through a fresh [`SortScratch`] (callers that sort repeatedly keep
/// one and call [`SortableKey::sort_pairs_with_scratch`]).
pub fn sort_pairs_with<K: SortableKey>(keys: &mut [K], oids: &mut [u32], cfg: &SortConfig) {
    K::sort_pairs_with_scratch(keys, oids, cfg, &mut SortScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example() {
        let mut keys: Vec<u32> = vec![30, 10, 20, 40];
        let mut oids: Vec<u32> = (0..4).collect();
        sort_pairs(&mut keys, &mut oids);
        assert_eq!(keys, vec![10, 20, 30, 40]);
        assert_eq!(oids, vec![1, 2, 0, 3]);
    }
}
