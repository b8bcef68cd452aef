//! # mcs-simd-sort
//!
//! SIMD merge-sort with a sorting-network kernel over 16/32/64-bit banks,
//! sorting `(key, oid)` pairs — the `SIMD-Sort` substrate of the paper
//! *Fast Multi-Column Sorting in Main-Memory Column-Stores* (SIGMOD'16).
//!
//! The implementation follows the merge-sort of Balkesen et al. that the
//! paper's cost model (Eq. 5) decomposes into three phases:
//!
//! 1. **in-register sorting** — vertical Batcher networks over `L = 256/b`
//!    registers + transpose, producing sorted runs of `L`;
//! 2. **in-cache merging** — streaming binary bitonic merge networks until
//!    runs reach half the L2 cache;
//! 3. **out-of-cache merging** — `F`-way loser-tree merge passes.
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
pub mod ovc;
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
pub use mcs_morsel::{Morsel, MorselCounts, MorselQueue};
pub use multiway::{
    multiway_merge_ovc_scratch, multiway_merge_ovc_scratch_cancellable, multiway_merge_scratch,
    multiway_merge_scratch_cancellable, multiway_pass_ovc_scratch,
    multiway_pass_ovc_scratch_cancellable, multiway_pass_scratch,
    multiway_pass_scratch_cancellable, StreamHead, StreamMerger, StreamSource,
};
pub use ovc::{ovc_encode, take_merge_counters, MergeCounters};
pub use parallel::{
    for_each_chunk, sort_pairs_in_groups_parallel, sort_pairs_in_groups_parallel_scratch,
    sort_pairs_parallel, WorkerPanic,
};
pub use phase::PhaseTimes;
pub use radix::{sort_pairs_radix, sort_pairs_radix_in_groups};
pub use scalar::{insertion_sort_pairs, sort_pairs_packed, sort_pairs_scalar};
pub use scratch::{MergeScratch, SortScratch, WorkerScratch};
pub use segmented::{
    group_boundaries, sort_pairs_in_groups, sort_pairs_in_groups_scratch, GroupBounds,
    SegmentedSortStats,
};
pub use sort::{
    avx2_available, kernel_for, SizeKernel, SortConfig, SortKernel, SortableKey,
    DEFAULT_PARALLEL_CUTOFF_ROWS, INSERTION_MAX_ROWS, PACKED_MAX_ROWS,
};

/// Sort `(keys, oids)` ascending by key with default configuration.
///
/// `keys` and `oids` must be the same length; oid values must be
/// `< u32::MAX` (reserved as the internal padding sentinel).
pub fn sort_pairs<K: SortableKey>(keys: &mut [K], oids: &mut [u32]) {
    K::sort_pairs_with(keys, oids, &SortConfig::default());
}

/// Sort `(keys, oids)` ascending by key with an explicit [`SortConfig`].
pub fn sort_pairs_with<K: SortableKey>(keys: &mut [K], oids: &mut [u32], cfg: &SortConfig) {
    K::sort_pairs_with(keys, oids, cfg);
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
