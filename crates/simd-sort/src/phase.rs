//! Per-kernel timing of the sort substrate: the three merge-sort phases,
//! the radix kernel, and the small-sort kernels.
//!
//! A kernel runs once per sortable group, often thousands of times per
//! round, so each credits its time to the [`PhaseTimes`] inside the
//! `SortScratch` it already borrows — no lock, allocation or thread-local
//! on the sort path. The totals only grow; a segmented sort reports the
//! difference across its own call. The small kernels (insertion,
//! packed-word) take no per-group timestamps at all: the segmented loop
//! times itself once and credits them the remainder.

/// Nanoseconds spent in each sort kernel, summed over every invocation
/// covered by one reading: the merge-sort's three phases (the paper's
/// Eq. 5 decomposition; zero unless [`crate::SortKernel::MergeSort`] ran),
/// the radix kernel, and the small-sort kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Phase (a): in-register sorting networks + transpose.
    pub in_register_ns: u64,
    /// Phase (b): in-cache binary bitonic merge passes.
    pub in_cache_merge_ns: u64,
    /// Phase (c): out-of-cache multiway merge passes.
    pub multiway_merge_ns: u64,
    /// The radix kernel (histograms, scatter passes, copy-backs), and the
    /// parallel sort's partition and gather of oversized groups.
    pub radix_ns: u64,
    /// The insertion and packed-word kernels, including the segmented
    /// loop's per-group dispatch. Only the segmented sort reports it.
    pub small_sort_ns: u64,
}

impl PhaseTimes {
    /// Element-wise sum (used when merging per-thread stats).
    pub fn add(&mut self, other: PhaseTimes) {
        self.in_register_ns += other.in_register_ns;
        self.in_cache_merge_ns += other.in_cache_merge_ns;
        self.multiway_merge_ns += other.multiway_merge_ns;
        self.radix_ns += other.radix_ns;
        self.small_sort_ns += other.small_sort_ns;
    }

    /// Element-wise difference from an `earlier` reading of the same
    /// (only growing) totals: what was credited in between.
    pub(crate) fn since(self, earlier: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            in_register_ns: self.in_register_ns - earlier.in_register_ns,
            in_cache_merge_ns: self.in_cache_merge_ns - earlier.in_cache_merge_ns,
            multiway_merge_ns: self.multiway_merge_ns - earlier.multiway_merge_ns,
            radix_ns: self.radix_ns - earlier.radix_ns,
            small_sort_ns: self.small_sort_ns - earlier.small_sort_ns,
        }
    }

    /// Total time across all kernels.
    pub fn total_ns(&self) -> u64 {
        self.in_register_ns
            + self.in_cache_merge_ns
            + self.multiway_merge_ns
            + self.radix_ns
            + self.small_sort_ns
    }
}
