//! Per-kernel timing of the sort substrate: the three merge-sort phases,
//! the radix kernel, and the small-sort kernels.
//!
//! A kernel runs once per sortable group, often thousands of times per
//! round, so times are accumulated in a thread-local and harvested *once
//! per round* into [`PhaseTimes`] — no lock or allocation on the sort
//! path. The small kernels (insertion, packed-word) take no per-group
//! timestamps at all: the segmented loop times itself once and credits
//! them the remainder ([`small_residual_ns`]).

use std::cell::Cell;
use std::time::Instant;

/// Nanoseconds spent in each sort kernel, summed over every invocation
/// covered by one harvest: the merge-sort's three phases (the paper's
/// Eq. 5 decomposition; zero unless [`crate::SortKernel::MergeSort`] ran),
/// the LSD radix kernel, and the small-sort kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Phase (a): in-register sorting networks + transpose.
    pub in_register_ns: u64,
    /// Phase (b): in-cache binary bitonic merge passes.
    pub in_cache_merge_ns: u64,
    /// Phase (c): out-of-cache multiway merge passes.
    pub multiway_merge_ns: u64,
    /// The LSD radix kernel (histogram + scatter passes + copy-back).
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

    /// Total time across all kernels.
    pub fn total_ns(&self) -> u64 {
        self.in_register_ns
            + self.in_cache_merge_ns
            + self.multiway_merge_ns
            + self.radix_ns
            + self.small_sort_ns
    }
}

thread_local! {
    static ACC: Cell<PhaseTimes> = const { Cell::new(PhaseTimes {
        in_register_ns: 0,
        in_cache_merge_ns: 0,
        multiway_merge_ns: 0,
        radix_ns: 0,
        small_sort_ns: 0,
    }) };
}

/// Credit one merge-sort invocation's phase boundaries
/// (`a`→`b` in-register, `b`→`c` in-cache, `c`→`d` multiway) to the
/// current thread's accumulator.
#[inline]
pub fn record_marks(a: Instant, b: Instant, c: Instant, d: Instant) {
    ACC.with(|acc| {
        let mut t = acc.get();
        t.in_register_ns += b.duration_since(a).as_nanos() as u64;
        t.in_cache_merge_ns += c.duration_since(b).as_nanos() as u64;
        t.multiway_merge_ns += d.duration_since(c).as_nanos() as u64;
        acc.set(t);
    });
}

/// Credit one radix-kernel invocation started at `a` to the current
/// thread's accumulator.
#[inline]
pub fn record_radix(a: Instant) {
    ACC.with(|acc| {
        let mut t = acc.get();
        t.radix_ns += a.elapsed().as_nanos() as u64;
        acc.set(t);
    });
}

/// What a segmented loop started at `a` spent outside the kernels
/// that time themselves (`timed`): the small sorts and their dispatch.
#[inline]
pub fn small_residual_ns(a: Instant, timed: &PhaseTimes) -> u64 {
    (a.elapsed().as_nanos() as u64).saturating_sub(timed.total_ns())
}

/// Drain this thread's accumulated phase times.
pub fn take_phases() -> PhaseTimes {
    ACC.with(|acc| acc.replace(PhaseTimes::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_drains_per_thread() {
        let _ = take_phases();
        let a = Instant::now();
        let b = Instant::now();
        record_marks(a, b, b, b);
        record_marks(a, a, a, b);
        let t = take_phases();
        assert!(t.in_register_ns <= t.total_ns());
        assert_eq!(take_phases(), PhaseTimes::default(), "drained");

        // Another thread's accumulator is independent.
        std::thread::spawn(|| {
            assert_eq!(take_phases(), PhaseTimes::default());
        })
        .join()
        .unwrap();
    }
}
