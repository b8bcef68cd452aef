//! Segmented (per-group) sorting — the second and later rounds of
//! multi-column sorting.
//!
//! After round `k-1`, tuples tied on all previous sort keys form groups;
//! round `k` sorts the next key *within each group* independently
//! (Step ③ in the paper's Figure 2a). Singleton groups are skipped, which
//! is exactly the effect behind the falling `N_sort` on the left flank of
//! the Figure 4 time hill.

use crate::key::Key;
use crate::ovc::MergeCounters;
use crate::phase::PhaseTimes;
use crate::scratch::SortScratch;
use crate::sort::{SortConfig, SortableKey};
use mcs_cancel::CHECK_INTERVAL;
use std::time::Instant;

/// Group layout: starts of each group plus the final end, i.e.
/// `groups[g] = bounds[g]..bounds[g+1]`. Always has at least one element
/// (`n` itself when there are no rows... see [`GroupBounds::whole`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBounds {
    /// `len + 1` monotone offsets: `[0, b1, b2, …, n]` when non-trivial.
    pub offsets: Vec<u32>,
}

impl GroupBounds {
    /// A single group covering `0..n`.
    pub fn whole(n: usize) -> Self {
        GroupBounds {
            offsets: vec![0, n as u32],
        }
    }

    /// Build from explicit offsets (must start at 0, end at `n`, monotone).
    pub fn from_offsets(offsets: Vec<u32>) -> Self {
        debug_assert!(offsets.len() >= 2);
        debug_assert_eq!(offsets[0], 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        GroupBounds { offsets }
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of rows covered.
    #[inline]
    pub fn num_rows(&self) -> usize {
        *self.offsets.last().unwrap() as usize
    }

    /// Iterate the groups as index ranges.
    pub fn iter(&self) -> impl Iterator<Item = core::ops::Range<usize>> + '_ {
        self.offsets
            .windows(2)
            .map(|w| w[0] as usize..w[1] as usize)
    }

    /// Refine: scan sorted `keys` and split every group at positions where
    /// consecutive keys differ (the paper's `T_scan` step, Eq. 9).
    pub fn refine_by<K: Key>(&self, keys: &[K]) -> GroupBounds {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        self.refine_into(keys, &mut offsets);
        GroupBounds { offsets }
    }

    /// Like [`GroupBounds::refine_by`], but writing the refined offsets
    /// into `out` (cleared first) instead of allocating a new vector —
    /// allocation-free when `out` already has enough capacity.
    pub fn refine_into<K: Key>(&self, keys: &[K], out: &mut Vec<u32>) {
        debug_assert_eq!(self.num_rows(), keys.len());
        out.clear();
        out.push(0u32);
        for r in self.iter() {
            for i in r.start + 1..r.end {
                if keys[i] != keys[i - 1] {
                    out.push(i as u32);
                }
            }
            if r.end > 0 && *out.last().unwrap() != r.end as u32 {
                out.push(r.end as u32);
            }
        }
        if out.len() == 1 {
            out.push(0);
        }
    }
}

/// Statistics of one segmented-sort round (feeds the paper's Figure 4b and
/// the cost model's calibration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentedSortStats {
    /// Number of SIMD-sort invocations (groups with > 1 element).
    pub invocations: usize,
    /// Total number of codes actually sorted.
    pub codes_sorted: usize,
    /// Largest group size encountered.
    pub max_group: usize,
    /// Time spent in each sort kernel, summed across invocations (and,
    /// on the parallel path, across workers).
    pub phases: PhaseTimes,
    /// Loser-tree comparison counters of the out-of-cache merge passes
    /// and split-group merges, summed across invocations
    /// ([`crate::ovc`]).
    pub merge: MergeCounters,
    /// Scheduler counters of the parallel path (all zero on the serial
    /// path and below the parallel cutoff).
    pub morsels: crate::MorselCounts,
}

/// Sort `(keys, oids)` within each group of an offsets window
/// independently, each group by the kernel
/// [`SortableKey::sort_pairs_with_scratch`] picks for its length — the
/// serial loop under [`crate::sort_pairs_in_groups`], whose parallel path
/// hands each worker a span's rows with the span's window of the round's
/// offsets (`offsets[0]` is the first row of `keys`).
///
/// Kernel times are credited to `scratch`, plus the loop's own time
/// outside the self-timing kernels as `small_sort_ns`.
pub(crate) fn sort_groups_by_offsets<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    offsets: &[u32],
    cfg: &SortConfig,
    scratch: &mut SortScratch,
) {
    assert_eq!(keys.len(), oids.len());
    let base = offsets[0];
    let t0 = Instant::now();
    let timed = scratch.phases.total_ns();
    // Cancellation poll, amortized over rows so runs of tiny groups don't
    // pay an `Instant::now` each (large groups also poll inside their
    // kernel). A fired token abandons the remaining groups; the
    // caller re-checks the token and discards the partially sorted round.
    let mut rows_since_poll = 0usize;
    for w in offsets.windows(2) {
        let r = (w[0] - base) as usize..(w[1] - base) as usize;
        let len = r.len();
        if len <= 1 {
            continue;
        }
        rows_since_poll += len;
        if rows_since_poll >= CHECK_INTERVAL {
            rows_since_poll = 0;
            if cfg.cancel.check().is_err() {
                break;
            }
        }
        K::sort_pairs_with_scratch(&mut keys[r.clone()], &mut oids[r], cfg, scratch);
    }
    let kernels = scratch.phases.total_ns() - timed;
    scratch.phases.small_sort_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(kernels);
}

/// Group statistics of a round over `offsets`: every group of more than
/// one row is one sort invocation.
pub(crate) fn group_stats(offsets: &[u32]) -> SegmentedSortStats {
    let mut stats = SegmentedSortStats::default();
    for w in offsets.windows(2) {
        let len = (w[1] - w[0]) as usize;
        if len > 1 {
            stats.invocations += 1;
            stats.codes_sorted += len;
            stats.max_group = stats.max_group.max(len);
        }
    }
    stats
}

/// Extract group boundaries of a fully sorted key column (round 1's scan).
pub fn group_boundaries<K: Key>(keys: &[K]) -> GroupBounds {
    GroupBounds::whole(keys.len()).refine_by(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SortConfig, WorkerScratch};

    /// The serial segmented sort through a fresh scratch.
    fn sort_pairs_in_groups<K: SortableKey>(
        keys: &mut [K],
        oids: &mut [u32],
        groups: &GroupBounds,
        cfg: &SortConfig,
    ) -> SegmentedSortStats {
        crate::sort_pairs_in_groups(keys, oids, groups, 1, cfg, &mut WorkerScratch::new())
            .expect("the serial path spawns no worker")
    }

    #[test]
    fn whole_and_refine() {
        let keys: Vec<u32> = vec![1, 1, 2, 2, 2, 3];
        let g = group_boundaries(&keys);
        assert_eq!(g.offsets, vec![0, 2, 5, 6]);
        assert_eq!(g.num_groups(), 3);
    }

    #[test]
    fn refine_within_groups_only() {
        // Two parent groups [0..3) and [3..6); equal keys across the parent
        // boundary must NOT merge.
        let keys: Vec<u32> = vec![5, 5, 5, 5, 6, 6];
        let parent = GroupBounds::from_offsets(vec![0, 3, 6]);
        let g = parent.refine_by(&keys);
        assert_eq!(g.offsets, vec![0, 3, 4, 6]);
    }

    #[test]
    fn empty_input() {
        let keys: Vec<u32> = vec![];
        let g = group_boundaries(&keys);
        assert_eq!(g.num_groups(), 1); // one empty group
        assert_eq!(g.num_rows(), 0);
    }

    #[test]
    fn empty_partitions_are_skipped_and_dropped() {
        // An empty group ([2, 2)) sandwiched between real ones: it is
        // never sortable, and refine_by drops it from the output.
        let g = GroupBounds::from_offsets(vec![0, 2, 2, 5]);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.iter().map(|r| r.len()).collect::<Vec<_>>(), vec![2, 0, 3]);
        let keys: Vec<u32> = vec![1, 1, 2, 2, 3];
        assert_eq!(g.refine_by(&keys).offsets, vec![0, 2, 4, 5]);

        // Sorting with an empty group present must not panic or touch
        // neighbouring groups.
        let mut keys: Vec<u32> = vec![4, 3, 9, 8, 7];
        let mut oids: Vec<u32> = (0..5).collect();
        let stats = sort_pairs_in_groups(
            &mut keys,
            &mut oids,
            &GroupBounds::from_offsets(vec![0, 2, 2, 5]),
            &SortConfig::default(),
        );
        assert_eq!(keys, vec![3, 4, 7, 8, 9]);
        assert_eq!(stats.invocations, 2);
    }

    #[test]
    fn single_row_partitions_survive_refinement() {
        let g = GroupBounds::from_offsets(vec![0, 1, 2, 3]);
        let keys: Vec<u32> = vec![7, 7, 7];
        // Equal keys across singleton boundaries must not merge.
        assert_eq!(g.refine_by(&keys).offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_ties_collapse_to_one_whole_relation_group() {
        let n = 300usize;
        let keys: Vec<u16> = vec![42; n];
        let g = group_boundaries(&keys);
        assert_eq!(g.offsets, vec![0, n as u32]);
        assert_eq!(g.num_groups(), 1);
        // Refining the whole relation by an all-equal key is a no-op.
        assert_eq!(
            GroupBounds::whole(n).refine_by(&keys).offsets,
            vec![0, n as u32]
        );
    }

    #[test]
    fn segmented_sort_sorts_within_groups() {
        let mut keys: Vec<u32> = vec![3, 1, 2, 9, 8, 7, 5];
        let mut oids: Vec<u32> = (0..7).collect();
        let groups = GroupBounds::from_offsets(vec![0, 3, 7]);
        let stats = sort_pairs_in_groups(&mut keys, &mut oids, &groups, &SortConfig::default());
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.codes_sorted, 7);
        assert_eq!(stats.max_group, 4);
    }

    #[test]
    fn singletons_skipped() {
        let mut keys: Vec<u32> = vec![5, 4, 3, 2, 1];
        let mut oids: Vec<u32> = (0..5).collect();
        let groups = GroupBounds::from_offsets(vec![0, 1, 2, 3, 4, 5]);
        let stats = sort_pairs_in_groups(&mut keys, &mut oids, &groups, &SortConfig::default());
        assert_eq!(stats.invocations, 0);
        assert_eq!(keys, vec![5, 4, 3, 2, 1]); // untouched
    }

    #[test]
    fn large_groups_use_simd_path() {
        let cfg = SortConfig {
            kernel: crate::SortKernel::MergeSort,
            ..SortConfig::default()
        };
        let n = 4096;
        let mut keys: Vec<u16> = (0..n).map(|i| (i * 2654435761u64 % 65536) as u16).collect();
        let orig = keys.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        let groups = GroupBounds::from_offsets(vec![0, (n / 2) as u32, n as u32]);
        sort_pairs_in_groups(&mut keys, &mut oids, &groups, &cfg);
        for r in groups.iter() {
            assert!(keys[r].windows(2).all(|w| w[0] <= w[1]));
        }
        for i in 0..n as usize {
            assert_eq!(keys[i], orig[oids[i] as usize]);
        }
    }
}
