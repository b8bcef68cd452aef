//! `RANK() OVER (PARTITION BY … ORDER BY …)` evaluation over the sorted,
//! grouped output of a multi-column sort.

use mcs_columnar::CodeVec;
use mcs_core::GroupBounds;

/// The partitions of a window query's sorted output: `groups` (the sort's
/// final tie groups on the partition *and* window-order keys) merged
/// wherever the partition keys `part_keys` — read from the base columns
/// through `oids` — do not change across a group boundary. Only the rows
/// on either side of each group start are compared.
pub(crate) fn partition_bounds(
    groups: &GroupBounds,
    oids: &[u32],
    part_keys: &[&CodeVec],
) -> GroupBounds {
    let n = groups.num_rows();
    let mut offsets = vec![0u32];
    for &start in &groups.offsets[1..groups.num_groups()] {
        let (a, b) = (oids[start as usize - 1], oids[start as usize]);
        if part_keys
            .iter()
            .any(|c| c.get(a as usize) != c.get(b as usize))
        {
            offsets.push(start);
        }
    }
    offsets.push(n as u32);
    GroupBounds::from_offsets(offsets)
}

/// Compute SQL `RANK()` per output position from the sort's own ties.
///
/// `groups` are the final tie groups on the full sort key (PARTITION BY
/// keys, then the window order), so rows of one group are exactly the
/// rows that share a rank. `partitions` coarsen them: every partition
/// starts at a group start. A row's rank is 1 + the offset of its group's
/// first row within its partition (standard `RANK`, with gaps).
pub fn rank_over(partitions: &GroupBounds, groups: &GroupBounds) -> Vec<u64> {
    let mut out = vec![0u64; groups.num_rows()];
    let mut starts = partitions.offsets.iter().map(|&s| s as usize).peekable();
    let mut part_start = 0;
    for g in groups.iter() {
        while let Some(s) = starts.next_if(|&s| s <= g.start) {
            part_start = s;
        }
        out[g.clone()].fill((g.start - part_start) as u64 + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(offsets: &[u32]) -> GroupBounds {
        GroupBounds::from_offsets(offsets.to_vec())
    }

    #[test]
    fn ranks_with_gaps() {
        // One partition, keys 5,5,7,9,9,9 -> ranks 1,1,3,4,4,4.
        let ranks = rank_over(&bounds(&[0, 6]), &bounds(&[0, 2, 3, 6]));
        assert_eq!(ranks, vec![1, 1, 3, 4, 4, 4]);
    }

    #[test]
    fn ranks_reset_per_partition() {
        // Keys 1,2,2 | 1,1,5.
        let ranks = rank_over(&bounds(&[0, 3, 6]), &bounds(&[0, 1, 3, 5, 6]));
        assert_eq!(ranks, vec![1, 2, 2, 1, 1, 3]);
    }

    #[test]
    fn empty() {
        let whole = GroupBounds::whole(0);
        assert!(rank_over(&whole, &whole).is_empty());
    }

    #[test]
    fn empty_partition_between_real_ones() {
        // Partition offsets [0, 2, 2, 4]: the middle partition covers no
        // rows and must not disturb its neighbours' ranks (keys 3,3 | 1,2).
        let ranks = rank_over(&bounds(&[0, 2, 2, 4]), &bounds(&[0, 2, 3, 4]));
        assert_eq!(ranks, vec![1, 1, 1, 2]);
    }

    #[test]
    fn single_row_partitions_all_rank_one() {
        let singles = bounds(&[0, 1, 2, 3, 4]);
        assert_eq!(rank_over(&singles, &singles), vec![1, 1, 1, 1]);
    }

    #[test]
    fn all_ties_spanning_whole_relation() {
        let n = 257usize;
        let whole = GroupBounds::whole(n);
        assert_eq!(rank_over(&whole, &whole), vec![1u64; n]);
    }

    #[test]
    fn partitions_break_only_where_partition_keys_change() {
        // Sorted rows (p, o): (0,1) (0,1) (0,2) (1,2) (1,3); the final
        // groups are the ties on (p, o), stored in base rows 4,2,0,3,1.
        let p = CodeVec::from_u64s(1, [0u64, 1, 0, 1, 0]);
        let oids = [4u32, 2, 0, 3, 1];
        let groups = bounds(&[0, 2, 3, 4, 5]);
        let parts = partition_bounds(&groups, &oids, &[&p]);
        assert_eq!(parts.offsets, vec![0, 3, 5]);
        assert_eq!(rank_over(&parts, &groups), vec![1, 1, 3, 1, 2]);
        // No rows: one empty partition, like an empty grouping.
        let none = partition_bounds(&GroupBounds::whole(0), &[], &[&p]);
        assert_eq!(none.offsets, vec![0, 0]);
    }
}
