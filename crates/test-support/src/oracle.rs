//! The scalar reference oracle.
//!
//! A deliberately naive implementation of multi-column ORDER BY:
//! materialize row tuples, sort them with `slice::sort_by` under the §3
//! comparator (per-column, direction via one's-complement on the
//! column's width), and derive group bounds, ranks, and aggregates by
//! direct scans. It shares no code with the engine's massage/SIMD
//! pipeline, so any agreement between the two is meaningful.

/// A multi-column sort instance over plain `u64` codes.
///
/// `columns[c][r]` is row `r`'s code in column `c`; every code is
/// `< 2^widths[c]`. Total width may exceed 64 — the oracle compares
/// column-by-column and never concatenates.
#[derive(Debug, Clone)]
pub struct SortProblem {
    /// Per-column codes, all the same length.
    pub columns: Vec<Vec<u64>>,
    /// Per-column bit widths (1..=64).
    pub widths: Vec<u32>,
    /// Per-column direction (true = DESC).
    pub descending: Vec<bool>,
}

impl SortProblem {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of sort columns.
    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Row `r`'s code in column `c`, direction-adjusted so that plain
    /// ascending comparison realizes the requested order.
    #[inline]
    pub fn adjusted(&self, c: usize, r: usize) -> u64 {
        let v = self.columns[c][r];
        if self.descending[c] {
            v ^ (u64::MAX >> (64 - self.widths[c]))
        } else {
            v
        }
    }

    /// The §3 ORDER BY comparator between rows `a` and `b`.
    pub fn cmp_rows(&self, a: usize, b: usize) -> core::cmp::Ordering {
        for c in 0..self.num_cols() {
            match self.adjusted(c, a).cmp(&self.adjusted(c, b)) {
                core::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }
}

/// What the naive reference computes for a [`SortProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Row indices in sorted order (stable: ties keep input order).
    pub order: Vec<u32>,
    /// Tie-group boundaries over the sorted order, in `GroupBounds`
    /// offset format: `[0, …, n]` (and `[0, 0]` for n = 0).
    pub group_offsets: Vec<u32>,
}

impl Reference {
    /// Number of tie groups.
    pub fn num_groups(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Iterate groups as ranges over the sorted order.
    pub fn groups(&self) -> impl Iterator<Item = core::ops::Range<usize>> + '_ {
        self.group_offsets
            .windows(2)
            .map(|w| w[0] as usize..w[1] as usize)
    }
}

/// Sort the problem naively and derive the tie groups.
pub fn reference_sort(p: &SortProblem) -> Reference {
    let n = p.num_rows();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| p.cmp_rows(a as usize, b as usize));

    let mut group_offsets = vec![0u32];
    for i in 1..n {
        if p.cmp_rows(order[i - 1] as usize, order[i] as usize) != core::cmp::Ordering::Equal {
            group_offsets.push(i as u32);
        }
    }
    group_offsets.push(n as u32);
    Reference {
        order,
        group_offsets,
    }
}

/// SQL `RANK()` computed the slow way: within each partition, a row's
/// rank is 1 + the count of rows in that partition with a strictly
/// smaller window key. Independent of the engine's running-counter
/// formulation.
pub fn reference_rank(partition_offsets: &[u32], window_keys: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; window_keys.len()];
    for w in partition_offsets.windows(2) {
        let (start, end) = (w[0] as usize, w[1] as usize);
        for p in start..end {
            let smaller = (start..end)
                .filter(|&q| window_keys[q] < window_keys[p])
                .count();
            out[p] = smaller as u64 + 1;
        }
    }
    out
}

/// Per-group aggregates over a value column, in sorted order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAggregates {
    /// Row count per group.
    pub counts: Vec<u64>,
    /// Sum per group (wrapping, to stay total on adversarial inputs).
    pub sums: Vec<u64>,
    /// Min per group (`u64::MAX` for an empty group).
    pub mins: Vec<u64>,
    /// Max per group (0 for an empty group).
    pub maxs: Vec<u64>,
}

/// Aggregate `values[order[p]]` over each group.
pub fn reference_aggregates(reference: &Reference, values: &[u64]) -> GroupAggregates {
    let mut agg = GroupAggregates {
        counts: Vec::with_capacity(reference.num_groups()),
        sums: Vec::with_capacity(reference.num_groups()),
        mins: Vec::with_capacity(reference.num_groups()),
        maxs: Vec::with_capacity(reference.num_groups()),
    };
    for g in reference.groups() {
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for p in g {
            let v = values[reference.order[p] as usize];
            count += 1;
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        agg.counts.push(count);
        agg.sums.push(sum);
        agg.mins.push(min);
        agg.maxs.push(max);
    }
    agg
}

/// Assert an engine result matches the reference for `p`.
///
/// Checks, in order:
/// 1. `oids` is a permutation of `0..n`;
/// 2. the tuple sequence along `oids` equals the reference's (engines may
///    permute rows *within* a tie group, so tuples are compared, not oids);
/// 3. if `group_offsets` is given, it equals the reference's exactly, and
///    each group holds exactly the same set of rows as the reference's.
///
/// Panics with a labelled diagnostic on the first divergence.
pub fn assert_matches_reference(
    label: &str,
    p: &SortProblem,
    reference: &Reference,
    oids: &[u32],
    group_offsets: Option<&[u32]>,
) {
    let n = p.num_rows();
    assert_eq!(oids.len(), n, "[{label}] oid count");
    let mut seen = vec![false; n];
    for &o in oids {
        assert!(
            (o as usize) < n && !seen[o as usize],
            "[{label}] oids are not a permutation (oid {o})"
        );
        seen[o as usize] = true;
    }
    for (pos, (&got, &want)) in oids.iter().zip(&reference.order).enumerate() {
        assert_eq!(
            p.cmp_rows(got as usize, want as usize),
            core::cmp::Ordering::Equal,
            "[{label}] tuple mismatch at output position {pos}: engine row {got}, reference row {want}"
        );
    }
    if let Some(offsets) = group_offsets {
        assert_eq!(
            offsets,
            &reference.group_offsets[..],
            "[{label}] group bounds diverge from reference"
        );
        for g in reference.groups() {
            let mut got: Vec<u32> = oids[g.clone()].to_vec();
            let mut want: Vec<u32> = reference.order[g.clone()].to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "[{label}] group {g:?} holds different rows than reference"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(cols: Vec<(u32, bool, Vec<u64>)>) -> SortProblem {
        SortProblem {
            widths: cols.iter().map(|c| c.0).collect(),
            descending: cols.iter().map(|c| c.1).collect(),
            columns: cols.into_iter().map(|c| c.2).collect(),
        }
    }

    #[test]
    fn sorts_lexicographically_with_directions() {
        // ORDER BY a ASC, b DESC.
        let p = problem(vec![(3, false, vec![2, 2, 7]), (3, true, vec![5, 1, 4])]);
        let r = reference_sort(&p);
        assert_eq!(r.order, vec![0, 1, 2]);
        assert_eq!(r.group_offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stable_on_ties_and_groups_cover_ties() {
        let p = problem(vec![(4, false, vec![3, 1, 3, 1, 3])]);
        let r = reference_sort(&p);
        assert_eq!(r.order, vec![1, 3, 0, 2, 4]);
        assert_eq!(r.group_offsets, vec![0, 2, 5]);
        assert_eq!(r.num_groups(), 2);
    }

    #[test]
    fn empty_and_singleton() {
        let p0 = problem(vec![(8, false, vec![])]);
        let r0 = reference_sort(&p0);
        assert_eq!(r0.order, Vec::<u32>::new());
        assert_eq!(r0.group_offsets, vec![0, 0]);

        let p1 = problem(vec![(8, true, vec![9])]);
        let r1 = reference_sort(&p1);
        assert_eq!(r1.order, vec![0]);
        assert_eq!(r1.group_offsets, vec![0, 1]);
    }

    #[test]
    fn rank_matches_counting_definition() {
        let ranks = reference_rank(&[0, 6], &[5, 5, 7, 9, 9, 9]);
        assert_eq!(ranks, vec![1, 1, 3, 4, 4, 4]);
        let ranks = reference_rank(&[0, 3, 6], &[1, 2, 2, 1, 1, 5]);
        assert_eq!(ranks, vec![1, 2, 2, 1, 1, 3]);
        assert!(reference_rank(&[0, 0], &[]).is_empty());
    }

    #[test]
    fn aggregates_per_group() {
        let p = problem(vec![(4, false, vec![3, 1, 3])]);
        let r = reference_sort(&p);
        let agg = reference_aggregates(&r, &[10, 20, 30]);
        // groups: {row1}, {row0, row2}
        assert_eq!(agg.counts, vec![1, 2]);
        assert_eq!(agg.sums, vec![20, 40]);
        assert_eq!(agg.mins, vec![20, 10]);
        assert_eq!(agg.maxs, vec![20, 30]);
    }

    #[test]
    fn matcher_accepts_within_group_permutations() {
        let p = problem(vec![(4, false, vec![3, 1, 3])]);
        let r = reference_sort(&p);
        // Reference order is [1, 0, 2]; swapping the tied rows 0/2 is OK.
        assert_matches_reference("swap-ok", &p, &r, &[1, 2, 0], Some(&r.group_offsets));
    }

    #[test]
    #[should_panic(expected = "tuple mismatch")]
    fn matcher_rejects_wrong_order() {
        let p = problem(vec![(4, false, vec![3, 1, 2])]);
        let r = reference_sort(&p);
        assert_matches_reference("bad", &p, &r, &[0, 1, 2], None);
    }
}
