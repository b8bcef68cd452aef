//! Group aggregation over sorted, grouped data (Figure 2's steps 4–5).

use mcs_columnar::CodeVec;
use mcs_core::GroupBounds;

use crate::query::{Agg, AggKind};

/// Compute one aggregate per group, folding each straight from the base
/// column it reads — no per-aggregate copy, so `SUM(x)` and `AVG(x)`
/// both read `x` where it lies.
///
/// Group `g` holds the base rows `oids[groups[g]]`; `cols[i]` is the
/// column aggregate `i` reads (only `COUNT(*)` reads none: `None` counts
/// rows). `COUNT(DISTINCT)` sorts each group's codes in one reused
/// buffer.
pub fn aggregate_groups(
    aggs: &[Agg],
    cols: &[Option<&CodeVec>],
    groups: &GroupBounds,
    oids: &[u32],
) -> Vec<(String, Vec<u64>)> {
    let mut distinct: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(aggs.len());
    for (agg, col) in aggs.iter().zip(cols) {
        let vals = match (&agg.kind, col) {
            (AggKind::Count, _) | (_, None) => groups.iter().map(|r| r.len() as u64).collect(),
            (kind, Some(col)) => groups
                .iter()
                .map(|r| {
                    let len = r.len() as u64;
                    let codes = oids[r].iter().map(|&o| col.get(o as usize));
                    match kind {
                        AggKind::Sum(_) => codes.sum(),
                        AggKind::Avg(_) => codes.sum::<u64>() / len.max(1),
                        AggKind::Min(_) => codes.min().unwrap_or(0),
                        AggKind::Max(_) => codes.max().unwrap_or(0),
                        AggKind::CountDistinct(_) | AggKind::Count => {
                            distinct.clear();
                            distinct.extend(codes);
                            distinct.sort_unstable();
                            distinct.dedup();
                            distinct.len() as u64
                        }
                    }
                })
                .collect(),
        };
        out.push((agg.label.clone(), vals));
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn groups() -> GroupBounds {
        GroupBounds::from_offsets(vec![0, 2, 5])
    }

    /// Base column `x` = [5, 20, 2, 10, 5]; the sort put its rows in the
    /// order [3, 1, 0, 4, 2], so the groups hold x = {10, 20}, {5, 5, 2}.
    fn x() -> CodeVec {
        CodeVec::from_u64s(5, [5u64, 20, 2, 10, 5])
    }

    const OIDS: [u32; 5] = [3, 1, 0, 4, 2];

    #[test]
    fn all_aggregates() {
        let aggs = vec![
            Agg::new(AggKind::Count, "cnt"),
            Agg::new(AggKind::Sum("x".into()), "sum"),
            Agg::new(AggKind::Avg("x".into()), "avg"),
            Agg::new(AggKind::Min("x".into()), "min"),
            Agg::new(AggKind::Max("x".into()), "max"),
            Agg::new(AggKind::CountDistinct("x".into()), "dcnt"),
        ];
        let x = x();
        let cols = [None, Some(&x), Some(&x), Some(&x), Some(&x), Some(&x)];
        let out = aggregate_groups(&aggs, &cols, &groups(), &OIDS);
        let get = |l: &str| &out.iter().find(|(k, _)| k == l).unwrap().1;
        assert_eq!(get("cnt"), &vec![2, 3]);
        assert_eq!(get("sum"), &vec![30, 12]);
        assert_eq!(get("avg"), &vec![15, 4]);
        assert_eq!(get("min"), &vec![10, 2]);
        assert_eq!(get("max"), &vec![20, 5]);
        assert_eq!(get("dcnt"), &vec![2, 2]);
    }

    #[test]
    fn empty_groups() {
        let g = GroupBounds::from_offsets(vec![0, 0]);
        let aggs = vec![Agg::new(AggKind::Count, "c")];
        let out = aggregate_groups(&aggs, &[None], &g, &[]);
        assert_eq!(out[0].1, vec![0]);
    }
}
