//! Plan fingerprints: the cache key of the engine's session-level plan
//! cache.
//!
//! Running ROGA on every query is Table 2's per-query search cost; under
//! repeated query shapes over slowly-changing tables that work is pure
//! waste. A [`PlanFingerprint`] summarizes everything the plan search
//! actually *consumes* from a [`SortInstance`] — the sort-key widths and
//! ASC/DESC shape, whether the final grouping is needed, whether the
//! column order is free to permute, the row count, and the per-column
//! statistics — so two instances with equal fingerprints are, to the
//! planner, the same problem and can share one cached plan.
//!
//! The continuous inputs are **quantized**: the row count to its power of
//! two, the statistics through
//! [`KeyColumnStats::signature`](mcs_cost::KeyColumnStats::signature) (√2×-bucketed
//! NDV plus a histogram-occupancy mask). Quantization is also the cache's
//! invalidation rule: while a table's statistics drift within a bucket the
//! fingerprint — and the cached plan — keep matching, and once drift
//! crosses a bucket boundary (≈2× rows, ≈√2× NDV, data moving between
//! histogram regions) the fingerprint changes, the lookup misses, and a
//! fresh search replaces the stale entry.

use mcs_cost::SortInstance;

/// The quantized identity of a plan-search problem.
///
/// Equal fingerprints ⇒ the plan search would be given equivalent inputs,
/// so its result can be reused. See the module docs for what is exact and
/// what is bucketed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanFingerprint {
    /// Per sort column, in query order: `(width, descending, stats
    /// signature)`. Widths and directions are exact — a plan is only
    /// valid for its exact key shape; the statistics are quantized.
    columns: Vec<(u32, bool, u64)>,
    /// `floor(log2(rows))` (`0` for an empty instance): a cached plan
    /// survives row-count drift up to 2×.
    rows_bucket: u32,
    /// Whether the final grouping must be produced (changes the cost of
    /// the last round's boundary scan, so it is part of the problem).
    want_final_groups: bool,
    /// Whether the search was free to permute the column order (GROUP BY)
    /// or had to preserve it (ORDER BY). A permuted plan must never be
    /// served to an order-constrained query.
    order_free: bool,
}

impl PlanFingerprint {
    /// Fingerprint `inst` as the plan search would see it.
    pub fn of(inst: &SortInstance, order_free: bool) -> PlanFingerprint {
        let columns = inst
            .specs
            .iter()
            .zip(&inst.stats)
            .map(|(spec, stats)| (spec.width, spec.descending, stats.signature()))
            .collect();
        PlanFingerprint {
            columns,
            rows_bucket: (inst.rows.max(1) as u64).ilog2(),
            want_final_groups: inst.want_final_groups,
            order_free,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mcs_core::SortSpec;
    use mcs_cost::KeyColumnStats;

    fn inst(rows: usize, widths_ndv: &[(u32, f64)]) -> SortInstance {
        SortInstance::uniform(rows, widths_ndv)
    }

    #[test]
    fn equal_instances_share_a_fingerprint() {
        let a = inst(1 << 20, &[(10, 1024.0), (17, 8192.0)]);
        let b = inst(1 << 20, &[(10, 1024.0), (17, 8192.0)]);
        assert_eq!(PlanFingerprint::of(&a, true), PlanFingerprint::of(&b, true));
    }

    #[test]
    fn small_drift_matches_large_drift_misses() {
        let base = PlanFingerprint::of(&inst(1_100_000, &[(17, 900.0)]), true);
        // Rows within the same power of two, NDV within its half-octave
        // bucket: same key.
        assert_eq!(
            base,
            PlanFingerprint::of(&inst(1_900_000, &[(17, 1000.0)]), true)
        );
        // Rows doubling crosses the bucket.
        assert_ne!(
            base,
            PlanFingerprint::of(&inst(2_200_000, &[(17, 900.0)]), true)
        );
        // NDV drifting far past √2× crosses its bucket.
        assert_ne!(
            base,
            PlanFingerprint::of(&inst(1_100_000, &[(17, 4000.0)]), true)
        );
    }

    #[test]
    fn shape_flags_and_direction_are_exact() {
        let i = inst(4096, &[(10, 100.0), (17, 500.0)]);
        let base = PlanFingerprint::of(&i, true);
        assert_ne!(base, PlanFingerprint::of(&i, false), "order_free differs");
        let mut grouped_off = i.clone();
        grouped_off.want_final_groups = false;
        assert_ne!(base, PlanFingerprint::of(&grouped_off, true));
        let mut desc = i.clone();
        desc.specs[1] = SortSpec {
            width: 17,
            descending: true,
        };
        assert_ne!(base, PlanFingerprint::of(&desc, true), "ASC/DESC differs");
        let narrower = inst(4096, &[(10, 100.0), (16, 500.0)]);
        assert_ne!(base, PlanFingerprint::of(&narrower, true), "width differs");
    }

    #[test]
    fn usable_as_a_hash_map_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        let i = inst(4096, &[(10, 100.0)]);
        m.insert(PlanFingerprint::of(&i, true), 7u32);
        assert_eq!(m.get(&PlanFingerprint::of(&i, true)), Some(&7));
        // A KeyColumnStats change that survives quantization still hits.
        let mut j = i.clone();
        j.stats[0] = KeyColumnStats::uniform(10, 105.0);
        assert_eq!(m.get(&PlanFingerprint::of(&j, true)), Some(&7));
    }

    #[test]
    fn empty_and_tiny_instances_do_not_panic() {
        let empty = SortInstance {
            rows: 0,
            specs: vec![],
            stats: vec![],
            want_final_groups: false,
        };
        assert!(PlanFingerprint::of(&empty, false).columns.is_empty());
        let one = inst(1, &[(1, 1.0)]);
        let _ = PlanFingerprint::of(&one, false);
    }
}
