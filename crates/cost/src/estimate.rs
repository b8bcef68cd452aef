//! Cardinality estimators: expected group counts and sizes after sorting a
//! bit prefix of the concatenated key.
//!
//! The cost model needs, for round `k` of a plan, the number of groups
//! formed by ties on rounds `1..k` (`N_group`), the number of those that
//! actually invoke a sort (`N_sort`: non-singletons), and the codes they
//! contain (Figure 4b's quantities). We estimate them from per-column
//! statistics with a balls-into-bins (Poisson) model:
//!
//! * the first `B` bits of the key project each tuple onto a *cell*;
//! * the number of possible cells `D` is estimated per column (full
//!   columns contribute their NDV, a partially covered column contributes
//!   the distinct count of its top bits, histogram-refined);
//! * among `N` tuples thrown into `D` cells (λ = N/D):
//!   `N_group ≈ D(1 − e^{−λ})`, singletons `≈ D·λ·e^{−λ}`.

use mcs_columnar::ColumnStats;

/// Statistics of one sort-key column, as the cost model consumes them.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyColumnStats {
    /// Code width in bits.
    pub width: u32,
    /// Number of distinct codes.
    pub ndv: f64,
    /// Optional equi-width histogram over the full `2^width` domain.
    pub histogram: Option<Vec<u64>>,
}

impl KeyColumnStats {
    /// Uniform assumption: `ndv` distinct values spread over the domain.
    pub fn uniform(width: u32, ndv: f64) -> KeyColumnStats {
        KeyColumnStats {
            width,
            ndv,
            histogram: None,
        }
    }

    /// From measured [`ColumnStats`].
    pub fn from_stats(width: u32, s: &ColumnStats) -> KeyColumnStats {
        KeyColumnStats {
            width,
            ndv: s.ndv as f64,
            histogram: Some(s.histogram.clone()),
        }
    }

    /// Quantized signature of these statistics, for plan-cache
    /// fingerprints (the planner crate's `PlanFingerprint`).
    ///
    /// The signature packs the code width, the NDV bucketed in
    /// half-octave (√2×) steps, and a 16-bit histogram-occupancy mask
    /// into one `u64`. It is deliberately *coarse*: two columns whose
    /// statistics differ by less than a bucket produce the same
    /// signature (so a cached plan keeps matching under small drift),
    /// while NDV drift past ~√2× or a shift in which histogram regions
    /// hold data changes the signature (so the cache entry silently
    /// stops matching and a fresh plan search runs).
    pub fn signature(&self) -> u64 {
        // 0 → bucket 0; otherwise 1 + floor(2·log2(ndv)) ∈ [1, 129].
        let ndv_bucket: u64 = if self.ndv < 1.0 {
            0
        } else {
            1 + (2.0 * self.ndv.log2()).floor().clamp(0.0, 128.0) as u64
        };
        // Fold however many histogram buckets exist onto a 16-bit
        // occupancy mask; no histogram → empty mask.
        let mut mask: u64 = 0;
        if let Some(h) = &self.histogram {
            if !h.is_empty() {
                for (i, &c) in h.iter().enumerate() {
                    if c > 0 {
                        mask |= 1 << (i * 16 / h.len());
                    }
                }
            }
        }
        (self.width as u64) << 32 | ndv_bucket << 16 | mask
    }

    /// Expected number of distinct values of the **top `p` bits** of this
    /// column (`0 ≤ p ≤ width`).
    ///
    /// With a histogram: non-empty coarse cells are counted directly when
    /// `p` is at or below histogram resolution; below that, each bucket's
    /// values are thrown into its sub-cells with the birthday bound.
    /// Without: the column's `ndv` values are assumed uniform over the
    /// `2^p` cells.
    pub fn distinct_top_bits(&self, p: u32) -> f64 {
        if p == 0 {
            return 1.0;
        }
        if p >= self.width {
            return self.ndv.max(1.0);
        }
        let cells = 2f64.powi(p as i32);
        match &self.histogram {
            Some(h) if !h.is_empty() => {
                let buckets = h.len() as f64;
                let total: u64 = h.iter().sum();
                if total == 0 {
                    return 1.0;
                }
                if cells <= buckets {
                    // Group buckets into `cells` coarse cells; count non-empty.
                    let per = (h.len() as f64 / cells).ceil() as usize;
                    let mut nonempty = 0.0f64;
                    for chunk in h.chunks(per) {
                        if chunk.iter().any(|&c| c > 0) {
                            nonempty += 1.0;
                        }
                    }
                    nonempty.max(1.0)
                } else {
                    // Sub-bucket resolution: distribute each bucket's share
                    // of the NDV over its sub-cells.
                    let sub_cells = cells / buckets;
                    let mut d = 0.0;
                    for &c in h {
                        if c == 0 {
                            continue;
                        }
                        let bucket_ndv = self.ndv * (c as f64 / total as f64);
                        d += birthday_distinct(bucket_ndv, sub_cells);
                    }
                    d.max(1.0)
                }
            }
            _ => birthday_distinct(self.ndv, cells).max(1.0),
        }
    }
}

/// Expected number of distinct cells hit when `v` distinct values are
/// placed uniformly at random into `m` cells: `m(1 − (1 − 1/m)^v)`.
pub fn birthday_distinct(v: f64, m: f64) -> f64 {
    if m <= 1.0 {
        return 1.0;
    }
    if v <= 0.0 {
        return 0.0;
    }
    m * (1.0 - (1.0 - 1.0 / m).powf(v))
}

/// Expected number of *possible* distinct prefixes for the first `bits`
/// bits of the concatenated key over `cols` (independence assumed):
/// product of per-column contributions.
pub fn possible_prefixes(cols: &[KeyColumnStats], bits: u32) -> f64 {
    let mut left = bits;
    prefix_product(cols.iter().map_while(|c| {
        (left > 0).then(|| {
            let take = left.min(c.width);
            left -= take;
            c.distinct_top_bits(take)
        })
    }))
}

/// The product of per-column prefix counts, capped at 10^18 after every
/// factor so a very wide key does not overflow into ∞: how
/// [`possible_prefixes`] combines its columns, and how a search over
/// column orders combines them in the order it visits them.
pub fn prefix_product(factors: impl IntoIterator<Item = f64>) -> f64 {
    factors.into_iter().fold(1.0, |d, f| (d * f).min(1e18))
}

/// Group structure expected after sorting the first `bits` of the key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEstimate {
    /// Expected number of non-empty groups (`N_group`).
    pub groups: f64,
    /// Expected number of groups with ≥ 2 rows (`N_sort`).
    pub sortable: f64,
    /// Expected rows contained in sortable groups (codes the next round
    /// must sort).
    pub codes_in_sortable: f64,
    /// Average size of a sortable group (`N̄_code`), ≥ 2 when defined.
    pub avg_sortable_size: f64,
}

/// Poisson (balls-into-bins) estimate for `rows` tuples over the prefix
/// cells of the first `bits` key bits.
pub fn estimate_groups(cols: &[KeyColumnStats], rows: usize, bits: u32) -> GroupEstimate {
    estimate_over_prefixes(rows, possible_prefixes(cols, bits))
}

/// Poisson (balls-into-bins) estimate for `rows` tuples over `d` possible
/// prefix cells — [`estimate_groups`] once `d` is known. A plan search
/// over column orders multiplies `d` out of per-column factors itself,
/// since [`possible_prefixes`] is a product over columns.
pub fn estimate_over_prefixes(rows: usize, d: f64) -> GroupEstimate {
    let n = rows as f64;
    if rows == 0 {
        return GroupEstimate {
            groups: 0.0,
            sortable: 0.0,
            codes_in_sortable: 0.0,
            avg_sortable_size: 0.0,
        };
    }
    let d = d.max(1.0);
    let lambda = n / d;
    let e = (-lambda).exp();
    let groups = (d * (1.0 - e)).clamp(1.0, n);
    let singletons = (d * lambda * e).clamp(0.0, n);
    let sortable = (groups - singletons).max(0.0);
    let codes_in_sortable = (n - singletons).max(0.0);
    let avg = if sortable > 0.5 {
        (codes_in_sortable / sortable).max(2.0)
    } else {
        0.0
    };
    GroupEstimate {
        groups,
        sortable,
        codes_in_sortable,
        avg_sortable_size: avg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn birthday_limits() {
        assert!((birthday_distinct(1.0, 1024.0) - 1.0).abs() < 1e-9);
        // Many values into few cells -> all cells hit.
        assert!((birthday_distinct(1e6, 16.0) - 16.0).abs() < 1e-6);
        // v << m: ~v distinct.
        let d = birthday_distinct(10.0, 1e9);
        assert!((d - 10.0).abs() < 0.01);
    }

    #[test]
    fn top_bits_uniform() {
        let c = KeyColumnStats::uniform(20, 8192.0);
        assert_eq!(c.distinct_top_bits(0), 1.0);
        assert_eq!(c.distinct_top_bits(20), 8192.0);
        // 4 top bits -> at most 16 cells, all hit with 8192 values.
        assert!((c.distinct_top_bits(4) - 16.0).abs() < 1e-6);
        // Monotone in p.
        let mut prev = 0.0;
        for p in 0..=20 {
            let d = c.distinct_top_bits(p);
            assert!(d >= prev - 1e-9, "p={p}");
            prev = d;
        }
    }

    #[test]
    fn top_bits_histogram_skew() {
        // All mass in one of 16 buckets: top-4-bits has exactly 1 distinct.
        let mut h = vec![0u64; 16];
        h[3] = 1000;
        let c = KeyColumnStats {
            width: 16,
            ndv: 500.0,
            histogram: Some(h),
        };
        assert_eq!(c.distinct_top_bits(4), 1.0);
        assert_eq!(c.distinct_top_bits(1), 1.0);
        // Finer than the histogram: 500 values spread over the bucket's
        // 2^8/16 = ... sub-cells of the 8-bit prefix.
        let d = c.distinct_top_bits(8);
        assert!(d > 1.0 && d <= 16.0 + 1.0, "d={d}");
    }

    #[test]
    fn possible_prefixes_products() {
        let cols = vec![
            KeyColumnStats::uniform(10, 1024.0),
            KeyColumnStats::uniform(17, 8192.0),
        ];
        // Whole first column only.
        assert!((possible_prefixes(&cols, 10) - 1024.0).abs() < 1e-6);
        // First column + the full second: 1024 * 8192.
        assert!((possible_prefixes(&cols, 27) - 1024.0 * 8192.0).abs() < 1.0);
        // Zero bits: one cell.
        assert_eq!(possible_prefixes(&cols, 0), 1.0);
    }

    #[test]
    fn group_estimates_match_figure4b_shape() {
        // Ex3 setting: N = 2^24 rows; both columns have 2^13 NDV.
        // (We validate the *shape*: more prefix bits -> more groups,
        // smaller average group.)
        let cols = vec![
            KeyColumnStats::uniform(17, 8192.0),
            KeyColumnStats::uniform(33, 8192.0),
        ];
        let n = 1usize << 24;
        let e18 = estimate_groups(&cols, n, 18);
        let e19 = estimate_groups(&cols, n, 19);
        let e34 = estimate_groups(&cols, n, 34);
        assert!(e19.groups >= e18.groups);
        assert!(e19.avg_sortable_size <= e18.avg_sortable_size);
        // After enough bits, lambda is small and most groups singleton.
        assert!(e34.sortable < e34.groups);
        // First-round estimate with all 17 bits: ~8192 groups (ndv-capped).
        let e17 = estimate_groups(&cols, n, 17);
        assert!((e17.groups - 8192.0).abs() < 1.0);
        assert!(e17.avg_sortable_size > 2000.0);
    }

    #[test]
    fn signature_is_stable_under_small_drift_and_changes_past_threshold() {
        let base = KeyColumnStats::uniform(17, 900.0);
        // Small drift within a half-octave bucket keeps the signature.
        assert_eq!(
            base.signature(),
            KeyColumnStats::uniform(17, 950.0).signature()
        );
        assert_eq!(
            base.signature(),
            KeyColumnStats::uniform(17, 1000.0).signature()
        );
        // Large drift changes it.
        assert_ne!(
            base.signature(),
            KeyColumnStats::uniform(17, 5000.0).signature()
        );
        assert_ne!(
            base.signature(),
            KeyColumnStats::uniform(17, 100.0).signature()
        );
        // Width is part of the signature.
        assert_ne!(
            base.signature(),
            KeyColumnStats::uniform(18, 900.0).signature()
        );
        // Degenerate NDVs don't collide with real ones.
        assert_ne!(
            KeyColumnStats::uniform(8, 0.0).signature(),
            KeyColumnStats::uniform(8, 1.0).signature()
        );
    }

    #[test]
    fn signature_tracks_histogram_occupancy() {
        let mut h = vec![0u64; 16];
        h[3] = 1000;
        let lo = KeyColumnStats {
            width: 16,
            ndv: 500.0,
            histogram: Some(h.clone()),
        };
        // Same shape, same signature.
        let mut h2 = vec![0u64; 16];
        h2[3] = 900; // counts differ, occupancy identical
        let lo2 = KeyColumnStats {
            width: 16,
            ndv: 500.0,
            histogram: Some(h2),
        };
        assert_eq!(lo.signature(), lo2.signature());
        // Mass moving into a different region flips the mask.
        let mut h3 = vec![0u64; 16];
        h3[12] = 1000;
        let hi = KeyColumnStats {
            width: 16,
            ndv: 500.0,
            histogram: Some(h3),
        };
        assert_ne!(lo.signature(), hi.signature());
        // Coarser/finer histograms fold onto the same 16-bit mask.
        let mut h64 = vec![0u64; 64];
        // Buckets 12..16 of 64 fold onto mask bit 3.
        h64[12..16].fill(250);
        let folded = KeyColumnStats {
            width: 16,
            ndv: 500.0,
            histogram: Some(h64),
        };
        assert_eq!(lo.signature(), folded.signature());
    }

    #[test]
    fn zero_rows() {
        let cols = vec![KeyColumnStats::uniform(8, 10.0)];
        let e = estimate_groups(&cols, 0, 8);
        assert_eq!(e.groups, 0.0);
    }
}
