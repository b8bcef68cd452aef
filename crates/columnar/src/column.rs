//! Encoded columns and their statistics.

use std::sync::OnceLock;

use crate::byteslice::ByteSliceColumn;
use crate::codes::CodeVec;

/// Buckets of [`ColumnStats::histogram`].
const BUCKETS: usize = 16;

/// Per-column statistics used by the cost model's group-cardinality
/// estimators (§4: "basic statistics about the data such as … the value
/// distribution of a column (e.g., a histogram)").
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of distinct codes.
    pub ndv: usize,
    /// Minimum code.
    pub min: u64,
    /// Maximum code.
    pub max: u64,
    /// Equi-width histogram over `[0, 2^width)` (16 buckets by default):
    /// counts of rows per bucket.
    pub histogram: Vec<u64>,
}

impl ColumnStats {
    /// Compute statistics with no sort and no division in the common
    /// case: one pass for min, max and the histogram, a second for the
    /// exact NDV.
    ///
    /// The NDV is counted in a dense bit set over `[min, max]` whenever
    /// that range holds at most `64 · rows` values, so the set is never
    /// larger than a copy of the codes; a sparser column sorts and
    /// dedups a copy instead. Either way the count is exact.
    pub fn compute(codes: &CodeVec, width: u32) -> ColumnStats {
        match codes {
            CodeVec::U8(x) => stats_of(x, width),
            CodeVec::U16(x) => stats_of(x, width),
            CodeVec::U32(x) => stats_of(x, width),
            CodeVec::U64(x) => stats_of(x, width),
        }
    }
}

fn stats_of<T: Copy + Into<u64>>(codes: &[T], width: u32) -> ColumnStats {
    // Bucket `v · 16 / 2^width`: the domain is a power of two, so the
    // division is exactly the shift `(v << 4) >> width`, split so that
    // no bit of a `width`-bit code leaves the word.
    let width = width.min(64);
    let (up, down) = (4u32.saturating_sub(width), width.saturating_sub(4));
    let mut histogram = [0u64; BUCKETS];
    let (mut min, mut max) = (u64::MAX, 0u64);
    for &v in codes {
        let v = v.into();
        min = min.min(v);
        max = max.max(v);
        histogram[((v << up) >> down).min(BUCKETS as u64 - 1) as usize] += 1;
    }
    let rows = codes.len();
    if rows == 0 {
        min = 0;
    }
    let span = u128::from(max - min) + 1;
    let ndv = if span <= 64 * rows as u128 {
        let mut seen = vec![0u64; (span as usize).div_ceil(64)];
        for &v in codes {
            let d = v.into() - min;
            seen[(d >> 6) as usize] |= 1 << (d & 63);
        }
        seen.iter().map(|w| w.count_ones() as usize).sum()
    } else {
        let mut all: Vec<u64> = codes.iter().map(|&v| v.into()).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    };
    ColumnStats {
        rows,
        ndv,
        min,
        max,
        histogram: histogram.to_vec(),
    }
}

/// An encoded column: fixed-width codes, plus the statistics and the
/// ByteSlice layout derived from them, each built on first read.
///
/// The ByteSlice representation serves scans; the plain [`CodeVec`] serves
/// lookups and sorting (the paper's prototype keeps both, its Figure 11
/// storage manager). A column nothing scans never builds the ByteSlice
/// layout, and one nothing plans over never computes its statistics — a
/// stage-1 result handed to stage 2 pays only for what stage 2 reads.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    width: u32,
    codes: CodeVec,
    byteslice: OnceLock<ByteSliceColumn>,
    stats: OnceLock<ColumnStats>,
}

impl Column {
    /// Build a column from codes. Derived layouts and statistics are
    /// computed when first read.
    pub fn new(name: impl Into<String>, width: u32, codes: CodeVec) -> Column {
        assert!(
            (1..=64).contains(&width),
            "code width must be in 1..=64, got {width}"
        );
        Column {
            name: name.into(),
            width,
            codes,
            byteslice: OnceLock::new(),
            stats: OnceLock::new(),
        }
    }

    /// Build from an iterator of `u64` code values.
    pub fn from_u64s(
        name: impl Into<String>,
        width: u32,
        vals: impl IntoIterator<Item = u64>,
    ) -> Column {
        Column::new(name, width, CodeVec::from_u64s(width, vals))
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The plain code storage.
    pub fn codes(&self) -> &CodeVec {
        &self.codes
    }

    /// The ByteSlice storage (for scans), built on first read.
    pub fn byteslice(&self) -> &ByteSliceColumn {
        self.byteslice
            .get_or_init(|| ByteSliceColumn::from_codes(&self.codes, self.width))
    }

    /// Column statistics, computed on first read.
    pub fn stats(&self) -> &ColumnStats {
        self.stats
            .get_or_init(|| ColumnStats::compute(&self.codes, self.width))
    }

    /// Read code `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.codes.get(i)
    }

    /// Gather codes at `oids` (lookup operator).
    pub fn gather(&self, oids: &[u32]) -> CodeVec {
        self.codes.gather(oids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let c = Column::from_u64s("a", 8, [5u64, 5, 10, 255, 0]);
        let s = c.stats();
        assert_eq!(s.rows, 5);
        assert_eq!(s.ndv, 4);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 255);
        assert_eq!(s.histogram.iter().sum::<u64>(), 5);
    }

    #[test]
    fn histogram_buckets_cover_domain() {
        // width 4 -> domain [0,16); bucket = v (16 buckets).
        let c = Column::from_u64s("a", 4, (0u64..16).chain(0..16));
        assert!(c.stats().histogram.iter().all(|&h| h == 2));
    }

    #[test]
    fn empty_column_stats() {
        let c = Column::from_u64s("a", 12, std::iter::empty());
        assert_eq!(c.stats().rows, 0);
        assert_eq!(c.stats().ndv, 0);
        assert_eq!(c.stats().min, 0);
    }

    #[test]
    fn byteslice_agrees_with_codes() {
        let vals = [4000u64, 1, 70000, 123456];
        let c = Column::from_u64s("x", 17, vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), v);
            assert_eq!(c.byteslice().lookup(i as u32), v);
        }
    }
}
