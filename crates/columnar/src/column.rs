//! Encoded columns and their statistics.

use std::sync::OnceLock;

use crate::byteslice::ByteSliceColumn;
use crate::codes::CodeVec;
use crate::encoding::width_for_max;

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
            CodeVec::U8(x) => stats_of(x, width).0,
            CodeVec::U16(x) => stats_of(x, width).0,
            CodeVec::U32(x) => stats_of(x, width).0,
            CodeVec::U64(x) => stats_of(x, width).0,
        }
    }
}

/// The histogram bucket of `v` in a `width`-bit domain is
/// `(v << up) >> down`: the domain is a power of two, so the division
/// `v · 16 / 2^width` is exactly that shift, split so that no bit of a
/// `width`-bit code leaves the word.
fn bucket_shifts(width: u32) -> (u32, u32) {
    let width = width.min(64);
    (4u32.saturating_sub(width), width.saturating_sub(4))
}

/// The distinct codes a statistics pass found, in the form its NDV count
/// left them.
enum Distinct {
    /// Bit `d` is set when code `min + d` occurs.
    Dense { min: u64, seen: Vec<u64> },
    /// The sorted, de-duplicated codes.
    Sparse(Vec<u64>),
}

fn stats_of<T: Copy + Into<u64>>(codes: &[T], width: u32) -> (ColumnStats, Distinct) {
    let (up, down) = bucket_shifts(width);
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
    let (ndv, distinct) = if span <= 64 * rows as u128 {
        let mut seen = vec![0u64; (span as usize).div_ceil(64)];
        for &v in codes {
            let d = v.into() - min;
            seen[(d >> 6) as usize] |= 1 << (d & 63);
        }
        let ndv = seen.iter().map(|w| w.count_ones() as usize).sum();
        (ndv, Distinct::Dense { min, seen })
    } else {
        let mut all: Vec<u64> = codes.iter().map(|&v| v.into()).collect();
        all.sort_unstable();
        all.dedup();
        (all.len(), Distinct::Sparse(all))
    };
    let stats = ColumnStats {
        rows,
        ndv,
        min,
        max,
        histogram: histogram.to_vec(),
    };
    (stats, distinct)
}

/// The most distinct codes a rank layout is built for: its dictionary
/// (at most 512 KiB of `u64`s) stays L2-resident for the decode.
const MAX_RANK_NDV: usize = 1 << 16;

/// A column's rank codes: each row's dense rank among the column's
/// sorted distinct codes, at the width the NDV needs rather than the
/// declared one. The map is order-preserving, so sorting the ranks
/// orders (and groups) the rows exactly as sorting the codes does, in
/// fewer bits; the dictionary maps a rank back to its code.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCodes {
    width: u32,
    codes: CodeVec,
    dictionary: Vec<u64>,
    stats: ColumnStats,
}

impl RankCodes {
    /// Rank width in bits: `width_for_max(ndv − 1)`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The rank of every row, in row order.
    pub fn codes(&self) -> &CodeVec {
        &self.codes
    }

    /// The sorted distinct codes: rank `r` is code `dictionary()[r]`.
    pub fn dictionary(&self) -> &[u64] {
        &self.dictionary
    }

    /// Statistics of the rank codes themselves (what the planner prices).
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Map ranks back to their codes, in place.
    pub fn decode_in_place(&self, ranks: &mut [u64]) {
        for v in ranks {
            *v = self.dictionary[*v as usize];
        }
    }
}

/// Whether a column of declared `width` with `stats` gets a rank layout:
/// its ranks are narrower than its codes, and its dictionary is small.
fn rank_width(width: u32, stats: &ColumnStats) -> Option<u32> {
    let ndv = stats.ndv;
    let w = width_for_max(ndv.saturating_sub(1) as u64);
    (ndv > 0 && ndv <= MAX_RANK_NDV && w < width).then_some(w)
}

/// Where each code's rank lies in the sorted dictionary: the codes'
/// offsets from the minimum, cut into about `ndv` buckets by their high
/// bits, each bucket the dictionary range it covers. A row's rank is a
/// search within its bucket: typically one or two entries, and never
/// more than a binary search over the whole dictionary, however the
/// codes cluster.
struct RankIndex<'d> {
    dictionary: &'d [u64],
    min: u64,
    shift: u32,
    /// `starts[b]`: the first rank whose code lies in bucket `b` or later.
    starts: Vec<u32>,
}

impl<'d> RankIndex<'d> {
    /// Index a sorted, non-empty, de-duplicated dictionary.
    fn new(dictionary: &'d [u64]) -> RankIndex<'d> {
        let (min, max) = (dictionary[0], dictionary[dictionary.len() - 1]);
        let bucket_bits = width_for_max(dictionary.len() as u64);
        let shift = width_for_max(max - min).saturating_sub(bucket_bits);
        let buckets = ((max - min) >> shift) as usize + 1;
        let mut starts = Vec::with_capacity(buckets + 1);
        for (rank, &code) in dictionary.iter().enumerate() {
            let bucket = ((code - min) >> shift) as usize;
            starts.resize(bucket + 1, rank as u32);
        }
        starts.push(dictionary.len() as u32);
        RankIndex {
            dictionary,
            min,
            shift,
            starts,
        }
    }

    /// The rank of `code`, which must be in the dictionary.
    fn rank(&self, code: u64) -> u64 {
        let bucket = ((code - self.min) >> self.shift) as usize;
        let (lo, hi) = (
            self.starts[bucket] as usize,
            self.starts[bucket + 1] as usize,
        );
        (lo + self.dictionary[lo..hi].partition_point(|&x| x < code)) as u64
    }
}

fn stats_and_ranks<T: Copy + Into<u64>>(
    codes: &[T],
    width: u32,
) -> (ColumnStats, Option<RankCodes>) {
    let (stats, distinct) = stats_of(codes, width);
    let ranks = rank_codes_of(codes, width, &stats, distinct);
    (stats, ranks)
}

/// Build the rank layout from what the statistics pass left: on the
/// dense path the bit set plus per-word prefix popcounts is the rank
/// table and its set bits the dictionary; on the sparse path the sorted
/// copy is the dictionary, searched per row.
fn rank_codes_of<T: Copy + Into<u64>>(
    codes: &[T],
    width: u32,
    stats: &ColumnStats,
    distinct: Distinct,
) -> Option<RankCodes> {
    let width = rank_width(width, stats)?;
    let (up, down) = bucket_shifts(width);
    let mut histogram = [0u64; BUCKETS];
    let mut count = |r: u64| {
        histogram[((r << up) >> down).min(BUCKETS as u64 - 1) as usize] += 1;
        r
    };
    let (dictionary, ranks) = match distinct {
        Distinct::Dense { min, seen } => {
            let mut before = 0u32;
            let table: Vec<(u64, u32)> = seen
                .iter()
                .map(|&w| {
                    let entry = (w, before);
                    before += w.count_ones();
                    entry
                })
                .collect();
            let ranks = CodeVec::from_u64s(
                width,
                codes.iter().map(|&v| {
                    let d = v.into() - min;
                    let (word, before) = table[(d >> 6) as usize];
                    let below = word & ((1u64 << (d & 63)) - 1);
                    count(u64::from(before + below.count_ones()))
                }),
            );
            let mut dictionary = Vec::with_capacity(stats.ndv);
            for (i, &w) in seen.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    dictionary.push(min + ((i as u64) << 6) + u64::from(w.trailing_zeros()));
                    w &= w - 1;
                }
            }
            (dictionary, ranks)
        }
        Distinct::Sparse(dictionary) => {
            let index = RankIndex::new(&dictionary);
            let ranks =
                CodeVec::from_u64s(width, codes.iter().map(|&v| count(index.rank(v.into()))));
            (dictionary, ranks)
        }
    };
    let stats = ColumnStats {
        rows: stats.rows,
        ndv: stats.ndv,
        min: 0,
        max: stats.ndv as u64 - 1,
        histogram: histogram.to_vec(),
    };
    Some(RankCodes {
        width,
        codes: ranks,
        dictionary,
        stats,
    })
}

/// An encoded column: fixed-width codes, plus the statistics, the
/// ByteSlice layout and the rank codes derived from them, each built on
/// first read.
///
/// The ByteSlice representation serves scans; the plain [`CodeVec`] serves
/// lookups and sorting (the paper's prototype keeps both, its Figure 11
/// storage manager); the rank codes, when the column has them, serve
/// sorting in fewer bits. A column nothing scans never builds the
/// ByteSlice layout, one nothing plans over never computes its
/// statistics, and one nothing sorts never builds its rank codes — a
/// stage-1 result handed to stage 2 pays only for what stage 2 reads.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    width: u32,
    codes: CodeVec,
    byteslice: OnceLock<ByteSliceColumn>,
    stats: OnceLock<ColumnStats>,
    ranks: OnceLock<Option<RankCodes>>,
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
            ranks: OnceLock::new(),
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

    /// The rank layout, built on first read by the statistics pass
    /// itself (which it also publishes as [`stats`](Self::stats)), or
    /// `None` when the column does not get one: it has no rows, more than
    /// 2^16 distinct codes, or ranks no narrower than its codes.
    pub fn rank_codes(&self) -> Option<&RankCodes> {
        self.ranks
            .get_or_init(|| {
                if let Some(stats) = self.stats.get() {
                    rank_width(self.width, stats)?;
                }
                let (stats, ranks) = match &self.codes {
                    CodeVec::U8(x) => stats_and_ranks(x, self.width),
                    CodeVec::U16(x) => stats_and_ranks(x, self.width),
                    CodeVec::U32(x) => stats_and_ranks(x, self.width),
                    CodeVec::U64(x) => stats_and_ranks(x, self.width),
                };
                // A racing or earlier `stats()` read may have set them: the
                // values are equal either way.
                let _ = self.stats.set(stats);
                ranks
            })
            .as_ref()
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
