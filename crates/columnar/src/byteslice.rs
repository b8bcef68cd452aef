//! ByteSlice storage layout and early-stopping scans (Feng et al.,
//! SIGMOD'15 — the paper's fast-scan substrate).
//!
//! A `w`-bit code is left-aligned into `⌈w/8⌉` bytes; byte `j` (most
//! significant first) of every code is stored in its own contiguous memory
//! region ("slice"). A predicate scan compares byte 0 of all codes first
//! and only descends to later bytes for codes still undecided (tied on all
//! previous bytes) — most codes are decided after one byte, so the scan
//! touches a fraction of the data.
//!
//! The block kernel works on 8 codes at a time with SWAR (SIMD-within-a-
//! register) byte comparisons on `u64` words, and stops early per block
//! when no lane remains undecided.

use crate::bitvec::BitVec;
use crate::codes::CodeVec;

/// Comparison predicate over encoded (unsigned) codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// `code < x`
    Lt(u64),
    /// `code <= x`
    Le(u64),
    /// `code > x`
    Gt(u64),
    /// `code >= x`
    Ge(u64),
    /// `code == x`
    Eq(u64),
    /// `code != x`
    Ne(u64),
    /// `lo <= code <= hi`
    Between(u64, u64),
}

impl Predicate {
    /// Scalar evaluation (the test oracle).
    pub fn eval(&self, v: u64) -> bool {
        match *self {
            Predicate::Lt(x) => v < x,
            Predicate::Le(x) => v <= x,
            Predicate::Gt(x) => v > x,
            Predicate::Ge(x) => v >= x,
            Predicate::Eq(x) => v == x,
            Predicate::Ne(x) => v != x,
            Predicate::Between(lo, hi) => lo <= v && v <= hi,
        }
    }
}

/// A column in ByteSlice layout.
#[derive(Debug, Clone)]
pub struct ByteSliceColumn {
    width: u32,
    nbytes: usize,
    n: usize,
    /// `slices[j][i]` = byte `j` (MSB-first) of left-aligned code `i`.
    /// Each slice is padded to a multiple of 32 for whole-register loads.
    slices: Vec<Vec<u8>>,
}

/// Scan telemetry: how much work early stopping saved.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanStats {
    /// Number of (block, byte-slice) word visits performed.
    pub words_touched: usize,
    /// Upper bound: blocks × nbytes (a scan without early stopping).
    pub words_total: usize,
}

impl ByteSliceColumn {
    /// Build from codes of a `width`-bit column.
    pub fn from_codes(codes: &CodeVec, width: u32) -> Self {
        assert!((1..=64).contains(&width));
        let n = codes.len();
        let nbytes = width.div_ceil(8) as usize;
        let shift = nbytes as u32 * 8 - width;
        let padded_n = n.div_ceil(32) * 32;
        let mut slices = vec![vec![0u8; padded_n]; nbytes];
        // One pass per byte slice over the bank-typed codes: slice `j`
        // holds bits `[8·(nbytes−1−j), 8·(nbytes−j))` of `code << shift`.
        fn fill<T: Copy + Into<u64>>(codes: &[T], slices: &mut [Vec<u8>], shift: u32) {
            let nbytes = slices.len();
            for (j, slice) in slices.iter_mut().enumerate() {
                let down = 8 * (nbytes - 1 - j);
                for (dst, &v) in slice.iter_mut().zip(codes) {
                    *dst = ((v.into() << shift) >> down) as u8;
                }
            }
        }
        match codes {
            CodeVec::U8(x) => fill(x, &mut slices, shift),
            CodeVec::U16(x) => fill(x, &mut slices, shift),
            CodeVec::U32(x) => fill(x, &mut slices, shift),
            CodeVec::U64(x) => fill(x, &mut slices, shift),
        }
        ByteSliceColumn {
            width,
            nbytes,
            n,
            slices,
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Reassemble code `i` from its byte slices (byte *stitching*).
    pub fn lookup(&self, oid: u32) -> u64 {
        let i = oid as usize;
        assert!(i < self.n);
        let mut v = 0u64;
        for slice in &self.slices {
            v = (v << 8) | slice[i] as u64;
        }
        let shift = self.nbytes as u32 * 8 - self.width;
        v >> shift
    }

    /// Gather many codes into a [`CodeVec`] (the `ByteSlice-Lookup`
    /// operator).
    pub fn gather(&self, oids: &[u32]) -> CodeVec {
        CodeVec::from_u64s(self.width, oids.iter().map(|&o| self.lookup(o)))
    }

    /// Decode the full column.
    pub fn to_codes(&self) -> CodeVec {
        let oids: Vec<u32> = (0..self.n as u32).collect();
        self.gather(&oids)
    }

    fn aligned_literal(&self, x: u64) -> u64 {
        debug_assert!(
            self.width == 64 || x < (1u64 << self.width),
            "literal {x} exceeds column width {}",
            self.width
        );
        x << (self.nbytes as u32 * 8 - self.width)
    }

    fn literal_byte(&self, aligned: u64, j: usize) -> u8 {
        (aligned >> ((self.nbytes - 1 - j) * 8)) as u8
    }

    /// Evaluate `pred` over the whole column with early stopping.
    ///
    /// Emits one `scan.byteslice` telemetry span per call.
    pub fn scan(&self, pred: &Predicate) -> BitVec {
        let t = std::time::Instant::now();
        let (out, stats) = self.scan_with_stats(pred);
        if mcs_telemetry::is_enabled() {
            mcs_telemetry::record_span(
                "scan.byteslice",
                t.elapsed().as_nanos() as u64,
                vec![
                    ("rows", self.n.into()),
                    ("width", self.width.into()),
                    ("words_touched", stats.words_touched.into()),
                    ("words_total", stats.words_total.into()),
                ],
            );
        }
        out
    }

    /// [`ByteSliceColumn::scan`] plus early-stopping telemetry.
    pub fn scan_with_stats(&self, pred: &Predicate) -> (BitVec, ScanStats) {
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = avx2_available();
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx2 = false;
        self.scan_with_stats_impl(pred, use_avx2)
    }

    /// Backend-selectable scan (SWAR when `use_avx2` is false); public for
    /// differential tests and the scan benchmarks.
    #[doc(hidden)]
    pub fn scan_with_stats_impl(&self, pred: &Predicate, use_avx2: bool) -> (BitVec, ScanStats) {
        let mut out = BitVec::zeros(self.n);
        let mut stats = ScanStats {
            words_touched: 0,
            words_total: self.n.div_ceil(8) * self.nbytes,
        };
        if self.n == 0 {
            return (out, stats);
        }
        // Literals outside the column's code domain decide the predicate
        // without touching any data; clamp so the byte kernels only ever
        // see in-domain values.
        let max = if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let pred = match *pred {
            Predicate::Lt(x) | Predicate::Le(x) if x > max => {
                return (BitVec::ones(self.n), stats);
            }
            Predicate::Gt(x) | Predicate::Ge(x) | Predicate::Eq(x) if x > max => {
                return (out, stats);
            }
            Predicate::Ne(x) if x > max => {
                return (BitVec::ones(self.n), stats);
            }
            Predicate::Between(lo, _) if lo > max => return (out, stats),
            Predicate::Between(lo, hi) => Predicate::Between(lo, hi.min(max)),
            p => p,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_avx2;
        match pred {
            Predicate::Lt(x) => self.scan_ineq(x, false, false, &mut out, &mut stats, use_avx2),
            Predicate::Le(x) => self.scan_ineq(x, false, true, &mut out, &mut stats, use_avx2),
            Predicate::Gt(x) => self.scan_ineq(x, true, false, &mut out, &mut stats, use_avx2),
            Predicate::Ge(x) => self.scan_ineq(x, true, true, &mut out, &mut stats, use_avx2),
            Predicate::Eq(x) => self.scan_eq(x, false, &mut out, &mut stats, use_avx2),
            Predicate::Ne(x) => self.scan_eq(x, true, &mut out, &mut stats, use_avx2),
            Predicate::Between(lo, hi) => {
                if lo > hi {
                    return (out, stats);
                }
                // ge(lo) AND le(hi), tracked together in one pass.
                self.scan_between(lo, hi, &mut out, &mut stats, use_avx2);
            }
        }
        (out, stats)
    }

    fn literal_bytes(&self, aligned: u64) -> Vec<u8> {
        (0..self.nbytes)
            .map(|j| self.literal_byte(aligned, j))
            .collect()
    }

    /// Shared kernel for `<`, `<=`, `>`, `>=`: `greater` flips direction,
    /// `or_equal` includes ties.
    fn scan_ineq(
        &self,
        x: u64,
        greater: bool,
        or_equal: bool,
        out: &mut BitVec,
        stats: &mut ScanStats,
        use_avx2: bool,
    ) {
        let lit = self.aligned_literal(x);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: feature checked; slices padded to multiples of 32.
            unsafe {
                crate::avx2scan::scan_ineq_avx2(
                    &self.slices,
                    &self.literal_bytes(lit),
                    self.n,
                    greater,
                    or_equal,
                    out,
                    stats,
                );
            }
            return;
        }
        let mut i = 0usize;
        while i < self.n {
            let mut undecided = 0xFFu8;
            let mut result = 0u8;
            for j in 0..self.nbytes {
                let w = load8(&self.slices[j], i);
                let y = broadcast(self.literal_byte(lit, j));
                stats.words_touched += 1;
                let lt = lt_bytes(w, y);
                let gt = lt_bytes(y, w);
                let win = if greater { gt } else { lt };
                result |= undecided & win;
                undecided &= !(lt | gt);
                if undecided == 0 {
                    break;
                }
            }
            if or_equal {
                result |= undecided;
            }
            out.set_byte(i, result);
            i += 8;
        }
    }

    fn scan_eq(
        &self,
        x: u64,
        negate: bool,
        out: &mut BitVec,
        stats: &mut ScanStats,
        use_avx2: bool,
    ) {
        let lit = self.aligned_literal(x);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: feature checked; slices padded to multiples of 32.
            unsafe {
                crate::avx2scan::scan_eq_avx2(
                    &self.slices,
                    &self.literal_bytes(lit),
                    self.n,
                    negate,
                    out,
                    stats,
                );
            }
            return;
        }
        let mut i = 0usize;
        while i < self.n {
            let mut undecided = 0xFFu8;
            for j in 0..self.nbytes {
                let w = load8(&self.slices[j], i);
                let y = broadcast(self.literal_byte(lit, j));
                stats.words_touched += 1;
                undecided &= !(lt_bytes(w, y) | lt_bytes(y, w));
                if undecided == 0 {
                    break;
                }
            }
            out.set_byte(i, if negate { !undecided } else { undecided });
            i += 8;
        }
    }

    fn scan_between(
        &self,
        lo: u64,
        hi: u64,
        out: &mut BitVec,
        stats: &mut ScanStats,
        use_avx2: bool,
    ) {
        let llo = self.aligned_literal(lo);
        let lhi = self.aligned_literal(hi);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: feature checked; slices padded to multiples of 32.
            unsafe {
                crate::avx2scan::scan_between_avx2(
                    &self.slices,
                    &self.literal_bytes(llo),
                    &self.literal_bytes(lhi),
                    self.n,
                    out,
                    stats,
                );
            }
            return;
        }
        let mut i = 0usize;
        while i < self.n {
            let mut und_lo = 0xFFu8; // still tied with lo
            let mut und_hi = 0xFFu8; // still tied with hi
            let mut ge = 0u8;
            let mut le = 0u8;
            for j in 0..self.nbytes {
                if und_lo == 0 && und_hi == 0 {
                    break;
                }
                let w = load8(&self.slices[j], i);
                stats.words_touched += 1;
                let ylo = broadcast(self.literal_byte(llo, j));
                let yhi = broadcast(self.literal_byte(lhi, j));
                let gt_lo = lt_bytes(ylo, w);
                let lt_lo = lt_bytes(w, ylo);
                let lt_hi = lt_bytes(w, yhi);
                let gt_hi = lt_bytes(yhi, w);
                ge |= und_lo & gt_lo;
                le |= und_hi & lt_hi;
                und_lo &= !(gt_lo | lt_lo);
                und_hi &= !(lt_hi | gt_hi);
            }
            ge |= und_lo; // exactly equal to lo
            le |= und_hi; // exactly equal to hi
            out.set_byte(i, ge & le);
            i += 8;
        }
    }
}

/// Whether AVX2 is available (memoized); gates the 32-lane scan kernels.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// Load 8 lane bytes (codes `i..i+8` of one slice) as a `u64`, LSB = code `i`.
#[inline(always)]
fn load8(slice: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(slice[i..i + 8].try_into().unwrap())
}

/// Broadcast one byte into all 8 lanes.
#[inline(always)]
const fn broadcast(b: u8) -> u64 {
    (b as u64) * 0x0101_0101_0101_0101
}

/// Per-byte unsigned `x < y`: returns an 8-bit mask, bit `k` set iff byte
/// `k` of `x` is less than byte `k` of `y`.
///
/// Works by widening the bytes into 16-bit lanes and testing the borrow
/// bit of `(x | 0x100) - y` per lane.
#[inline(always)]
fn lt_bytes(x: u64, y: u64) -> u8 {
    const LO: u64 = 0x00FF_00FF_00FF_00FF;
    const BIT8: u64 = 0x0100_0100_0100_0100;
    // Even bytes (0,2,4,6) in 16-bit lanes.
    let te = ((x & LO) | BIT8).wrapping_sub(y & LO);
    // Odd bytes (1,3,5,7).
    let to = (((x >> 8) & LO) | BIT8).wrapping_sub((y >> 8) & LO);
    // Bit 8 of each lane clear ⇔ x-byte < y-byte.
    let lt_e = !te & BIT8; // bits 8, 24, 40, 56
    let lt_o = !to & BIT8;
    compress_lanes(lt_e) | (compress_lanes(lt_o) << 1)
}

/// Move bits 8/24/40/56 to bits 0/2/4/6.
#[inline(always)]
fn compress_lanes(m: u64) -> u8 {
    (((m >> 8) & 1) | ((m >> 22) & 0b100) | ((m >> 36) & 0b1_0000) | ((m >> 50) & 0b100_0000)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(width: u32, vals: &[u64]) -> (ByteSliceColumn, Vec<u64>) {
        let cv = CodeVec::from_u64s(width, vals.iter().copied());
        (ByteSliceColumn::from_codes(&cv, width), vals.to_vec())
    }

    #[test]
    fn lt_bytes_exhaustive_lane0() {
        for x in 0..=255u64 {
            for y in 0..=255u64 {
                let m = lt_bytes(x, y);
                assert_eq!(m & 1 == 1, x < y, "x={x} y={y}");
                assert_eq!(m & !1, 0);
            }
        }
    }

    #[test]
    fn lt_bytes_all_lanes() {
        let x = u64::from_le_bytes([0, 1, 200, 255, 7, 7, 100, 0]);
        let y = u64::from_le_bytes([1, 1, 100, 255, 8, 6, 100, 255]);
        let m = lt_bytes(x, y);
        assert_eq!(m, 0b1001_0001);
    }

    #[test]
    fn roundtrip_lookup() {
        let (col, vals) = mk(17, &[0, 1, 65_535, 131_071, 70_000]);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(col.lookup(i as u32), v, "i={i}");
        }
        assert_eq!(col.to_codes().iter_u64().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn roundtrip_lookup_at_every_width() {
        // Zero, the maximum and pseudo-random codes at every width 1–64,
        // stitched back through `lookup`, over a length that is not a
        // multiple of the 32-row padding.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for width in 1..=64u32 {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let vals: Vec<u64> = (0..77)
                .map(|i| match i {
                    0 => 0,
                    1 => max,
                    _ => {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & max
                    }
                })
                .collect();
            let (col, vals) = mk(width, &vals);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(col.lookup(i as u32), v, "width {width}, i={i}");
            }
        }
    }

    fn oracle_scan(vals: &[u64], pred: &Predicate) -> Vec<u32> {
        vals.iter()
            .enumerate()
            .filter(|(_, &v)| pred.eval(v))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn scans_match_oracle() {
        // Deterministic pseudo-random values across byte boundaries.
        for &width in &[5u32, 8, 12, 16, 17, 23, 24, 31, 33, 48] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let mut state = 0xABCDEFu64;
            let vals: Vec<u64> = (0..500)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & mask
                })
                .collect();
            let (col, vals) = mk(width, &vals);
            let x = vals[17];
            let lo = vals[3].min(vals[99]);
            let hi = vals[3].max(vals[99]);
            for pred in [
                Predicate::Lt(x),
                Predicate::Le(x),
                Predicate::Gt(x),
                Predicate::Ge(x),
                Predicate::Eq(x),
                Predicate::Ne(x),
                Predicate::Between(lo, hi),
                Predicate::Lt(0),
                Predicate::Ge(0),
                Predicate::Le(mask),
                Predicate::Between(hi, lo.saturating_sub(1)), // empty
            ] {
                let got = col.scan(&pred).to_oids();
                let want = oracle_scan(&vals, &pred);
                assert_eq!(got, want, "width={width} pred={pred:?}");
            }
        }
    }

    #[test]
    fn early_stopping_saves_work() {
        // 24-bit column, values spread over the full domain: almost every
        // code decided at byte 0 when comparing against the midpoint.
        let n = 8000usize;
        let vals: Vec<u64> = (0..n as u64).map(|i| (i * 2097) % (1 << 24)).collect();
        let cv = CodeVec::from_u64s(24, vals.iter().copied());
        let col = ByteSliceColumn::from_codes(&cv, 24);
        let (_, stats) = col.scan_with_stats(&Predicate::Lt(1 << 23));
        assert!(
            stats.words_touched * 2 < stats.words_total,
            "early stopping ineffective: {} of {}",
            stats.words_touched,
            stats.words_total
        );
    }

    #[test]
    fn non_multiple_of_8_lengths() {
        let (col, vals) = mk(9, &[1, 2, 3, 4, 5, 500, 7]);
        let got = col.scan(&Predicate::Ge(4)).to_oids();
        assert_eq!(got, oracle_scan(&vals, &Predicate::Ge(4)));
    }

    #[test]
    fn gather_matches_lookup() {
        let (col, _) = mk(20, &[100, 200, 300, 400]);
        let g = col.gather(&[2, 0]);
        assert_eq!(g.iter_u64().collect::<Vec<_>>(), vec![300, 100]);
    }

    #[test]
    fn empty_column() {
        let (col, _) = mk(12, &[]);
        assert!(col.is_empty());
        assert_eq!(col.scan(&Predicate::Ge(0)).count_ones(), 0);
    }
}
