//! Offset-value coding for the out-of-cache merge (phase (c) of Eq. 5).
//!
//! An offset-value code (OVC) summarizes how a key relates to its
//! predecessor in a sorted run: the offset of the first 16-bit word (most
//! significant first) where the key differs from its predecessor, plus
//! the key's word at that offset. Within a merge whose comparands share a
//! common base — which the loser tree guarantees at every match, see
//! [`crate::multiway`] — comparing two codes decides the order of the
//! underlying keys whenever the codes differ, collapsing most full-key
//! comparisons into a single integer compare (Do & Graefe, *Robust and
//! Efficient Sorting with Offset-Value Coding*).
//!
//! Keys are compared widened to `u64` (zero-extension is
//! order-preserving), viewed as `ARITY = 4` big-endian 16-bit words, so
//! one encoding serves every bank. Narrow banks massaged into shared
//! prefixes short-circuit most often — exactly where the engine spends
//! its merge time.
//!
//! The module also defines [`MergeCounters`], the comparison counts every
//! loser tree credits to the `MergeScratch` it borrows (load-bearing for
//! the cost model's calibration, not just observability).

/// Number of 16-bit words in a widened key.
const ARITY: u32 = 4;

/// Bits per code word.
const WORD_BITS: u32 = 16;

/// The offset-value code of `key` relative to `base`.
///
/// Requires `base <= key` (the predecessor in a sorted run, or the
/// element that just won a loser-tree match). Returns `0` when the keys
/// are equal; otherwise `((ARITY - k) << 16) | word`, where `k` is the
/// index of the first differing 16-bit word (0 = most significant) and
/// `word` is `key`'s word at that index. For keys over a common base,
/// code order equals key order whenever the codes differ; equal nonzero
/// codes require a full key comparison.
#[inline]
pub fn ovc_encode(key: u64, base: u64) -> u32 {
    debug_assert!(base <= key, "OVC base must not exceed the key");
    let diff = key ^ base;
    if diff == 0 {
        return 0;
    }
    let k = diff.leading_zeros() / WORD_BITS;
    let word = (key >> ((ARITY - 1 - k) * WORD_BITS)) & 0xFFFF;
    ((ARITY - k) << WORD_BITS) | word as u32
}

/// Derive the per-element offset-value codes for a buffer of adjacent
/// sorted runs of length `run` (the last run may be shorter): each
/// element is coded relative to its run predecessor, run heads against
/// the virtual all-zero key. One linear pass; the result is valid input
/// for the first OVC merge pass.
pub(crate) fn derive_codes<K: crate::key::Key>(keys: &[K], run: usize, codes: &mut [u32]) {
    debug_assert_eq!(keys.len(), codes.len());
    debug_assert!(run > 0);
    let mut prev = 0u64;
    for (i, (k, c)) in keys.iter().zip(codes.iter_mut()).enumerate() {
        let k = k.to_u64();
        if i % run == 0 {
            prev = 0;
        }
        *c = ovc_encode(k, prev);
        prev = k;
    }
}

/// Comparison counters of multiway merging.
///
/// `comparisons` counts every decided loser-tree match between two live
/// runs (both the plain and the OVC tree count, so before/after reports
/// share a denominator); `ovc_hits` counts the subset decided by the
/// code compare alone, without touching the full keys. Full-key
/// comparisons are `comparisons - ovc_hits`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    /// Loser-tree matches played between two live runs.
    pub comparisons: u64,
    /// Matches decided by the offset-value codes alone.
    pub ovc_hits: u64,
}

impl MergeCounters {
    /// Element-wise sum (used when merging per-thread stats).
    pub fn add(&mut self, other: MergeCounters) {
        self.comparisons += other.comparisons;
        self.ovc_hits += other.ovc_hits;
    }

    /// Element-wise difference from an `earlier` reading of the same
    /// (only growing) counters: what was credited in between.
    pub(crate) fn since(self, earlier: MergeCounters) -> MergeCounters {
        MergeCounters {
            comparisons: self.comparisons - earlier.comparisons,
            ovc_hits: self.ovc_hits - earlier.ovc_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_code_zero() {
        assert_eq!(ovc_encode(0, 0), 0);
        assert_eq!(ovc_encode(u64::MAX, u64::MAX), 0);
        assert_eq!(ovc_encode(0xABCD, 0xABCD), 0);
    }

    #[test]
    fn code_picks_first_differing_word() {
        // Differs in the most significant word: offset 0, arity part 4.
        assert_eq!(ovc_encode(0x0001_0000_0000_0000, 0), (4 << 16) | 0x0001u32);
        // Differs only in the least significant word: offset 3, part 1.
        assert_eq!(ovc_encode(0x0000_0000_0000_00FF, 0), (1 << 16) | 0x00FF);
        // Shared high word, difference in word 1.
        assert_eq!(
            ovc_encode(0xAAAA_BBBB_0000_0000, 0xAAAA_1111_2222_3333),
            (3 << 16) | 0xBBBB
        );
    }

    #[test]
    fn codes_order_keys_over_a_common_base() {
        // For any base p <= a, b: different codes must order like the keys.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let mut v = [
                next() & 0xFFFF_FFFF,
                next() & 0xFFFF_FFFF,
                next() & 0xFFFF_FFFF,
            ];
            v.sort_unstable();
            let (p, a, b) = (v[0], v[1], v[2]);
            let (ca, cb) = (ovc_encode(a, p), ovc_encode(b, p));
            if ca != cb {
                assert_eq!(a < b, ca < cb, "p={p:#x} a={a:#x} b={b:#x}");
            }
        }
    }
}
