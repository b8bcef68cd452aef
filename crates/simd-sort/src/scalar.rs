//! Scalar sorts: the reference oracle and the two small-group kernels.
//!
//! [`sort_pairs_scalar`] is both the correctness oracle for the other
//! kernels and the "no SIMD" baseline used by the benchmarks.
//! [`insertion_sort_pairs`] handles the tiny per-group sorts of later
//! rounds; [`sort_pairs_packed`] the small ones, as a comparison sort on
//! packed fixed-width `key‖oid` words.

use crate::key::Key;
use crate::scratch::SortScratch;

/// Sort `(keys, oids)` by key using the standard-library unstable sort on
/// zipped pairs. `O(n log n)`, no SIMD.
pub fn sort_pairs_scalar<K: Key>(keys: &mut [K], oids: &mut [u32]) {
    assert_eq!(keys.len(), oids.len());
    let mut pairs: Vec<(K, u32)> = keys.iter().copied().zip(oids.iter().copied()).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    for (i, (k, o)) in pairs.into_iter().enumerate() {
        keys[i] = k;
        oids[i] = o;
    }
}

/// Branch-light insertion sort for short segments (used for tiny groups
/// where a full merge-sort invocation's `C_overhead` would dominate).
pub fn insertion_sort_pairs<K: Key>(keys: &mut [K], oids: &mut [u32]) {
    debug_assert_eq!(keys.len(), oids.len());
    for i in 1..keys.len() {
        let k = keys[i];
        let o = oids[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            oids[j] = oids[j - 1];
            j -= 1;
        }
        keys[j] = k;
        oids[j] = o;
    }
}

/// Sort `(keys, oids)` as fixed-width words in `scratch`, through the
/// standard library's unstable sort (in place, no heap) — whose
/// branchless small-sort networks on 8-byte words are what make this beat
/// insertion sort from two dozen rows up.
///
/// The 16/32-bit banks pack `key << 32 | oid` into one `u64`; ties on the
/// key come out in ascending oid order. The 64-bit bank has no room for
/// the oid, so it sorts `top 32 bits of (key - min) ‖ row index` words
/// and repairs runs that tie on those bits with one insertion pass over
/// the full keys (nearly sorted input, so linear unless the keys cluster
/// in several far-apart clumps — then quadratic in the clump, which the
/// dispatch bounds by [`crate::PACKED_MAX_ROWS`]); ties come out in input
/// order.
pub fn sort_pairs_packed<K: Key>(keys: &mut [K], oids: &mut [u32], scratch: &mut SortScratch) {
    assert_eq!(keys.len(), oids.len(), "keys/oids length mismatch");
    if K::BITS <= 32 {
        let buf = &mut scratch.packed;
        buf.clear();
        buf.extend(
            keys.iter()
                .zip(oids.iter())
                .map(|(&k, &o)| k.to_u64() << 32 | u64::from(o)),
        );
        buf.sort_unstable();
        for ((k, o), &w) in keys.iter_mut().zip(oids.iter_mut()).zip(buf.iter()) {
            *k = K::from_u64(w >> 32);
            *o = w as u32;
        }
    } else {
        let (lo, hi) = keys.iter().fold((u64::MAX, 0u64), |(lo, hi), k| {
            (lo.min(k.to_u64()), hi.max(k.to_u64()))
        });
        if lo >= hi {
            return;
        }
        let lz = (hi - lo).leading_zeros();
        let buf = &mut scratch.packed;
        buf.clear();
        buf.extend(
            keys.iter()
                .enumerate()
                .map(|(i, k)| ((k.to_u64() - lo) << lz) >> 32 << 32 | i as u64),
        );
        buf.sort_unstable();
        let wide = &mut scratch.packed_wide;
        wide.clear();
        wide.extend(buf.iter().map(|&w| {
            let i = w as u32 as usize;
            (keys[i].to_u64(), oids[i])
        }));
        for i in 1..wide.len() {
            let e = wide[i];
            let mut j = i;
            while j > 0 && wide[j - 1].0 > e.0 {
                wide[j] = wide[j - 1];
                j -= 1;
            }
            wide[j] = e;
        }
        for ((k, o), &(wk, wo)) in keys.iter_mut().zip(oids.iter_mut()).zip(wide.iter()) {
            *k = K::from_u64(wk);
            *o = wo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_sort_in_every_bank() {
        let mut scratch = SortScratch::new();
        let mut k: Vec<u16> = vec![9, 4, 4, 7, 0, u16::MAX, 4];
        let mut o: Vec<u32> = vec![6, 5, 4, 3, 2, 1, 0];
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert_eq!(k, vec![0, 4, 4, 4, 7, 9, u16::MAX]);
        assert_eq!(o, vec![2, 0, 4, 5, 3, 6, 1]);

        let mut k: Vec<u32> = vec![u32::MAX, 1, u32::MAX];
        let mut o: Vec<u32> = vec![u32::MAX - 1, 7, 3];
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert_eq!(k, vec![1, u32::MAX, u32::MAX]);
        assert_eq!(o, vec![7, 3, u32::MAX - 1]);

        // Wide bank: ties keep input order.
        let mut k: Vec<u64> = vec![u64::MAX, 1 << 40, 5, 1 << 40];
        let mut o: Vec<u32> = vec![0, 9, 2, 1];
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert_eq!(k, vec![5, 1 << 40, 1 << 40, u64::MAX]);
        assert_eq!(o, vec![2, 9, 1, 0]);
    }

    #[test]
    fn wide_packed_sort_repairs_ties_on_the_top_bits() {
        let mut scratch = SortScratch::new();
        // Two clumps 2^60 apart: the top 32 bits of `key - min` only tell
        // the clumps apart, the insertion pass must order each clump.
        let orig: Vec<u64> = (0..90u64)
            .map(|i| ((i % 2) << 60) | ((i * 7919) % 97))
            .collect();
        let mut k = orig.clone();
        let mut o: Vec<u32> = (0..90).collect();
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        assert!(k
            .iter()
            .zip(&o)
            .all(|(&key, &oid)| key == orig[oid as usize]));
        // A base far from zero with a narrow spread sorts exactly on the
        // packed bits (no ties to repair), and all-equal keys are a no-op.
        let orig: Vec<u64> = (0..50u64).map(|i| (1 << 50) + (i * 31) % 64).collect();
        let mut k = orig.clone();
        let mut o: Vec<u32> = (0..50).collect();
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        assert!(k
            .iter()
            .zip(&o)
            .all(|(&key, &oid)| key == orig[oid as usize]));
        let mut k = vec![u64::MAX; 20];
        let mut o: Vec<u32> = (0..20).rev().collect();
        sort_pairs_packed(&mut k, &mut o, &mut scratch);
        assert_eq!(o, (0..20).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn scalar_sort_small() {
        let mut k = vec![3u32, 1, 2];
        let mut o = vec![0, 1, 2];
        sort_pairs_scalar(&mut k, &mut o);
        assert_eq!(k, vec![1, 2, 3]);
        assert_eq!(o, vec![1, 2, 0]);
    }

    #[test]
    fn insertion_sort_matches_scalar() {
        let mut k1: Vec<u16> = vec![9, 4, 4, 7, 0, 65535, 3];
        let mut o1: Vec<u32> = (0..7).collect();
        let mut k2 = k1.clone();
        let mut o2 = o1.clone();
        sort_pairs_scalar(&mut k1, &mut o1);
        insertion_sort_pairs(&mut k2, &mut o2);
        assert_eq!(k1, k2);
        // Ties (the two 4s) may permute; verify oid-key consistency instead.
        for i in 0..7 {
            assert_eq!(k2[i], [9u16, 4, 4, 7, 0, 65535, 3][o2[i] as usize]);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut k: Vec<u64> = vec![];
        let mut o: Vec<u32> = vec![];
        sort_pairs_scalar(&mut k, &mut o);
        insertion_sort_pairs(&mut k, &mut o);
        let mut k = vec![5u64];
        let mut o = vec![7u32];
        sort_pairs_scalar(&mut k, &mut o);
        assert_eq!((k[0], o[0]), (5, 7));
    }
}
