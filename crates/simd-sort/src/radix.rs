//! LSD radix sort for `(key, oid)` pairs — the kernel the paper names as
//! what code massaging should feed next (§7): "The performance of
//! in-memory radix-sort depends on the size (number of bits) of the radix
//! … Code massaging would allow a careful choice of the radix size when
//! radix-sorting multiple columns."
//!
//! One read pass builds the histogram of every 8-bit digit on the stack;
//! a digit whose histogram has a single occupied bucket is skipped. A
//! massaged round of `w` bits therefore runs at most `⌈w/8⌉` scatter
//! passes — the bits above `w` are zero in every key — without the width
//! being passed in: bit-borrowing pays off for radix sort in passes just
//! as bank narrowing does for the SIMD merge-sort in lanes.
//!
//! The scatter ping-pongs between the caller's slices and the first
//! key/oid buffers of a [`SortScratch`], so a warm caller allocates nothing, and
//! every completed pass leaves both sides holding a permutation of the
//! input pairs: a cancellation between passes never loses or duplicates
//! a row.

use crate::key::Key;
use crate::scratch::SortScratch;
use mcs_cancel::CancelToken;
use std::time::Instant;

/// Radix (digit) size in bits; 8 gives byte-wide counting passes.
const DIGIT_BITS: u32 = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Scatter passes the kernel runs, at most, on keys of `width_bits` live
/// bits: one per key byte that can hold more than one bucket.
#[inline]
pub fn passes_for_width(width_bits: u32) -> u32 {
    width_bits.div_ceil(DIGIT_BITS)
}

#[inline(always)]
fn digit<K: Key>(k: K, d: usize) -> usize {
    ((k.to_u64() >> (d as u32 * DIGIT_BITS)) & (BUCKETS as u64 - 1)) as usize
}

/// Stable LSD radix sort of `(keys, oids)` ascending by key, at any
/// length (no size dispatch — the kernel itself), using `scratch`'s first
/// key buffer of `K`'s bank and first oid buffer (grown to `keys.len()`,
/// never shrunk) as the other side of the ping-pong. `cancel` is polled
/// before every scatter pass; a fired token returns early with
/// `keys`/`oids` holding the pairs in some intermediate order.
#[inline]
pub fn radix_sort_pairs<K: Key>(
    keys: &mut [K],
    oids: &mut [u32],
    scratch: &mut SortScratch,
    cancel: &CancelToken,
) {
    let t0 = Instant::now();
    let (kbuf, obuf) = (&mut K::bufs(&mut scratch.keys).0, &mut scratch.oids.0);
    match K::BITS {
        16 => radix_sort_digits::<K, 2>(keys, oids, kbuf, obuf, cancel),
        32 => radix_sort_digits::<K, 4>(keys, oids, kbuf, obuf, cancel),
        _ => radix_sort_digits::<K, 8>(keys, oids, kbuf, obuf, cancel),
    }
    scratch.phases.radix_ns += t0.elapsed().as_nanos() as u64;
}

/// [`radix_sort_pairs`] over the `D = K::BITS / 8` digits of the key.
fn radix_sort_digits<K: Key, const D: usize>(
    keys: &mut [K],
    oids: &mut [u32],
    kbuf: &mut Vec<K>,
    obuf: &mut Vec<u32>,
    cancel: &CancelToken,
) {
    debug_assert_eq!(D as u32 * DIGIT_BITS, K::BITS);
    assert_eq!(keys.len(), oids.len(), "keys/oids length mismatch");
    let n = keys.len();
    if n < 2 {
        return;
    }
    // Bucket counts are `u32`: the executor caps inputs below `u32::MAX`
    // rows (oids are `u32`), and a count never exceeds `n`.
    assert!(n <= u32::MAX as usize, "radix sort input exceeds u32 rows");

    let mut hist = [[0u32; BUCKETS]; D];
    for &k in keys.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[digit(k, d)] += 1;
        }
    }

    if kbuf.len() < n {
        kbuf.resize(n, K::default());
    }
    if obuf.len() < n {
        obuf.resize(n, 0);
    }
    let (kbuf, obuf) = (&mut kbuf[..n], &mut obuf[..n]);

    let mut in_caller = true;
    for (d, h) in hist.iter_mut().enumerate() {
        // Every key shares this digit: the pass would be the identity.
        if h[digit(keys[0], d)] as usize == n {
            continue;
        }
        if cancel.check().is_err() {
            break;
        }
        // Exclusive prefix sums turn counts into bucket write cursors.
        let mut acc = 0u32;
        for c in h.iter_mut() {
            let count = *c;
            *c = acc;
            acc += count;
        }
        if in_caller {
            scatter(keys, oids, kbuf, obuf, h, d);
        } else {
            scatter(kbuf, obuf, keys, oids, h, d);
        }
        in_caller = !in_caller;
    }
    if !in_caller {
        keys.copy_from_slice(kbuf);
        oids.copy_from_slice(obuf);
    }
}

/// One stable counting-sort pass on digit `d`: `cursors` holds each
/// bucket's next write position.
#[inline(always)]
fn scatter<K: Key>(
    sk: &[K],
    so: &[u32],
    dk: &mut [K],
    dov: &mut [u32],
    cursors: &mut [u32; BUCKETS],
    d: usize,
) {
    for (&k, &o) in sk.iter().zip(so) {
        let c = &mut cursors[digit(k, d)];
        let at = *c as usize;
        *c += 1;
        dk[at] = k;
        dov[at] = o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort<K: Key>(keys: &mut [K], oids: &mut [u32]) {
        radix_sort_pairs(keys, oids, &mut SortScratch::new(), &CancelToken::none());
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn check<K: Key>(orig: &[K], keys: &[K], oids: &[u32]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut seen = vec![false; oids.len()];
        for (i, &o) in oids.iter().enumerate() {
            assert_eq!(keys[i], orig[o as usize]);
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
    }

    #[test]
    fn radix_sorts_all_widths() {
        for &mask in &[0xFFFu64, 0xFFFF, 0xFF_FFFF, u32::MAX as u64] {
            let n = 5000;
            let mut state = mask;
            let orig: Vec<u32> = (0..n)
                .map(|_| (xorshift(&mut state) & mask) as u32)
                .collect();
            let mut k = orig.clone();
            let mut o: Vec<u32> = (0..n as u32).collect();
            sort(&mut k, &mut o);
            check(&orig, &k, &o);
        }
    }

    #[test]
    fn radix_u16_and_u64() {
        let n = 3000;
        let mut state = 9u64;
        let orig16: Vec<u16> = (0..n).map(|_| xorshift(&mut state) as u16).collect();
        let mut k = orig16.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        sort(&mut k, &mut o);
        check(&orig16, &k, &o);

        let orig64: Vec<u64> = (0..n)
            .map(|_| xorshift(&mut state) & ((1 << 50) - 1))
            .collect();
        let mut k = orig64.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        sort(&mut k, &mut o);
        check(&orig64, &k, &o);
    }

    #[test]
    fn radix_is_stable() {
        // LSD radix with stable scatter: equal keys keep input order.
        let orig: Vec<u32> = vec![5, 3, 5, 3, 5];
        let mut k = orig.clone();
        let mut o: Vec<u32> = (0..5).collect();
        sort(&mut k, &mut o);
        assert_eq!(k, vec![3, 3, 5, 5, 5]);
        assert_eq!(o, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let mut k: Vec<u32> = vec![];
        let mut o: Vec<u32> = vec![];
        sort(&mut k, &mut o);
        let mut k = vec![9u32, 1];
        let mut o = vec![0u32, 1];
        sort(&mut k, &mut o);
        assert_eq!(k, vec![1, 9]);
        assert_eq!(o, vec![1, 0]);
    }

    #[test]
    fn single_bucket_digits_are_skipped() {
        // Values fit in 9 bits: two live digits, so an even pass count —
        // the result lands in the caller's slices and the scratch pair
        // still holds the first pass's output, not the final order.
        let n = 2000;
        let mut state = 77u64;
        let orig: Vec<u32> = (0..n)
            .map(|_| (xorshift(&mut state) & 0x1FF) as u32)
            .collect();
        let mut k = orig.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        let mut scratch = SortScratch::new();
        radix_sort_pairs(&mut k, &mut o, &mut scratch, &CancelToken::none());
        check(&orig, &k, &o);
        let kbuf = &scratch.keys.k32.0;
        assert_ne!(kbuf, &k, "two passes: scratch holds the low-digit order");
        assert!(kbuf.windows(2).all(|w| w[0] & 0xFF <= w[1] & 0xFF));

        // All-equal keys: every digit has one bucket, nothing moves and
        // the scratch is sized but never written.
        let mut k = vec![42u32; 500];
        let mut o: Vec<u32> = (0..500).rev().collect();
        let expect = o.clone();
        let mut scratch = SortScratch::new();
        radix_sort_pairs(&mut k, &mut o, &mut scratch, &CancelToken::none());
        assert_eq!(o, expect);
        assert!(scratch.keys.k32.0.iter().all(|&x| x == 0));
    }

    #[test]
    fn fired_token_leaves_a_permutation() {
        let n = 4096usize;
        let mut state = 5u64;
        let orig: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        let mut k = orig.clone();
        let mut o: Vec<u32> = (0..n as u32).collect();
        let token = CancelToken::new();
        token.cancel();
        radix_sort_pairs(&mut k, &mut o, &mut SortScratch::new(), &token);
        // No pass ran: the pairs are untouched.
        assert_eq!(k, orig);
        assert!(o.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn token_fired_between_passes_leaves_a_permutation() {
        // Deadlines swept across the sort's own duration: some expire
        // before the first pass, some between passes, the late ones not
        // at all. Wherever the token fires, the slices must hold the
        // input pairs, each key still next to its oid — and be sorted
        // whenever the token did not fire.
        let n = 1usize << 16;
        let mut state = 11u64;
        let orig: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        let oids0: Vec<u32> = (0..n as u32).collect();
        let mut scratch = SortScratch::new();
        let t = std::time::Instant::now();
        let (mut k, mut o) = (orig.clone(), oids0.clone());
        radix_sort_pairs(&mut k, &mut o, &mut scratch, &CancelToken::none());
        let whole = t.elapsed();
        check(&orig, &k, &o);

        let mut unsorted = 0;
        for step in 0..=16u32 {
            let token = CancelToken::with_timeout(whole * step / 16);
            let (mut k, mut o) = (orig.clone(), oids0.clone());
            radix_sort_pairs(&mut k, &mut o, &mut scratch, &token);
            let mut seen = vec![false; n];
            for (&key, &oid) in k.iter().zip(&o) {
                assert_eq!(key, orig[oid as usize], "step {step}: pair torn apart");
                assert!(!seen[oid as usize], "step {step}: oid {oid} duplicated");
                seen[oid as usize] = true;
            }
            if k.windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            assert!(token.is_cancelled(), "step {step}: unsorted without a fire");
            unsorted += 1;
        }
        assert!(unsorted > 0, "no deadline fired before the last pass");
    }
}
