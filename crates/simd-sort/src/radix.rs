//! Radix sort for `(key, oid)` pairs — the kernel the paper names as
//! what code massaging should feed next (§7): "The performance of
//! in-memory radix-sort depends on the size (number of bits) of the radix
//! … Code massaging would allow a careful choice of the radix size when
//! radix-sorting multiple columns."
//!
//! A range longer than [`MSD_MIN_ROWS`] is partitioned before it is
//! counted: one read pass ORs every key's difference from the first, and
//! one stable scatter on the 8 bits ending at the highest differing bit
//! (`partition`) splits it into 256 buckets, each of which recurses. A
//! range of at most [`MSD_MIN_ROWS`] rows fits the L2 cache and runs LSD:
//! one read pass builds the histogram of every 8-bit digit below the
//! partition's (all of them, unpartitioned) on the stack, and a digit
//! whose histogram has a single occupied bucket is skipped. Either way a massaged round of `w` bits runs at most
//! `⌈w/8⌉` scatter passes per row — the bits above `w` are zero in every
//! key — without the width being passed in: bit-borrowing pays off for
//! radix sort in passes just as bank narrowing does for the SIMD
//! merge-sort in lanes.
//!
//! The scatters ping-pong between the caller's slices and the first
//! key/oid buffers of a [`SortScratch`], so a warm caller allocates
//! nothing, and every completed pass leaves the side it wrote holding a
//! permutation of its input pairs: a cancellation between passes never
//! loses or duplicates a row. The parallel sort ([`crate::parallel`])
//! divides an oversized group across its workers with the same
//! `partition`.

use crate::key::Key;
use crate::scratch::SortScratch;
use mcs_cancel::CancelToken;
use std::time::Instant;

/// Radix (digit) size in bits; 8 gives byte-wide counting passes.
const DIGIT_BITS: u32 = 8;
/// Buckets of one digit.
pub(crate) const BUCKETS: usize = 1 << DIGIT_BITS;

/// Ranges longer than this are partitioned on their top live digit
/// before they are counted; ranges up to it run LSD. 2^16 `(u32, u32)`
/// pairs and their scratch side fill 1 MiB, where the crossover table
/// (`results/kernel_probe.txt`) shows the LSD scatter falling out of L2.
pub const MSD_MIN_ROWS: usize = 1 << 16;

/// Scatter passes the kernel runs, at most, on keys of `width_bits` live
/// bits: one per key byte that can hold more than one bucket.
#[inline]
pub fn passes_for_width(width_bits: u32) -> u32 {
    width_bits.div_ceil(DIGIT_BITS)
}

/// The 8-bit digit of `k` starting at bit `shift`.
#[inline(always)]
fn digit<K: Key>(k: K, shift: u32) -> usize {
    ((k.to_u64() >> shift) & (BUCKETS as u64 - 1)) as usize
}

/// Stable radix sort of `(keys, oids)` ascending by key, at any length
/// (no size dispatch — the kernel itself), using `scratch`'s first key
/// buffer of `K`'s bank and first oid buffer (grown to `keys.len()`,
/// never shrunk) as the other side of every scatter. `cancel` is polled
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
    assert_eq!(keys.len(), oids.len(), "keys/oids length mismatch");
    let n = keys.len();
    if n >= 2 {
        // Bucket counts are `u32`: the executor caps inputs below
        // `u32::MAX` rows (oids are `u32`), and a count never exceeds `n`.
        assert!(n <= u32::MAX as usize, "radix sort input exceeds u32 rows");
        let (kbuf, obuf) = scratch.radix_pair::<K>(n);
        let in_buf = sort_run(keys, oids, kbuf, obuf, K::BITS, cancel);
        if in_buf {
            keys.copy_from_slice(kbuf);
            oids.copy_from_slice(obuf);
        }
    }
    scratch.phases.radix_ns += t0.elapsed().as_nanos() as u64;
}

/// Sort the pairs `(ak, ao)` ascending by key, with `(bk, bo)` of the
/// same length as the other side of every scatter, given that the keys
/// agree on every bit from `bits` up. Returns whether the sorted pairs
/// ended in `b`. A fired `cancel` stops early, leaving a permutation of
/// the input pairs on the returned side.
fn sort_run<K: Key>(
    ak: &mut [K],
    ao: &mut [u32],
    bk: &mut [K],
    bo: &mut [u32],
    bits: u32,
    cancel: &CancelToken,
) -> bool {
    let n = ak.len();
    if n <= MSD_MIN_ROWS {
        // Only the digits below `bits` can hold more than one bucket.
        // Counting just those matters in the many small buckets under a
        // partition, whose top digits are constant; each count is a
        // const-sized array the counting loop unrolls over.
        return match bits.div_ceil(DIGIT_BITS) {
            0 | 1 => lsd::<K, 1>(ak, ao, bk, bo, cancel),
            2 => lsd::<K, 2>(ak, ao, bk, bo, cancel),
            3 => lsd::<K, 3>(ak, ao, bk, bo, cancel),
            4 => lsd::<K, 4>(ak, ao, bk, bo, cancel),
            5 => lsd::<K, 5>(ak, ao, bk, bo, cancel),
            6 => lsd::<K, 6>(ak, ao, bk, bo, cancel),
            7 => lsd::<K, 7>(ak, ao, bk, bo, cancel),
            _ => lsd::<K, 8>(ak, ao, bk, bo, cancel),
        };
    }
    let Some(shift) = partition_shift(ak) else {
        return false; // every key is equal: already sorted
    };
    if cancel.check().is_err() {
        return false;
    }
    let mut counts = [0u32; BUCKETS];
    partition(ak, ao, bk, bo, shift, &mut counts);

    // Every bucket now lies in `b`: sort each with `a` as its other side,
    // then bring them all to the side most rows landed on.
    let mut in_a = [false; BUCKETS];
    let (mut at, mut rows_in_a) = (0, 0);
    for (&c, landed) in counts.iter().zip(&mut in_a) {
        let r = at..at + c as usize;
        at = r.end;
        let (k, o) = (&mut ak[r.clone()], &mut ao[r.clone()]);
        *landed = sort_run(&mut bk[r.clone()], &mut bo[r], k, o, shift, cancel);
        rows_in_a += if *landed { c as usize } else { 0 };
    }
    let to_a = 2 * rows_in_a > n;
    at = 0;
    for (&c, &landed) in counts.iter().zip(&in_a) {
        let r = at..at + c as usize;
        at = r.end;
        if landed != to_a {
            if to_a {
                ak[r.clone()].copy_from_slice(&bk[r.clone()]);
                ao[r.clone()].copy_from_slice(&bo[r]);
            } else {
                bk[r.clone()].copy_from_slice(&ak[r.clone()]);
                bo[r.clone()].copy_from_slice(&ao[r]);
            }
        }
    }
    !to_a
}

/// [`sort_run`] on a range that fits the cache, over its low `D` digits:
/// one LSD pass per digit whose histogram has more than one occupied
/// bucket.
fn lsd<K: Key, const D: usize>(
    ak: &mut [K],
    ao: &mut [u32],
    bk: &mut [K],
    bo: &mut [u32],
    cancel: &CancelToken,
) -> bool {
    let n = ak.len();
    if n < 2 {
        return false;
    }
    // Equal lengths, visible to the compiler: the scatter loops run
    // ~5 % faster on small ranges for it.
    let (ao, bk, bo) = (&mut ao[..n], &mut bk[..n], &mut bo[..n]);
    let mut hist = [[0u32; BUCKETS]; D];
    for &k in ak.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[digit(k, d as u32 * DIGIT_BITS)] += 1;
        }
    }

    let mut in_b = false;
    for (d, h) in hist.iter_mut().enumerate() {
        let shift = d as u32 * DIGIT_BITS;
        // Every key shares this digit: the pass would be the identity.
        if h[digit(ak[0], shift)] as usize == n {
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
        if in_b {
            scatter(bk, bo, ak, ao, h, shift);
        } else {
            scatter(ak, ao, bk, bo, h, shift);
        }
        in_b = !in_b;
    }
    in_b
}

/// The shift of `keys`' partition digit: the 8 bits ending at the
/// highest bit on which the keys differ (bits 0..8 if that is below bit
/// 8). `None` when every key is equal.
pub(crate) fn partition_shift<K: Key>(keys: &[K]) -> Option<u32> {
    let first = keys.first()?.to_u64();
    let diff = keys.iter().fold(0, |acc, k| acc | (k.to_u64() ^ first));
    (diff != 0).then(|| (u64::BITS - diff.leading_zeros()).saturating_sub(DIGIT_BITS))
}

/// Stably scatter `(sk, so)` into `(dk, dov)` by the digit at `shift`,
/// bucket after bucket in digit order; `counts` receives each bucket's
/// row count.
pub(crate) fn partition<K: Key>(
    sk: &[K],
    so: &[u32],
    dk: &mut [K],
    dov: &mut [u32],
    shift: u32,
    counts: &mut [u32; BUCKETS],
) {
    counts.fill(0);
    for &k in sk {
        counts[digit(k, shift)] += 1;
    }
    let mut cursors = [0u32; BUCKETS];
    let mut acc = 0u32;
    for (cursor, &count) in cursors.iter_mut().zip(counts.iter()) {
        *cursor = acc;
        acc += count;
    }
    scatter(sk, so, dk, dov, &mut cursors, shift);
}

/// One stable counting-sort pass on the digit at `shift`: `cursors`
/// holds each bucket's next write position.
#[inline(always)]
fn scatter<K: Key>(
    sk: &[K],
    so: &[u32],
    dk: &mut [K],
    dov: &mut [u32],
    cursors: &mut [u32; BUCKETS],
    shift: u32,
) {
    for (&k, &o) in sk.iter().zip(so) {
        let c = &mut cursors[digit(k, shift)];
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
        // before the first pass, some between passes — past
        // `MSD_MIN_ROWS`, between the partition and its buckets' passes —
        // the late ones not at all. Wherever the token fires, the slices
        // must hold the input pairs, each key still next to its oid — and
        // be sorted whenever the token did not fire.
        let n = 1usize << 18;
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
