//! The radix kernel (`radix_sort_pairs`) against a stable comparison
//! sort, around the length where it starts partitioning before it counts
//! (`MSD_MIN_ROWS`) and well past it, in every bank, on the key shapes
//! that decide which digit the partition picks and which digits are
//! skipped. Oids are a random permutation, so the reference pins the
//! order of equal keys too: the kernel must keep their input order.

use mcs_simd_sort::{radix_sort_pairs, CancelToken, Key, SortScratch, MSD_MIN_ROWS};
use mcs_test_support::{check, Rng};

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform over the whole bank.
    FullWidth,
    /// 23 live bits (the bank's width, if narrower), 95 % of rows sharing
    /// the top 6: a few giant buckets at the first partition, which must
    /// partition again.
    Skewed,
    /// Every key equal but one.
    AllEqualButOne,
    /// Keys that differ only in bit 0: the partition digit is bits 0..8.
    Bit0Only,
    /// Keys that differ only in the bank's top bit.
    TopBitOnly,
    /// Half the rows share one key, the rest are uniform: buckets that
    /// need different numbers of passes, so a partition's buckets end on
    /// both sides of its ping-pong and must be brought to one.
    HalfEqual,
}

const SHAPES: [Shape; 6] = [
    Shape::FullWidth,
    Shape::Skewed,
    Shape::AllEqualButOne,
    Shape::Bit0Only,
    Shape::TopBitOnly,
    Shape::HalfEqual,
];

fn gen_keys<K: Key>(rng: &mut Rng, n: usize, shape: Shape) -> Vec<K> {
    let base: u64 = rng.gen();
    let top = 1u64 << (K::BITS - 1);
    let keys: Vec<u64> = match shape {
        Shape::FullWidth => (0..n).map(|_| rng.gen()).collect(),
        Shape::Skewed => {
            let w = 23.min(K::BITS);
            let (low, shared) = ((1u64 << (w - 6)) - 1, base & 0x3F);
            (0..n)
                .map(|_| {
                    let high = if rng.gen_range(0..100u32) < 95 {
                        shared
                    } else {
                        rng.gen_range(0..64u64)
                    };
                    (high << (w - 6)) | (rng.gen::<u64>() & low)
                })
                .collect()
        }
        Shape::AllEqualButOne => {
            let mut v = vec![base; n];
            if n > 0 {
                let odd = rng.gen_range(0..n);
                v[odd] = rng.gen();
            }
            v
        }
        Shape::Bit0Only => (0..n)
            .map(|_| (base & !1) | (rng.gen::<u64>() & 1))
            .collect(),
        Shape::TopBitOnly => (0..n)
            .map(|_| (base & !top) | (rng.gen::<u64>() & top))
            .collect(),
        Shape::HalfEqual => (0..n)
            .map(|_| if rng.gen_bool(0.5) { base } else { rng.gen() })
            .collect(),
    };
    keys.into_iter().map(K::from_u64).collect()
}

fn case<K: Key>(rng: &mut Rng, scratch: &mut SortScratch, n: usize, shape: Shape) {
    let keys0: Vec<K> = gen_keys(rng, n, shape);
    let mut oids0: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        oids0.swap(i, rng.gen_range(0..=i));
    }
    let mut want: Vec<(K, u32)> = keys0.iter().copied().zip(oids0.iter().copied()).collect();
    want.sort_by_key(|&(k, _)| k);

    let (mut keys, mut oids) = (keys0, oids0);
    radix_sort_pairs(&mut keys, &mut oids, scratch, &CancelToken::none());
    let got: Vec<(K, u32)> = keys.into_iter().zip(oids).collect();
    assert!(
        got == want,
        "u{} n={n} {shape:?}: differs from the stable reference",
        K::BITS
    );
}

fn matrix<K: Key>(name: &str) {
    check(name, 2, |rng| {
        // One warm scratch across lengths, as a worker carries it.
        let mut scratch = SortScratch::new();
        for n in [MSD_MIN_ROWS - 1, MSD_MIN_ROWS, MSD_MIN_ROWS + 1, 1 << 18] {
            for shape in SHAPES {
                case::<K>(rng, &mut scratch, n, shape);
            }
        }
    });
}

#[test]
fn radix_matches_stable_reference_u16() {
    matrix::<u16>("radix_matches_stable_reference_u16");
}

#[test]
fn radix_matches_stable_reference_u32() {
    matrix::<u32>("radix_matches_stable_reference_u32");
}

#[test]
fn radix_matches_stable_reference_u64() {
    matrix::<u64>("radix_matches_stable_reference_u64");
}
