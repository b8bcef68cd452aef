//! The size-driven kernel dispatch (`SortKernel::Auto`) across its whole
//! input matrix: every bank × the lengths around both crossovers × the
//! key shapes each kernel could get wrong. Each case asserts the output
//! is sorted, the oids are a permutation that points back at the input,
//! and the keys equal what `SortKernel::MergeSort` produces.

use mcs_simd_sort::{
    kernel_for, sort_pairs_in_groups, sort_pairs_with, GroupBounds, Key, SizeKernel, SortConfig,
    SortKernel, SortScratch, SortableKey, WorkerScratch, INSERTION_MAX_ROWS, PACKED_MAX_ROWS,
    PARALLEL_CUTOFF_ROWS,
};
use mcs_test_support::{check, Rng};

/// 0, 1, 2 and each crossover ± 1.
fn small_lengths() -> Vec<usize> {
    vec![
        0,
        1,
        2,
        INSERTION_MAX_ROWS - 1,
        INSERTION_MAX_ROWS,
        INSERTION_MAX_ROWS + 1,
        PACKED_MAX_ROWS - 1,
        PACKED_MAX_ROWS,
        PACKED_MAX_ROWS + 1,
    ]
}

/// More rows than a 16-bit key has values, so `u16` buckets overflow 16
/// bits of count and every `u16` input has ties.
const BIG: usize = (1 << 16) + 1;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    AllEqual,
    PreSorted,
    Reversed,
    /// One significant bit: a single live radix digit with two buckets.
    WidthOne,
    /// Half the keys are the bank's real `MAX_KEY` (the merge-sort's
    /// padding sentinel).
    MaxKeys,
}

const SHAPES: [Shape; 6] = [
    Shape::Random,
    Shape::AllEqual,
    Shape::PreSorted,
    Shape::Reversed,
    Shape::WidthOne,
    Shape::MaxKeys,
];

fn gen_keys<K: Key>(rng: &mut Rng, n: usize, shape: Shape) -> Vec<K> {
    let mut v: Vec<K> = match shape {
        Shape::Random | Shape::PreSorted | Shape::Reversed => {
            (0..n).map(|_| K::from_u64(rng.gen())).collect()
        }
        Shape::AllEqual => {
            let k = K::from_u64(rng.gen());
            vec![k; n]
        }
        Shape::WidthOne => (0..n).map(|_| K::from_u64(rng.gen::<u64>() & 1)).collect(),
        Shape::MaxKeys => (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    K::MAX_KEY
                } else {
                    K::from_u64(rng.gen())
                }
            })
            .collect(),
    };
    match shape {
        Shape::PreSorted => v.sort_unstable(),
        Shape::Reversed => {
            v.sort_unstable();
            v.reverse();
        }
        _ => {}
    }
    v
}

/// `oids[i]` names input row `oids[i] - base`.
fn verify<K: Key>(orig: &[K], keys: &[K], oids: &[u32], base: u32) {
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
    let mut seen = vec![false; oids.len()];
    for (i, &o) in oids.iter().enumerate() {
        let row = (o - base) as usize;
        assert_eq!(keys[i], orig[row], "oid {o} at {i} names another key");
        assert!(!seen[row], "oid {o} repeated");
        seen[row] = true;
    }
}

fn case<K: SortableKey>(rng: &mut Rng, n: usize, shape: Shape, high_oids: bool) {
    let orig: Vec<K> = gen_keys(rng, n, shape);
    // Oids either count from 0 or end at `u32::MAX - 1`, the largest
    // value the contract allows (`u32::MAX` is the padding sentinel).
    let base = if high_oids { u32::MAX - n as u32 } else { 0 };
    let oids0: Vec<u32> = (0..n as u32).map(|i| base + i).collect();

    let (mut ka, mut oa) = (orig.clone(), oids0.clone());
    sort_pairs_with(&mut ka, &mut oa, &SortConfig::default());
    verify(&orig, &ka, &oa, base);

    let merge = SortConfig {
        kernel: SortKernel::MergeSort,
        ..SortConfig::default()
    };
    let (mut km, mut om) = (orig.clone(), oids0);
    sort_pairs_with(&mut km, &mut om, &merge);
    verify(&orig, &km, &om, base);
    assert_eq!(ka, km, "Auto and MergeSort disagree on the sorted keys");
}

fn all_shapes<K: SortableKey>(rng: &mut Rng, n: usize) {
    for shape in SHAPES {
        case::<K>(rng, n, shape, false);
    }
    case::<K>(rng, n, Shape::Random, true);
    case::<K>(rng, n, Shape::MaxKeys, true);
}

fn matrix<K: SortableKey>(name: &str) {
    check(name, 16, |rng| {
        for n in small_lengths() {
            all_shapes::<K>(rng, n);
        }
    });
    // The long input runs once per shape, whatever `PROPTEST_CASES` says.
    all_shapes::<K>(&mut Rng::stream(0x0D15_7A7C, name), BIG);
}

#[test]
fn dispatch_matrix_u16() {
    matrix::<u16>("dispatch_matrix_u16");
}

#[test]
fn dispatch_matrix_u32() {
    matrix::<u32>("dispatch_matrix_u32");
}

#[test]
fn dispatch_matrix_u64() {
    matrix::<u64>("dispatch_matrix_u64");
}

#[test]
fn lengths_cover_all_three_kernels() {
    let mut kinds: Vec<SizeKernel> = small_lengths().into_iter().map(kernel_for).collect();
    kinds.push(kernel_for(BIG));
    for k in [SizeKernel::Insertion, SizeKernel::Packed, SizeKernel::Radix] {
        assert!(kinds.contains(&k), "{k:?} not exercised");
    }
}

/// One scratch carried across kernels, banks and lengths gives the same
/// output as a fresh one, and the packed kernel's share of it stays
/// bounded by the crossover, not by the longest input seen.
#[test]
fn warm_scratch_is_equivalent_and_packed_share_is_bounded() {
    check("warm_scratch_is_equivalent", 8, |rng| {
        let cfg = SortConfig::default();
        let mut scratch = SortScratch::new();
        for _ in 0..12 {
            let n = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..=INSERTION_MAX_ROWS),
                1 => rng.gen_range(0..=PACKED_MAX_ROWS),
                _ => rng.gen_range(0..5000usize),
            };
            let orig: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let (mut k1, mut o1) = (orig.clone(), (0..n as u32).collect::<Vec<_>>());
            sort_pairs_with(&mut k1, &mut o1, &cfg);
            let (mut k2, mut o2) = (orig.clone(), (0..n as u32).collect::<Vec<_>>());
            u32::sort_pairs_with_scratch(&mut k2, &mut o2, &cfg, &mut scratch);
            assert_eq!((k1, o1), (k2, o2));
        }
        // Radix side: two buffers of at most the longest input; packed
        // side: at most the crossover (Vec growth may double it).
        let radix_side = 5000 * (4 + 4);
        let packed_side = 2 * PACKED_MAX_ROWS * 8;
        assert!(scratch.bytes() <= 2 * radix_side + packed_side);
    });
}

/// Groups of every kernel class with heavy ties, ascending but gapped
/// oids, sorted by `sort_pairs_in_groups` under `Auto` on `threads`
/// workers: each group comes out sorted, and equal keys keep their input
/// (ascending-oid) order.
fn ties_keep_input_order<K: SortableKey>(rng: &mut Rng, threads: usize) {
    let mut offsets = vec![0u32];
    let mut keys: Vec<K> = Vec::new();
    let class_lens = [
        2..=INSERTION_MAX_ROWS,
        INSERTION_MAX_ROWS + 1..=PACKED_MAX_ROWS,
        PACKED_MAX_ROWS + 1..=2000,
    ];
    // A few groups of each class, then one radix group that puts the
    // total over the parallel cutoff.
    let mut lens: Vec<usize> = (0..12)
        .map(|i| rng.gen_range(class_lens[i % 3].clone()))
        .collect();
    rng.shuffle(&mut lens);
    lens.push(PARALLEL_CUTOFF_ROWS);
    for len in lens {
        // A few distinct values per group: tight (ties on the 64-bit
        // packed kernel's top bits too) or spread over the whole bank.
        let ndv = rng.gen_range(1..=6usize);
        let values: Vec<u64> = if rng.gen_bool(0.5) {
            (0..ndv).map(|_| rng.gen::<u64>() & 0xFF).collect()
        } else {
            (0..ndv).map(|_| rng.gen()).collect()
        };
        keys.extend((0..len).map(|_| K::from_u64(*rng.choose(&values))));
        offsets.push(keys.len() as u32);
    }
    let mut oid = 0u32;
    let oids0: Vec<u32> = (0..keys.len())
        .map(|_| {
            oid += 1 + rng.gen_range(0..3u32);
            oid
        })
        .collect();
    let groups = GroupBounds::from_offsets(offsets);
    let (orig, mut oids) = (keys.clone(), oids0.clone());
    sort_pairs_in_groups(
        &mut keys,
        &mut oids,
        &groups,
        threads,
        &SortConfig::default(),
        &mut WorkerScratch::new(),
    )
    .expect("no injected faults");
    for g in groups.iter() {
        let (k, o) = (&keys[g.clone()], &oids[g.clone()]);
        for i in 1..k.len() {
            assert!(k[i - 1] <= k[i], "t{threads}: group {g:?} not sorted");
            if k[i - 1] == k[i] {
                assert!(o[i - 1] < o[i], "t{threads}: group {g:?} reordered a tie");
            }
        }
        let mut got = o.to_vec();
        got.sort_unstable();
        assert_eq!(got, oids0[g.clone()], "t{threads}: group {g:?} oids");
        for (&key, &oid) in k.iter().zip(o) {
            let row = oids0.binary_search(&oid).expect("known oid");
            assert_eq!(key, orig[row], "t{threads}: oid {oid} names another key");
        }
    }
}

/// `Auto` is stable: the executor canonicalizes ties only under
/// `MergeSort`, whose sorting networks are not.
#[test]
fn auto_keeps_equal_keys_in_input_order() {
    check("auto_keeps_equal_keys_in_input_order", 8, |rng| {
        for threads in [1, 4] {
            ties_keep_input_order::<u16>(rng, threads);
            ties_keep_input_order::<u32>(rng, threads);
            ties_keep_input_order::<u64>(rng, threads);
        }
    });
}
