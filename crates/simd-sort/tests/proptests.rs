//! Property-based tests: the SIMD merge-sort agrees with the scalar
//! oracle on arbitrary inputs, for every bank width and both backends,
//! and so do the segmented/parallel variants under the default kernel
//! dispatch (whose own matrix is `dispatch_proptests.rs`).
//!
//! Driven by the `mcs-test-support` mini-harness: `PROPTEST_CASES` caps
//! the case count, `MCS_TEST_SEED` replays a reported failure.

use mcs_simd_sort::{
    group_boundaries, sort_pairs_in_groups, sort_pairs_with, GroupBounds, SortConfig, SortKernel,
    SortableKey, WorkerScratch,
};
use mcs_test_support::{check, Rng};

fn verify<K: SortableKey>(orig: &[K], keys: &[K], oids: &[u32]) {
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    let mut seen = vec![false; oids.len()];
    for (i, &o) in oids.iter().enumerate() {
        assert_eq!(keys[i], orig[o as usize]);
        assert!(!seen[o as usize]);
        seen[o as usize] = true;
    }
}

fn run_sort<K: SortableKey>(orig: Vec<K>, force_portable: bool) {
    let cfg = SortConfig {
        kernel: SortKernel::MergeSort,
        force_portable,
        // Small bounds exercise multi-pass merging even at proptest sizes.
        in_cache_bytes: 4096,
        ..SortConfig::default()
    };
    let mut keys = orig.clone();
    let mut oids: Vec<u32> = (0..orig.len() as u32).collect();
    sort_pairs_with(&mut keys, &mut oids, &cfg);
    verify(&orig, &keys, &oids);
}

fn random_vec<K: SortableKey>(rng: &mut Rng, max_len: usize) -> Vec<K> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| K::from_u64(rng.gen())).collect()
}

#[test]
fn sort_u16_matches_oracle() {
    check("sort_u16_matches_oracle", 64, |rng| {
        let v: Vec<u16> = random_vec(rng, 3000);
        run_sort(v.clone(), false);
        run_sort(v, true);
    });
}

#[test]
fn sort_u32_matches_oracle() {
    check("sort_u32_matches_oracle", 64, |rng| {
        let v: Vec<u32> = random_vec(rng, 3000);
        run_sort(v.clone(), false);
        run_sort(v, true);
    });
}

#[test]
fn sort_u64_matches_oracle() {
    check("sort_u64_matches_oracle", 64, |rng| {
        let v: Vec<u64> = random_vec(rng, 3000);
        run_sort(v.clone(), false);
        run_sort(v, true);
    });
}

/// Low-cardinality keys stress tie handling and padding compaction.
#[test]
fn sort_low_cardinality() {
    check("sort_low_cardinality", 64, |rng| {
        let n = rng.gen_range(0..4000usize);
        let v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4u32)).collect();
        run_sort(v, false);
    });
}

/// Keys including MAX stress the padding sentinel logic.
#[test]
fn sort_with_max_values() {
    check("sort_with_max_values", 64, |rng| {
        let n = rng.gen_range(0..4000usize);
        let v: Vec<u16> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    u16::MAX
                } else {
                    rng.gen()
                }
            })
            .collect();
        run_sort(v, false);
    });
}

#[test]
fn segmented_sort_is_sorted_per_group() {
    check("segmented_sort_is_sorted_per_group", 64, |rng| {
        let n = rng.gen_range(1..2000usize);
        let v: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let cut_count = rng.gen_range(0..20usize);
        let mut offs: Vec<u32> = (0..cut_count)
            .map(|_| rng.gen_range(0..=n) as u32)
            .collect();
        offs.push(0);
        offs.push(n as u32);
        offs.sort_unstable();
        offs.dedup();
        let groups = GroupBounds::from_offsets(offs);
        let mut keys = v.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        let (cfg, mut scratch) = (SortConfig::default(), WorkerScratch::new());
        sort_pairs_in_groups(&mut keys, &mut oids, &groups, 1, &cfg, &mut scratch)
            .expect("the serial path spawns no worker");
        for r in groups.iter() {
            assert!(keys[r].windows(2).all(|w| w[0] <= w[1]));
        }
        for i in 0..n {
            assert_eq!(keys[i], v[oids[i] as usize]);
        }
    });
}

#[test]
fn parallel_matches_serial_order() {
    check("parallel_matches_serial_order", 64, |rng| {
        // Long enough that most cases clear the parallel cutoff, where the
        // one whole-relation group is range-partitioned across the workers.
        let v: Vec<u32> = random_vec(rng, 12_000);
        let cfg = SortConfig::default();
        let mut k1 = v.clone();
        let mut o1: Vec<u32> = (0..v.len() as u32).collect();
        sort_pairs_with(&mut k1, &mut o1, &cfg);
        let mut k2 = v.clone();
        let mut o2: Vec<u32> = (0..v.len() as u32).collect();
        let (whole, mut scratch) = (GroupBounds::whole(v.len()), WorkerScratch::new());
        sort_pairs_in_groups(&mut k2, &mut o2, &whole, 3, &cfg, &mut scratch)
            .expect("no faults armed");
        assert_eq!(k1, k2);
    });
}

#[test]
fn group_boundaries_partition_equal_runs() {
    check("group_boundaries_partition_equal_runs", 64, |rng| {
        let n = rng.gen_range(0..1000usize);
        let mut sorted: Vec<u32> = (0..n).map(|_| rng.gen_range(0..16u32)).collect();
        sorted.sort_unstable();
        let g = group_boundaries(&sorted);
        // Within groups: all equal. Across boundaries: strictly increasing.
        for r in g.iter() {
            if r.len() > 1 {
                assert!(sorted[r.clone()].windows(2).all(|w| w[0] == w[1]));
            }
            if r.end < sorted.len() && r.end > r.start {
                assert!(sorted[r.end - 1] < sorted[r.end]);
            }
        }
        assert_eq!(g.num_rows(), sorted.len());
    });
}
