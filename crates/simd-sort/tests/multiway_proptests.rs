//! Property tests for the out-of-cache loser-tree merge
//! ([`mcs_simd_sort::multiway`]) and the LSD radix fallback
//! ([`mcs_simd_sort::radix`]).
//!
//! The merge is driven across run counts {1, 2, 7, 16} — one run (the
//! copy fast path), a power of two, a count that forces leaf padding,
//! and a full fanout — on duplicate-heavy and pre-sorted inputs. Each
//! case checks the merged output is a sorted permutation of the inputs,
//! i.e. the internal `pop().expect("loser tree drained early")` invariant
//! holds: the tree yields exactly `Σ|run|` items and never drains early.

use core::ops::Range;

use mcs_simd_sort::{
    group_boundaries, multiway_merge, multiway_pass, radix_sort_pairs, CancelToken, Key,
    MergeScratch, SortScratch,
};
use mcs_test_support::{check, Rng};

/// Merge `runs` into `dst` from offset 0, through a fresh scratch.
fn merge<K: Key>(k: &[K], o: &[u32], dk: &mut [K], dlo: &mut [u32], runs: &[Range<usize>]) {
    multiway_merge(
        (k, o),
        (dk, dlo),
        runs,
        0,
        &mut MergeScratch::new(),
        &CancelToken::none(),
    );
}

/// Run counts exercised by every merge property.
const RUN_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// Build `count` adjacent sorted runs of random lengths (some empty) and
/// return (keys, oids, run ranges). `dup_heavy` draws keys from a tiny
/// domain; `pre_sorted` makes the whole buffer globally sorted so every
/// run boundary is a no-op merge.
fn gen_runs(
    rng: &mut Rng,
    count: usize,
    dup_heavy: bool,
    pre_sorted: bool,
) -> (Vec<u32>, Vec<u32>, Vec<Range<usize>>) {
    let mut keys: Vec<u32> = Vec::new();
    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = rng.gen_range(0..200usize);
        let start = keys.len();
        let domain = if dup_heavy { 4u32 } else { 1 << 20 };
        let mut run: Vec<u32> = (0..len).map(|_| rng.gen::<u32>() % domain).collect();
        run.sort_unstable();
        keys.extend_from_slice(&run);
        runs.push(start..keys.len());
    }
    if pre_sorted {
        keys.sort_unstable();
    }
    let oids: Vec<u32> = (0..keys.len() as u32).collect();
    (keys, oids, runs)
}

/// The merged output must be globally sorted and a permutation of the
/// source: every oid appears once and still carries its source key.
fn verify_merge(src_k: &[u32], dst_k: &[u32], dst_o: &[u32]) {
    assert!(dst_k.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
    let mut seen = vec![false; src_k.len()];
    for (i, &o) in dst_o.iter().enumerate() {
        assert_eq!(dst_k[i], src_k[o as usize], "oid {o} carries wrong key");
        assert!(!seen[o as usize], "oid {o} emitted twice");
        seen[o as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "some oid never emitted");
}

fn merge_property(rng: &mut Rng, dup_heavy: bool, pre_sorted: bool) {
    for &count in &RUN_COUNTS {
        let (keys, oids, runs) = gen_runs(rng, count, dup_heavy, pre_sorted);
        let n = keys.len();
        let mut dst_k = vec![0u32; n];
        let mut dst_o = vec![0u32; n];
        merge(&keys, &oids, &mut dst_k, &mut dst_o, &runs);
        verify_merge(&keys, &dst_k, &dst_o);
    }
}

#[test]
fn multiway_merge_random_runs() {
    check("multiway_merge_random_runs", 48, |rng| {
        merge_property(rng, false, false);
    });
}

#[test]
fn multiway_merge_duplicate_heavy() {
    check("multiway_merge_duplicate_heavy", 48, |rng| {
        merge_property(rng, true, false);
    });
}

#[test]
fn multiway_merge_pre_sorted() {
    check("multiway_merge_pre_sorted", 48, |rng| {
        merge_property(rng, false, true);
    });
}

/// Regression for the loser tree's lower-run-index tie-break (see the
/// invariant note on `beats`): callers pass runs in buffer order, so a
/// merge that prefers the lower run index on equal keys is *stable by
/// run* — equal keys drain in run order. `gen_runs` assigns oids as
/// buffer positions, so stability means equal keys carry strictly
/// ascending oids in the output. Duplicate-heavy inputs make ties the
/// common case.
#[test]
fn merge_is_stable_by_run_order() {
    fn assert_run_stable(dst_k: &[u32], dst_o: &[u32]) {
        for i in 1..dst_k.len() {
            if dst_k[i - 1] == dst_k[i] {
                assert!(
                    dst_o[i - 1] < dst_o[i],
                    "equal keys {} drained out of run order: oid {} before {}",
                    dst_k[i],
                    dst_o[i - 1],
                    dst_o[i]
                );
            }
        }
    }
    check("merge_is_stable_by_run_order", 48, |rng| {
        for &count in &RUN_COUNTS {
            let (keys, oids, runs) = gen_runs(rng, count, true, false);
            let n = keys.len();
            let mut dst_k = vec![0u32; n];
            let mut dst_o = vec![0u32; n];
            merge(&keys, &oids, &mut dst_k, &mut dst_o, &runs);
            verify_merge(&keys, &dst_k, &dst_o);
            assert_run_stable(&dst_k, &dst_o);
        }
    });
}

#[test]
fn multiway_merge_all_runs_empty() {
    // Degenerate: every run empty — the tree must report drained
    // immediately instead of panicking.
    for &count in &RUN_COUNTS {
        let runs: Vec<Range<usize>> = (0..count).map(|_| 0..0).collect();
        let mut dst_k: Vec<u32> = Vec::new();
        let mut dst_o: Vec<u32> = Vec::new();
        merge::<u32>(&[], &[], &mut dst_k, &mut dst_o, &runs);
        assert!(dst_k.is_empty());
    }
}

#[test]
fn multiway_pass_matches_full_sort() {
    // Repeated passes over fixed-length runs must converge to a fully
    // sorted buffer, whatever the fanout.
    check("multiway_pass_matches_full_sort", 32, |rng| {
        let n = rng.gen_range(1..3000usize);
        let fanout = *rng.choose(&[2usize, 3, 5, 16]);
        let mut run = rng.gen_range(1..64usize);
        let src: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % (1 << 24)).collect();
        let mut keys = src.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        for chunk in keys.chunks_mut(run) {
            chunk.sort_unstable();
        }
        // Re-derive per-run oids so (key, oid) stays a consistent pair.
        let mut sorted_oids = vec![0u32; n];
        {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            let mut start = 0;
            while start < n {
                let end = (start + run).min(n);
                idx[start..end].sort_unstable_by_key(|&o| src[o as usize]);
                sorted_oids[start..end].copy_from_slice(&idx[start..end]);
                start = end;
            }
        }
        oids.copy_from_slice(&sorted_oids);
        let mut buf_k = vec![0u64; n];
        let mut buf_o = vec![0u32; n];
        let (mut runs_buf, mut scratch) = (Vec::new(), MergeScratch::new());
        let mut in_orig = true;
        while run < n {
            let (src, dst) = if in_orig {
                ((&keys[..], &oids[..]), (&mut buf_k[..], &mut buf_o[..]))
            } else {
                ((&buf_k[..], &buf_o[..]), (&mut keys[..], &mut oids[..]))
            };
            let none = CancelToken::none();
            run = multiway_pass(src, dst, run, fanout, &mut runs_buf, &mut scratch, &none);
            in_orig = !in_orig;
        }
        let (fk, fo) = if in_orig {
            (&keys, &oids)
        } else {
            (&buf_k, &buf_o)
        };
        verify_merge_u64(&src, fk, fo);
    });
}

fn verify_merge_u64(src_k: &[u64], dst_k: &[u64], dst_o: &[u32]) {
    assert!(dst_k.windows(2).all(|w| w[0] <= w[1]));
    let mut seen = vec![false; src_k.len()];
    for (i, &o) in dst_o.iter().enumerate() {
        assert_eq!(dst_k[i], src_k[o as usize]);
        assert!(!seen[o as usize]);
        seen[o as usize] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn radix_matches_oracle() {
    check("radix_matches_oracle", 48, |rng| {
        let n = rng.gen_range(0..4000usize);
        let width = rng.gen_range(1..=24u32);
        let dup_heavy = rng.gen_bool(0.5);
        let domain = if dup_heavy { 3u64 } else { 1u64 << width };
        let src: Vec<u32> = (0..n)
            .map(|_| (rng.gen::<u64>() % domain.min(1u64 << width)) as u32)
            .collect();
        let mut keys = src.clone();
        if rng.gen_bool(0.25) {
            keys.sort_unstable(); // pre-sorted input
        }
        let orig = keys.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        radix_sort_pairs(
            &mut keys,
            &mut oids,
            &mut SortScratch::new(),
            &CancelToken::none(),
        );
        verify_merge(&orig, &keys, &oids);
    });
}

#[test]
fn radix_in_groups_matches_oracle() {
    check("radix_in_groups_matches_oracle", 32, |rng| {
        let n = rng.gen_range(1..3000usize);
        // Group keys with few distinct values yield realistic segment
        // shapes (some singleton, some large).
        let group_key: Vec<u32> = {
            let mut g: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 8).collect();
            g.sort_unstable();
            g
        };
        let groups = group_boundaries(&group_key);
        let src: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() & 0xFFFF).collect();
        let mut keys = src.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        // One scratch serves every group, whatever order their lengths
        // come in.
        let mut scratch = SortScratch::new();
        for r in groups.iter() {
            let (k, o) = (&mut keys[r.clone()], &mut oids[r]);
            radix_sort_pairs(k, o, &mut scratch, &CancelToken::none());
        }
        // Each group individually sorted, oids a permutation overall.
        for r in groups.iter() {
            assert!(keys[r].windows(2).all(|w| w[0] <= w[1]));
        }
        let mut seen = vec![false; n];
        for (i, &o) in oids.iter().enumerate() {
            assert_eq!(keys[i], src[o as usize]);
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
    });
}
