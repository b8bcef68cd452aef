//! Invariants linking the executor's telemetry to the quantities the
//! paper's cost model reasons about (`N_sort`, `N_group`, `N̄_code`).

use mcs_columnar::CodeVec;
use mcs_core::{
    multi_column_sort, ExecArena, ExecConfig, MassagePlan, MultiColumnSortOutput, SortSpec,
};

/// The sort of every row, on a fresh arena.
fn sort(inputs: &[&CodeVec], specs: &[SortSpec], plan: &MassagePlan) -> MultiColumnSortOutput {
    let cfg = ExecConfig::default();
    multi_column_sort(inputs, None, specs, plan, &cfg, &mut ExecArena::new()).expect("valid sort")
}

fn cols(n: usize, w1: u32, w2: u32, ndv1: u64, ndv2: u64) -> (CodeVec, CodeVec) {
    let mut s = 0xACEu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let a = CodeVec::from_u64s(w1, (0..n).map(|_| next() % ndv1));
    let b = CodeVec::from_u64s(w2, (0..n).map(|_| next() % ndv2));
    (a, b)
}

#[test]
fn round2_invocations_counted_like_the_model() {
    // N_sort (round 2 invocations) == number of round-1 groups with >= 2
    // rows; codes_sorted == rows in those groups.
    let n = 20_000usize;
    let (a, b) = cols(n, 10, 17, 300, 100_000);
    let inputs = vec![&a, &b];
    let specs = vec![SortSpec::asc(10), SortSpec::asc(17)];
    let p0 = MassagePlan::column_at_a_time(&specs);
    let out = sort(&inputs, &specs, &p0);

    let r1 = &out.stats.rounds[0];
    let r2 = &out.stats.rounds[1];
    assert_eq!(r1.groups_in, 1);
    assert!(r1.groups_out <= 300);
    assert_eq!(r2.groups_in, r1.groups_out);

    // Recompute the round-1 grouping by hand and cross-check N_sort.
    let mut first: Vec<u64> = out.oids.iter().map(|&o| a.get(o as usize)).collect();
    first.dedup();
    assert_eq!(first.len(), r1.groups_out);

    let mut counts = std::collections::HashMap::new();
    for i in 0..n {
        *counts.entry(a.get(i)).or_insert(0usize) += 1;
    }
    let n_sort: usize = counts.values().filter(|&&c| c >= 2).count();
    let codes: usize = counts.values().filter(|&&c| c >= 2).sum();
    assert_eq!(r2.invocations, n_sort);
    assert_eq!(r2.codes_sorted, codes);
}

#[test]
fn more_first_round_bits_never_decrease_groups() {
    // The Figure 4b relationship: shifting bits left (wider round 1)
    // monotonically increases N_group after round 1.
    let n = 30_000usize;
    let (a, b) = cols(n, 17, 33, 8000, 8000);
    let inputs = vec![&a, &b];
    let specs = vec![SortSpec::asc(17), SortSpec::asc(33)];
    let mut prev_groups = 0usize;
    for shift in 0..=8u32 {
        let plan = MassagePlan::from_widths(&[17 + shift, 33 - shift]);
        let out = sort(&inputs, &specs, &plan);
        let g = out.stats.rounds[0].groups_out;
        assert!(
            g >= prev_groups,
            "shift {shift}: groups {g} < previous {prev_groups}"
        );
        prev_groups = g;
        // Final grouping identical across plans (Lemma 1).
        assert_eq!(out.groups.num_rows(), n);
    }
}

#[test]
fn singleton_groups_skip_sorting() {
    // A unique first column: round 2 must perform zero sort invocations.
    let n = 4096usize;
    let a = CodeVec::from_u64s(13, (0..n).map(|i| i as u64));
    let b = CodeVec::from_u64s(17, (0..n).map(|i| (i as u64 * 31) % 1000));
    let inputs = vec![&a, &b];
    let specs = vec![SortSpec::asc(13), SortSpec::asc(17)];
    let p0 = MassagePlan::column_at_a_time(&specs);
    let out = sort(&inputs, &specs, &p0);
    assert_eq!(out.stats.rounds[1].invocations, 0);
    assert_eq!(out.stats.rounds[1].codes_sorted, 0);
    assert_eq!(out.groups.num_groups(), n);
}
