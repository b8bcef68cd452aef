//! Property tests for the budgeted sort's range partition
//! ([`mcs_extsort::external_multi_column_sort_with`]).
//!
//! Under every budget from one byte short of the in-memory footprint
//! down to a single row, the budgeted sort must return exactly what
//! [`mcs_core::multi_column_sort_with`] returns: the same oids, and the
//! same group offsets when final groups are requested (the trivial
//! single group when they are not). The shapes aim at the partition's
//! edges: one top digit holding > 90 % of the rows (so a digit
//! recurses), all-equal keys (so digits run out and a whole range is one
//! tie group), keys wider than 64 bits, runs of 1- and 3-bit columns (so
//! one digit spans several columns), and DESC columns throughout. Each
//! runs under both kernels, at one and two threads.
//!
//! Where the footprint model says a bucket fits the budget, the arena's
//! byte peak must also stay within `tests/memory_budget.rs`'s bound.

use mcs_columnar::CodeVec;
use mcs_core::{
    lease_footprint_bytes, multi_column_sort_with, ExecArena, ExecConfig, MassagePlan, SortConfig,
    SortKernel, SortSpec,
};
use mcs_extsort::{chunk_rows_for_budget, external_multi_column_sort_with};
use mcs_test_support::{check, Rng};

/// `tests/memory_budget.rs`'s allowed arena peak: 1.5 × budget + 4 KiB.
fn peak_bound(budget: usize) -> usize {
    budget * 3 / 2 + 4096
}

/// A random key shape of one of five kinds, with random directions.
/// Returns the columns (values) and their specs.
fn gen_shape(rng: &mut Rng, n: usize) -> (&'static str, Vec<Vec<u64>>, Vec<SortSpec>) {
    let kind = rng.gen_range(0..5u32);
    let widths: Vec<u32> = match kind {
        // Skewed: the 12-bit lead column's top byte is 0 for > 90 % of
        // the rows.
        0 => vec![12, rng.gen_range(1..20)],
        // All-equal keys.
        1 => vec![rng.gen_range(1..30), rng.gen_range(1..30)],
        // Wider than 64 bits.
        2 => vec![rng.gen_range(30..65), rng.gen_range(30..65)],
        // Runs of narrow columns, so digits span columns.
        3 => (0..rng.gen_range(3..9usize))
            .map(|_| *rng.choose(&[1u32, 3]))
            .collect(),
        // Mixed widths, dup-heavy.
        _ => (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(1..40u32))
            .collect(),
    };
    let specs: Vec<SortSpec> = widths
        .iter()
        .map(|&width| SortSpec {
            width,
            descending: rng.gen_bool(0.5),
        })
        .collect();
    let cols = widths
        .iter()
        .enumerate()
        .map(|(c, &w)| {
            let max = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            (0..n)
                .map(|_| match kind {
                    0 if c == 0 && rng.gen_bool(0.93) => rng.gen_range(0..16),
                    1 => max / 3,
                    // A small domain so ties survive every byte.
                    4 => rng.gen_range(0..4u64).min(max),
                    _ => rng.gen_range(0..=max),
                })
                .collect()
        })
        .collect();
    let name = ["skewed", "all_equal", "wide", "narrow", "mixed"][kind as usize];
    (name, cols, specs)
}

/// The column-at-a-time plan, or one round per ≤ 64-bit slice of the key
/// cut at random points (a massaged plan).
fn gen_plan(rng: &mut Rng, specs: &[SortSpec]) -> MassagePlan {
    if rng.gen_bool(0.5) {
        return MassagePlan::column_at_a_time(specs);
    }
    let mut left: u32 = specs.iter().map(|s| s.width).sum();
    let mut widths = Vec::new();
    while left > 0 {
        let w = rng.gen_range(1..=left.min(64));
        widths.push(w);
        left -= w;
    }
    MassagePlan::from_widths(&widths)
}

#[test]
fn budgeted_sort_is_byte_identical_to_the_in_memory_sort() {
    check("budgeted_sort_is_byte_identical", 24, |rng| {
        let n = rng.gen_range(0..400usize);
        let (shape, values, specs) = gen_shape(rng, n);
        let cols: Vec<CodeVec> = values
            .iter()
            .zip(&specs)
            .map(|(v, s)| CodeVec::from_u64s(s.width, v.iter().copied()))
            .collect();
        let refs: Vec<&CodeVec> = cols.iter().collect();
        let plan = gen_plan(rng, &specs);

        for kernel in [SortKernel::Auto, SortKernel::MergeSort] {
            for threads in [1, 2] {
                for want_final_groups in [true, false] {
                    let cfg = ExecConfig {
                        sort: SortConfig {
                            kernel,
                            ..SortConfig::default()
                        },
                        threads,
                        want_final_groups,
                        ..ExecConfig::default()
                    };
                    let want =
                        multi_column_sort_with(&refs, &specs, &plan, &cfg, &mut ExecArena::new())
                            .expect("in-memory sort");
                    let footprint = lease_footprint_bytes(&plan, n, &cfg);
                    // The per-row cost `chunk_rows_for_budget` divides by.
                    let one_row = lease_footprint_bytes(&plan, 4096, &cfg).div_ceil(4096);
                    for budget in [
                        footprint - 1,
                        footprint / 3,
                        footprint / 16,
                        2 * one_row,
                        one_row,
                        1,
                    ] {
                        let label = format!(
                            "{shape} n={n} specs={specs:?} plan={} {kernel:?} t{threads} \
                             groups={want_final_groups} budget={budget}",
                            plan.notation()
                        );
                        let mut arena = ExecArena::new();
                        let (got, spill) = external_multi_column_sort_with(
                            &refs, &specs, &plan, &cfg, &mut arena, budget,
                        )
                        .expect("budgeted sort");
                        assert_eq!(got.oids, want.oids, "{label}: oids");
                        if want_final_groups {
                            assert_eq!(got.groups.offsets, want.groups.offsets, "{label}: groups");
                        } else {
                            assert_eq!(got.groups.offsets, vec![0, n as u32], "{label}: groups");
                        }
                        assert_eq!((spill.bytes, spill.merge_comparisons), (0, 0), "{label}");
                        assert!(spill.runs as usize <= n, "{label}: {} buckets", spill.runs);
                        if n > 0 && footprint > budget {
                            assert!(spill.runs > 0, "{label}: over budget, yet no bucket");
                        }

                        let bucket_rows = chunk_rows_for_budget(&plan, &cfg, budget);
                        if lease_footprint_bytes(&plan, bucket_rows, &cfg) <= budget {
                            let peak = arena.stats().bytes_peak as usize;
                            assert!(
                                peak <= peak_bound(budget),
                                "{label}: arena peak {peak} over the bound {}",
                                peak_bound(budget)
                            );
                        }
                    }
                }
            }
        }
    });
}
