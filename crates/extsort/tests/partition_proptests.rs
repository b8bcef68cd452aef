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
//!
//! The same shapes sort random row lists — ascending, as a filter
//! produces them, and shuffled — through
//! [`mcs_extsort::budgeted_sort_rows`] at the same budgets, byte-identical
//! to gathering the key columns by the list, sorting the copy in memory
//! and composing its positions back through the list.

use mcs_columnar::CodeVec;
use mcs_core::{
    lease_footprint_bytes, multi_column_sort_with, ExecArena, ExecConfig, MassagePlan, SortConfig,
    SortKernel, SortSpec,
};
use mcs_extsort::{
    budgeted_sort_rows, chunk_rows_for_budget, external_multi_column_sort_with, SpillStats,
};
use mcs_test_support::{check, gen_row_list, Rng};

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

/// The budgets every case sweeps for a sort of `n` rows: one byte short
/// of the in-memory footprint, fractions of it, two rows, one row, one
/// byte.
fn budgets(plan: &MassagePlan, n: usize, cfg: &ExecConfig) -> [usize; 6] {
    let footprint = lease_footprint_bytes(plan, n, cfg);
    // The per-row cost `chunk_rows_for_budget` divides by.
    let one_row = lease_footprint_bytes(plan, 4096, cfg).div_ceil(4096);
    [
        footprint - 1,
        footprint / 3,
        footprint / 16,
        2 * one_row,
        one_row,
        1,
    ]
}

/// Each kernel × threads 1, 2 × final groups on and off.
fn configs() -> impl Iterator<Item = ExecConfig> {
    [SortKernel::Auto, SortKernel::MergeSort]
        .into_iter()
        .flat_map(|kernel| [1, 2].map(move |threads| (kernel, threads)))
        .flat_map(|(kernel, threads)| {
            [true, false].map(move |want_final_groups| ExecConfig {
                sort: SortConfig {
                    kernel,
                    ..SortConfig::default()
                },
                threads,
                want_final_groups,
                ..ExecConfig::default()
            })
        })
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

        for cfg in configs() {
            let want = multi_column_sort_with(&refs, &specs, &plan, &cfg, &mut ExecArena::new())
                .expect("in-memory sort");
            let footprint = lease_footprint_bytes(&plan, n, &cfg);
            for budget in budgets(&plan, n, &cfg) {
                let label = format!(
                    "{shape} n={n} specs={specs:?} plan={} {:?} t{} groups={} budget={budget}",
                    plan.notation(),
                    cfg.sort.kernel,
                    cfg.threads,
                    cfg.want_final_groups
                );
                let mut arena = ExecArena::new();
                let (got, spill) =
                    external_multi_column_sort_with(&refs, &specs, &plan, &cfg, &mut arena, budget)
                        .expect("budgeted sort");
                assert_eq!(got.oids, want.oids, "{label}: oids");
                if cfg.want_final_groups {
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
    });
}

#[test]
fn budgeted_row_lists_match_gather_then_sort() {
    check("budgeted_row_lists_match_gather_then_sort", 24, |rng| {
        let n = rng.gen_range(0..400usize);
        let (shape, values, specs) = gen_shape(rng, n);
        let cols: Vec<CodeVec> = values
            .iter()
            .zip(&specs)
            .map(|(v, s)| CodeVec::from_u64s(s.width, v.iter().copied()))
            .collect();
        let refs: Vec<&CodeVec> = cols.iter().collect();
        let plan = gen_plan(rng, &specs);

        for shuffled in [false, true] {
            let rows = gen_row_list(rng, n, shuffled);
            let m = rows.len();
            let gathered: Vec<CodeVec> = cols.iter().map(|c| c.gather(&rows)).collect();
            let gathered: Vec<&CodeVec> = gathered.iter().collect();
            for cfg in configs() {
                let local =
                    multi_column_sort_with(&gathered, &specs, &plan, &cfg, &mut ExecArena::new())
                        .expect("sort of the gathered copy");
                let want: Vec<u32> = local.oids.iter().map(|&p| rows[p as usize]).collect();
                for budget in budgets(&plan, m, &cfg) {
                    let label = format!(
                        "{shape} n={n} m={m} shuffled={shuffled} specs={specs:?} plan={} {:?} \
                         t{} groups={} budget={budget}",
                        plan.notation(),
                        cfg.sort.kernel,
                        cfg.threads,
                        cfg.want_final_groups
                    );
                    let budgeted = ExecConfig {
                        memory_budget_bytes: Some(budget),
                        ..cfg.clone()
                    };
                    let (got, spill) = budgeted_sort_rows(
                        &refs,
                        Some(&rows),
                        &specs,
                        &plan,
                        &budgeted,
                        &mut ExecArena::new(),
                    )
                    .expect("budgeted sort of the row list");
                    assert_eq!(got.oids, want, "{label}: oids");
                    if cfg.want_final_groups {
                        assert_eq!(got.groups.offsets, local.groups.offsets, "{label}: groups");
                    } else if spill.runs > 0 {
                        assert_eq!(got.groups.offsets, vec![0, m as u32], "{label}: groups");
                    } else {
                        assert_eq!(got.groups.offsets, local.groups.offsets, "{label}: groups");
                    }
                    if m > 0 && lease_footprint_bytes(&plan, m, &cfg) > budget {
                        assert!(spill.runs > 0, "{label}: over budget, yet no bucket");
                    }
                }
            }
        }
    });
}

#[test]
fn unbounded_budgets_sort_row_lists_in_memory() {
    // No budget and an unbounded one take the in-memory door, over all
    // rows and over a list whose tied rows 3 and 1 keep its order.
    let c0 = CodeVec::from_u64s(10, [3u64, 1, 2, 1]);
    let sp = [SortSpec::asc(10)];
    let plan = MassagePlan::column_at_a_time(&sp);
    let list: &[u32] = &[3, 2, 1, 0];
    for budget in [None, Some(usize::MAX)] {
        let cfg = ExecConfig {
            memory_budget_bytes: budget,
            ..ExecConfig::default()
        };
        for (rows, want) in [(None, [1, 3, 2, 0]), (Some(list), [3, 1, 2, 0])] {
            let mut arena = ExecArena::new();
            let (out, spill) = budgeted_sort_rows(&[&c0], rows, &sp, &plan, &cfg, &mut arena)
                .expect("valid inputs");
            assert_eq!(spill, SpillStats::default(), "{budget:?} {rows:?}");
            assert_eq!(out.oids, want, "{budget:?} {rows:?}");
        }
    }
}
