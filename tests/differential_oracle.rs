//! The cross-crate differential oracle harness.
//!
//! Drives the full pipeline — massage → lookup → segmented SIMD sort →
//! boundary scan → window rank / aggregates — and checks every output
//! against the naive scalar reference in `mcs-test-support`, which
//! shares no code with the engine.
//!
//! Coverage is enforced, not hoped for: the axis matrix test records a
//! cell for every (plan shape × SIMD bank × thread count × direction
//! mix × fresh/arena buffers × budget × sort kernel) it actually executed
//! and then asserts the full cross product is present, so dropping any
//! axis from the driver loop fails the test. The buffer axis rides inside
//! `run_and_check`: every problem runs on fresh buffers *and* on a
//! shared, reused arena, and the two outputs must be byte-identical.

use std::cell::RefCell;
use std::collections::BTreeSet;

use mcs_columnar::CodeVec;
use mcs_core::{
    multi_column_sort, Bank, ExecArena, ExecConfig, MassagePlan, MultiColumnSortOutput as Output,
    Round, SortConfig, SortKernel, SortSpec,
};
use mcs_engine::rank_over;
use mcs_test_support::{
    check, degenerate_problems, gen_problem, gen_row_list, random_specs, reference_aggregates,
    reference_rank, reference_sort, Dist, Reference, Rng, SortProblem,
};

/// The four plan shapes of §4: column-at-a-time (identity), merged
/// columns (stitch), a round boundary inside a column (borrow), and a
/// column cut across rounds (split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shape {
    Identity,
    Stitch,
    Borrow,
    Split,
}

const SHAPES: [Shape; 4] = [Shape::Identity, Shape::Stitch, Shape::Borrow, Shape::Split];

/// Round widths realizing `shape` over columns of `widths`, or `None`
/// when the shape is not expressible (e.g. stitching a single column).
fn shape_widths(shape: Shape, widths: &[u32]) -> Option<Vec<u32>> {
    match shape {
        Shape::Identity => Some(widths.to_vec()),
        Shape::Stitch => {
            let mut out: Vec<u32> = Vec::new();
            for &w in widths {
                match out.last_mut() {
                    Some(last) if *last + w <= 64 => *last += w,
                    _ => out.push(w),
                }
            }
            (out != widths).then_some(out)
        }
        Shape::Borrow => {
            let i = (0..widths.len().saturating_sub(1))
                .find(|&i| widths[i] < 64 && widths[i + 1] >= 2)?;
            let mut out = widths.to_vec();
            out[i] += 1;
            out[i + 1] -= 1;
            Some(out)
        }
        Shape::Split => {
            let (j, &w) = widths.iter().enumerate().max_by_key(|(_, &w)| w)?;
            if w < 2 {
                return None;
            }
            let mut out = widths.to_vec();
            out[j] = w.div_ceil(2);
            out.insert(j + 1, w / 2);
            Some(out)
        }
    }
}

/// A plan running *every* round in `bank`, or `None` if some round does
/// not fit (the executor accepts any bank that holds the round width).
fn plan_in_bank(round_widths: &[u32], bank: Bank) -> Option<MassagePlan> {
    round_widths.iter().all(|&w| bank.holds(w)).then(|| {
        MassagePlan::new(
            round_widths
                .iter()
                .map(|&width| Round { width, bank })
                .collect(),
        )
    })
}

fn code_vecs(p: &SortProblem) -> Vec<CodeVec> {
    p.columns
        .iter()
        .zip(&p.widths)
        .map(|(c, &w)| CodeVec::from_u64s(w, c.iter().copied()))
        .collect()
}

fn sort_specs(p: &SortProblem) -> Vec<SortSpec> {
    p.widths
        .iter()
        .zip(&p.descending)
        .map(|(&width, &descending)| SortSpec { width, descending })
        .collect()
}

/// The sort of every row, on a fresh arena.
fn sort(refs: &[&CodeVec], specs: &[SortSpec], plan: &MassagePlan, cfg: &ExecConfig) -> Output {
    multi_column_sort(refs, None, specs, plan, cfg, &mut ExecArena::new()).expect("valid sort")
}

/// Both sort families: the size-driven dispatch and the SIMD merge-sort.
const KERNELS: [SortKernel; 2] = [SortKernel::Auto, SortKernel::MergeSort];

/// Run the full pipeline for `p` under `plan`/`threads` with each sort
/// kernel and check the oid order, group bounds, per-group membership,
/// window ranks, and per-group aggregates against the scalar reference.
fn run_and_check(
    label: &str,
    p: &SortProblem,
    reference: &Reference,
    plan: &MassagePlan,
    threads: usize,
) {
    for kernel in KERNELS {
        run_and_check_kernel(
            &format!("{label}/{kernel:?}"),
            p,
            reference,
            plan,
            threads,
            kernel,
        );
    }
}

fn run_and_check_kernel(
    label: &str,
    p: &SortProblem,
    reference: &Reference,
    plan: &MassagePlan,
    threads: usize,
    kernel: SortKernel,
) {
    let cols = code_vecs(p);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let specs = sort_specs(p);
    let cfg = ExecConfig {
        sort: SortConfig {
            kernel,
            ..SortConfig::default()
        },
        threads,
        want_final_groups: true,
        ..ExecConfig::default()
    };
    let out = sort(&refs, &specs, plan, &cfg);
    mcs_test_support::assert_matches_reference(
        label,
        p,
        reference,
        &out.oids,
        Some(&out.groups.offsets),
    );

    // The arena path must be byte-identical to the fresh-buffer path.
    // One arena is shared across every problem this thread checks, so
    // buffers arrive polluted by prior plans, sizes, and banks — exactly
    // the reuse pattern a session produces.
    thread_local! {
        static ARENA: RefCell<ExecArena> = RefCell::new(ExecArena::new());
    }
    let on_arena = |cfg: &ExecConfig| {
        ARENA.with(|a| multi_column_sort(&refs, None, &specs, plan, cfg, &mut a.borrow_mut()))
    };
    let arena_out = on_arena(&cfg).expect("valid sort instance (arena path)");
    assert_eq!(arena_out.oids, out.oids, "[{label}] arena path oids");
    assert_eq!(
        arena_out.groups.offsets, out.groups.offsets,
        "[{label}] arena path group bounds"
    );

    // Cancel-then-retry axis: a run abandoned by a fired token on the
    // same shared arena must fail with the typed cancellation error and
    // leave the arena reusable — the immediate retry on that arena has
    // to stay byte-identical to the fresh-buffer output.
    let cancelled_cfg = {
        let mut c = cfg.clone();
        c.sort.cancel = mcs_core::CancelToken::new();
        c.sort.cancel.cancel();
        c
    };
    let err = on_arena(&cancelled_cfg).expect_err("a fired token must cancel the sort");
    assert!(
        matches!(err, mcs_core::SortError::Cancelled(_)),
        "[{label}] wrong cancellation error: {err:?}"
    );
    let retry = on_arena(&cfg).expect("retry after a cancelled run");
    assert_eq!(retry.oids, out.oids, "[{label}] cancel-then-retry oids");
    assert_eq!(
        retry.groups.offsets, out.groups.offsets,
        "[{label}] cancel-then-retry group bounds"
    );

    // Spill axis: the same problem under memory budgets of 1/4 and 1/16
    // of the sort's in-memory footprint runs the budgeted path (range-
    // partition the oids, sort each bucket in memory) and must be
    // byte-identical to the in-memory output — oids *and* group bounds.
    // Tiny inputs whose footprint still fits the budget delegate
    // in-memory, which is exactly the production dispatch and equally
    // checked.
    let footprint = mcs_core::lease_footprint_bytes(plan, p.num_rows(), &cfg);
    for div in [4usize, 16] {
        let budgeted = ExecConfig {
            memory_budget_bytes: Some((footprint / div).max(1)),
            ..cfg.clone()
        };
        let spilled = on_arena(&budgeted).expect("valid sort instance (budgeted path)");
        assert_eq!(
            spilled.oids, out.oids,
            "[{label}] spill(1/{div}) changed the oid order"
        );
        assert_eq!(
            spilled.groups.offsets, out.groups.offsets,
            "[{label}] spill(1/{div}) changed the group bounds"
        );
    }

    // Aggregates over the first column's raw codes, per final tie group.
    let want_agg = reference_aggregates(reference, &p.columns[0]);
    let got_counts: Vec<u64> = out.groups.iter().map(|g| g.len() as u64).collect();
    let got_sums: Vec<u64> = out
        .groups
        .iter()
        .map(|g| {
            g.clone()
                .map(|pos| p.columns[0][out.oids[pos] as usize])
                .fold(0u64, u64::wrapping_add)
        })
        .collect();
    assert_eq!(got_counts, want_agg.counts, "[{label}] group counts");
    assert_eq!(got_sums, want_agg.sums, "[{label}] group sums");

    // RANK() OVER (PARTITION BY col0 ORDER BY col1..): partitions are
    // the tie runs on the first column of the sorted output. The engine
    // ranks from the sort's final tie groups; the reference counts
    // strictly smaller window keys, the direction-adjusted concatenation
    // of the other columns, which needs them to fit u64.
    let window_width: u32 = p.widths[1..].iter().sum();
    if p.num_cols() >= 2 && window_width <= 64 {
        let n = p.num_rows();
        let mut partition_offsets = vec![0u32];
        for pos in 1..n {
            let (a, b) = (out.oids[pos - 1] as usize, out.oids[pos] as usize);
            if p.adjusted(0, a) != p.adjusted(0, b) {
                partition_offsets.push(pos as u32);
            }
        }
        partition_offsets.push(n as u32);
        let window_keys: Vec<u64> = out
            .oids
            .iter()
            .map(|&o| {
                p.widths[1..]
                    .iter()
                    .enumerate()
                    .fold(0u64, |k, (i, &w)| (k << w) | p.adjusted(i + 1, o as usize))
            })
            .collect();
        let parts = mcs_core::GroupBounds::from_offsets(partition_offsets.clone());
        let got_ranks = rank_over(&parts, &out.groups);
        let want_ranks = reference_rank(&partition_offsets, &window_keys);
        assert_eq!(got_ranks, want_ranks, "[{label}] window ranks");
    }
}

/// The enforced axis matrix: every plan shape × every SIMD bank ×
/// threads ∈ {1, 4} × ascending-only and mixed-direction keys, each
/// under two value distributions.
#[test]
fn full_axis_matrix_against_reference() {
    // Column widths per bank, chosen so every shape's rounds fit the
    // bank: e.g. stitching [13, 12] gives a 25-bit round (B32-only),
    // splitting [40, 20] gives 20-bit rounds that still *run* in B64.
    let widths_for = |bank: Bank| -> Vec<u32> {
        match bank {
            Bank::B16 => vec![7, 6],
            Bank::B32 => vec![13, 12],
            Bank::B64 => vec![40, 20],
        }
    };

    let mut rng = Rng::seed_from_u64(0xD1FF_0AC1E_u64);
    let mut covered: BTreeSet<(Shape, u32, usize, bool, bool, usize, String)> = BTreeSet::new();
    // Cell key: (shape, bank bits, threads, mixed, arena, budget divisor,
    // kernel).

    for bank in Bank::ALL {
        for shape in SHAPES {
            let widths = widths_for(bank);
            let round_widths = shape_widths(shape, &widths)
                .unwrap_or_else(|| panic!("{shape:?} not expressible over {widths:?}"));
            let plan = plan_in_bank(&round_widths, bank)
                .unwrap_or_else(|| panic!("{shape:?}/{bank:?} rounds {round_widths:?} overflow"));
            for threads in [1usize, 4] {
                for mixed in [false, true] {
                    for dist in [Dist::Uniform, Dist::DupHeavy] {
                        let specs: Vec<_> = widths
                            .iter()
                            .enumerate()
                            .map(|(i, &width)| mcs_test_support::ColumnSpec {
                                width,
                                descending: mixed && i % 2 == 1,
                            })
                            .collect();
                        let p = gen_problem(&mut rng, 400, &specs, dist);
                        let reference = reference_sort(&p);
                        let label = format!(
                            "{shape:?}/{bank:?}/t{threads}/{}/{dist:?}",
                            if mixed { "mixed" } else { "asc" }
                        );
                        run_and_check(&label, &p, &reference, &plan, threads);
                        // run_and_check executes every `KERNELS` entry,
                        // each on fresh buffers and on the shared arena,
                        // and the sort in memory (divisor 0) and under
                        // footprint/4 and footprint/16 budgets; every
                        // cell is covered.
                        for kernel in KERNELS {
                            for arena in [false, true] {
                                for budget_div in [0usize, 4, 16] {
                                    covered.insert((
                                        shape,
                                        bank.bits(),
                                        threads,
                                        mixed,
                                        arena,
                                        budget_div,
                                        format!("{kernel:?}"),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // The coverage contract, spelled out with its own literals so that
    // dropping an axis from the driver loops above fails here.
    for shape in [Shape::Identity, Shape::Stitch, Shape::Borrow, Shape::Split] {
        for bank_bits in [16u32, 32, 64] {
            for threads in [1usize, 4] {
                for mixed in [false, true] {
                    for arena in [false, true] {
                        for budget_div in [0usize, 4, 16] {
                            for kernel in ["Auto", "MergeSort"] {
                                assert!(
                                    covered.contains(&(shape, bank_bits, threads, mixed, arena, budget_div, kernel.to_string())),
                                    "axis cell dropped: {shape:?} x B{bank_bits} x {threads} threads x mixed={mixed} x arena={arena} x budget 1/{budget_div} x kernel {kernel}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(covered.len(), 4 * 3 * 2 * 2 * 2 * 3 * 2);
}

/// Randomized sweep: arbitrary column sets (totals past 64 bits force
/// multi-round plans), all seven value distributions, every expressible
/// shape, random thread counts.
#[test]
fn random_problems_every_shape_and_distribution() {
    check("random_problems_every_shape_and_distribution", 48, |rng| {
        let specs = random_specs(rng, 4, 90);
        let n = rng.gen_range(0..500usize);
        let dist = *rng.choose(&Dist::ALL);
        let p = gen_problem(rng, n, &specs, dist);
        let reference = reference_sort(&p);
        let widths = p.widths.clone();
        for shape in SHAPES {
            let Some(round_widths) = shape_widths(shape, &widths) else {
                continue;
            };
            let plan = MassagePlan::from_widths(&round_widths);
            let threads = *rng.choose(&[1usize, 4]);
            let label = format!("random/{shape:?}/t{threads}/{dist:?}/n{n}");
            run_and_check(&label, &p, &reference, &plan, threads);
        }
    });
}

/// The row-subset axis: sorting a row list where it lies
/// (`multi_column_sort` with a row list) must return exactly what
/// gathering the key
/// columns by the list, sorting the copy and composing its positions
/// back through the list returns — oids and group offsets, byte for
/// byte. Lists are ascending (as a filter produces them) and shuffled;
/// every case runs every expressible plan shape under both kernels, at
/// threads 1 and 2, with and without final groups.
#[test]
fn row_subsets_match_gather_then_sort() {
    check("row_subsets_match_gather_then_sort", 24, |rng| {
        let specs = random_specs(rng, 4, 90);
        // Now and then past the parallel cutoff, so that two threads
        // split the massage, the lookups and the sort.
        let n = if rng.gen_bool(0.2) {
            rng.gen_range(8_000..12_000usize)
        } else {
            rng.gen_range(0..500usize)
        };
        let dist = *rng.choose(&Dist::ALL);
        let p = gen_problem(rng, n, &specs, dist);
        let cols = code_vecs(&p);
        let refs: Vec<&CodeVec> = cols.iter().collect();
        let sort_specs = sort_specs(&p);
        for shuffled in [false, true] {
            let rows = gen_row_list(rng, n, shuffled);
            let gathered: Vec<CodeVec> = cols.iter().map(|c| c.gather(&rows)).collect();
            let gathered: Vec<&CodeVec> = gathered.iter().collect();
            for shape in SHAPES {
                let Some(round_widths) = shape_widths(shape, &p.widths) else {
                    continue;
                };
                let plan = MassagePlan::from_widths(&round_widths);
                for kernel in KERNELS {
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
                            let label = format!(
                                "rows/{shape:?}/{kernel:?}/t{threads}/groups={want_final_groups}/\
                                 shuffled={shuffled}/{dist:?}/n{n}/m{}",
                                rows.len()
                            );
                            let local = multi_column_sort(
                                &gathered,
                                None,
                                &sort_specs,
                                &plan,
                                &cfg,
                                &mut ExecArena::new(),
                            )
                            .expect("sort of the gathered copy");
                            let want: Vec<u32> =
                                local.oids.iter().map(|&p| rows[p as usize]).collect();
                            let got = multi_column_sort(
                                &refs,
                                Some(&rows),
                                &sort_specs,
                                &plan,
                                &cfg,
                                &mut ExecArena::new(),
                            )
                            .expect("sort through the row list");
                            assert_eq!(got.oids, want, "[{label}] oids");
                            assert_eq!(
                                got.groups.offsets, local.groups.offsets,
                                "[{label}] group bounds"
                            );
                        }
                    }
                }
            }
        }
    });
}

/// The SELECT axis: the key columns a sort decodes from its sorted
/// round keys ([`ExecConfig::want_keys`]) must equal the base columns
/// read through the output oids, byte for byte, and naming columns must
/// change neither the oids nor the groups. Every case runs every
/// expressible plan shape under both kernels, at threads 1, 2 and 4,
/// over every row, an ascending and a shuffled row list, with and
/// without final groups, in memory and under a binding budget (the
/// budgeted sort decodes bucket by bucket into its range of the result).
#[test]
fn decoded_key_columns_match_the_columns_read_through_the_oids() {
    check(
        "decoded_key_columns_match_the_columns_read_through_the_oids",
        16,
        |rng| {
            let specs = random_specs(rng, 4, 90);
            // Now and then past the parallel cutoff, so that the sort
            // splits its phases across workers.
            let n = if rng.gen_bool(0.1) {
                rng.gen_range(5_000..8_000usize)
            } else {
                rng.gen_range(0..400usize)
            };
            let dist = *rng.choose(&Dist::ALL);
            let p = gen_problem(rng, n, &specs, dist);
            let cols = code_vecs(&p);
            let refs: Vec<&CodeVec> = cols.iter().collect();
            let sort_specs = sort_specs(&p);
            // Any non-empty set of the key columns.
            let want_keys = rng.gen_range(1..1u64 << refs.len());
            let lists = [
                None,
                Some(gen_row_list(rng, n, false)),
                Some(gen_row_list(rng, n, true)),
            ];
            for rows in &lists {
                let rows = rows.as_deref();
                for shape in SHAPES {
                    let Some(round_widths) = shape_widths(shape, &p.widths) else {
                        continue;
                    };
                    let plan = MassagePlan::from_widths(&round_widths);
                    for kernel in KERNELS {
                        for threads in [1, 2, 4] {
                            for want_final_groups in [true, false] {
                                let plain = ExecConfig {
                                    sort: SortConfig {
                                        kernel,
                                        ..SortConfig::default()
                                    },
                                    threads,
                                    want_final_groups,
                                    ..ExecConfig::default()
                                };
                                let label = format!(
                                    "keys/{shape:?}/{kernel:?}/t{threads}/groups={want_final_groups}/\
                                     rows={:?}/{dist:?}/n{n}/want={want_keys:b}",
                                    rows.map(<[u32]>::len)
                                );
                                let base = multi_column_sort(
                                    &refs,
                                    rows,
                                    &sort_specs,
                                    &plan,
                                    &plain,
                                    &mut ExecArena::new(),
                                )
                                .expect("sort without named keys");
                                assert!(base.keys.is_empty(), "[{label}] nothing named");
                                let footprint =
                                    mcs_core::lease_footprint_bytes(&plan, base.oids.len(), &plain);
                                for budget in [None, Some((footprint / 4).max(1))] {
                                    let cfg = ExecConfig {
                                        want_keys,
                                        memory_budget_bytes: budget,
                                        ..plain.clone()
                                    };
                                    let label = format!("{label}/budget={budget:?}");
                                    let out = multi_column_sort(
                                        &refs,
                                        rows,
                                        &sort_specs,
                                        &plan,
                                        &cfg,
                                        &mut ExecArena::new(),
                                    )
                                    .expect("sort with named keys");
                                    assert_eq!(out.oids, base.oids, "[{label}] oids");
                                    assert_eq!(
                                        out.groups.offsets, base.groups.offsets,
                                        "[{label}] group bounds"
                                    );
                                    assert_eq!(out.keys.len(), refs.len(), "[{label}] columns");
                                    for (c, col) in refs.iter().enumerate() {
                                        let got = &out.keys[c];
                                        if cfg.wants_key(c) {
                                            let want: Vec<u64> = out
                                                .oids
                                                .iter()
                                                .map(|&o| col.get(o as usize))
                                                .collect();
                                            assert_eq!(got, &want, "[{label}] key column {c}");
                                        } else {
                                            assert!(got.is_empty(), "[{label}] unnamed column {c}");
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// The budgeted dispatch under a budget tiny enough to force several
/// buckets — the cell CI's tiny-budget step pins down. Byte-identity with
/// the in-memory path is re-checked here on a larger instance than the
/// matrix uses, and the bucket count is asserted so a silently widening
/// bucket heuristic (which would quietly stop exercising the partition)
/// fails loudly.
#[test]
fn tiny_budget_forces_at_least_four_buckets() {
    let mut rng = Rng::seed_from_u64(0x5B11);
    let specs = [
        mcs_test_support::ColumnSpec {
            width: 11,
            descending: false,
        },
        mcs_test_support::ColumnSpec {
            width: 29,
            descending: true,
        },
    ];
    let p = gen_problem(&mut rng, 3_000, &specs, Dist::DupHeavy);
    let cols = code_vecs(&p);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let sspecs = sort_specs(&p);
    let plan = MassagePlan::column_at_a_time(&sspecs);
    let cfg = ExecConfig {
        want_final_groups: true,
        ..ExecConfig::default()
    };
    let want = sort(&refs, &sspecs, &plan, &cfg);

    let budget = mcs_core::lease_footprint_bytes(&plan, p.num_rows(), &cfg) / 8;
    let budgeted = ExecConfig {
        memory_budget_bytes: Some(budget),
        ..cfg
    };
    let got = sort(&refs, &sspecs, &plan, &budgeted);
    let buckets = got.stats.buckets;
    assert!(buckets >= 4, "budget {budget} made only {buckets} buckets");
    assert_eq!(got.oids, want.oids, "budgeted oid order");
    assert_eq!(got.groups.offsets, want.groups.offsets, "budgeted groups");
}

/// The loser tree at work inside the engine: a merge-sort ORDER BY with
/// the in-cache threshold shrunk to 4 KiB runs real out-of-cache
/// loser-tree passes, so it must count merge matches — and still order
/// every row exactly as the size-driven dispatch does.
#[test]
fn merge_sort_out_of_cache_passes_match_auto() {
    let mut rng = Rng::seed_from_u64(0x0FC);
    let specs = [
        mcs_test_support::ColumnSpec {
            width: 11,
            descending: false,
        },
        mcs_test_support::ColumnSpec {
            width: 20,
            descending: true,
        },
    ];
    let p = gen_problem(&mut rng, 8_192, &specs, Dist::Uniform);
    let cols = code_vecs(&p);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let sspecs = sort_specs(&p);
    let plan = MassagePlan::column_at_a_time(&sspecs);
    let auto = sort(&refs, &sspecs, &plan, &ExecConfig::default());
    let cfg = ExecConfig {
        sort: SortConfig {
            kernel: SortKernel::MergeSort,
            in_cache_bytes: 4096,
            ..SortConfig::default()
        },
        ..ExecConfig::default()
    };
    let merged = sort(&refs, &sspecs, &plan, &cfg);
    let comparisons: u64 = merged
        .stats
        .rounds
        .iter()
        .map(|r| r.merge.comparisons)
        .sum();
    assert!(comparisons > 0, "no out-of-cache merge pass ran");
    assert_eq!(merged.oids, auto.oids);
}

/// Deadlines swept across a sort whose rounds run the radix kernel: one
/// already expired at entry, the rest expiring somewhere inside massage,
/// a scatter pass, a lookup or a scan. Every outcome must be either the
/// complete, byte-identical result or the typed cancellation error —
/// never a partially sorted output — and the shared arena must serve the
/// immediate retry byte-identically whichever way the run ended.
#[test]
fn deadline_swept_across_radix_rounds_never_publishes_garbage() {
    let mut rng = Rng::seed_from_u64(0xDEAD_11E0);
    let specs = [
        mcs_test_support::ColumnSpec {
            width: 8,
            descending: false,
        },
        mcs_test_support::ColumnSpec {
            width: 33,
            descending: true,
        },
    ];
    // 2^8 first-column values: round 2's groups average 234 rows, past
    // the packed/radix crossover, so both rounds run the radix kernel.
    let p = gen_problem(&mut rng, 60_000, &specs, Dist::Uniform);
    let cols = code_vecs(&p);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let sspecs = sort_specs(&p);
    let plan = MassagePlan::column_at_a_time(&sspecs);
    let cfg = ExecConfig {
        want_final_groups: true,
        ..ExecConfig::default()
    };
    let mut arena = ExecArena::new();
    let t = std::time::Instant::now();
    let want = multi_column_sort(&refs, None, &sspecs, &plan, &cfg, &mut arena).expect("no token");
    let whole = t.elapsed();
    assert!(
        want.stats
            .rounds
            .iter()
            .all(|r| r.codes_sorted / r.invocations > mcs_simd_sort::PACKED_MAX_ROWS),
        "both rounds must reach the radix kernel"
    );

    let mut cancelled = 0;
    for step in 0..=16u32 {
        let mut timed = cfg.clone();
        timed.sort.cancel = mcs_core::CancelToken::with_timeout(whole * step / 16);
        match multi_column_sort(&refs, None, &sspecs, &plan, &timed, &mut arena) {
            Ok(out) => {
                assert_eq!(out.oids, want.oids, "step {step}: completed run differs");
                assert_eq!(out.groups.offsets, want.groups.offsets, "step {step}");
            }
            Err(mcs_core::SortError::Cancelled(_)) => cancelled += 1,
            Err(e) => panic!("step {step}: wrong error {e:?}"),
        }
        let retry = multi_column_sort(&refs, None, &sspecs, &plan, &cfg, &mut arena)
            .expect("retry on the same arena");
        assert_eq!(retry.oids, want.oids, "step {step}: retry oids");
        assert_eq!(
            retry.groups.offsets, want.groups.offsets,
            "step {step}: retry groups"
        );
    }
    assert!(cancelled > 0, "the expired-at-entry deadline must cancel");
}

/// The skew axis: one group holding >90% of the rows after round 1
/// makes the per-worker row ranges maximally unbalanced in work — the
/// worker whose range holds the giant group sorts it alone. Across
/// threads {1, 2, 4, 8} the output must stay byte-identical to the
/// serial run (and match the scalar reference); at threads >= 2 the
/// merge-sort splits the giant group and `Auto` neither splits nor
/// merges. Workers own fixed ranges, so no task changes worker
/// (`stolen == 0`) and the dispatched count repeats run to run.
#[test]
fn skewed_group_distribution_stays_byte_identical() {
    let mut rng = Rng::seed_from_u64(0x53EA1);
    let n = 40_000usize;
    // Column 1 (6 bits): 95% of rows share value 0 -> one giant group
    // after round 1. Column 2 (17 bits): random, so the giant group is
    // real sorting work in round 2, not a tie run.
    let c1: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_range(0..100u64) < 95 {
                0
            } else {
                1 + rng.gen_range(0..62u64)
            }
        })
        .collect();
    let c2: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(1u64 << 17))).collect();
    let p = SortProblem {
        columns: vec![c1, c2],
        widths: vec![6, 17],
        descending: vec![false, true],
    };
    let reference = reference_sort(&p);
    let cols = code_vecs(&p);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let specs = sort_specs(&p);
    let plan = MassagePlan::column_at_a_time(&specs);

    for kernel in KERNELS {
        let run = |threads: usize| {
            let cfg = ExecConfig {
                sort: SortConfig {
                    kernel,
                    ..SortConfig::default()
                },
                threads,
                want_final_groups: true,
                ..ExecConfig::default()
            };
            sort(&refs, &specs, &plan, &cfg)
        };
        let serial = run(1);
        assert!(
            serial.stats.morsel_counts().is_empty(),
            "threads=1 must not schedule tasks"
        );
        mcs_test_support::assert_matches_reference(
            &format!("skew/{kernel:?}/t1"),
            &p,
            &reference,
            &serial.oids,
            Some(&serial.groups.offsets),
        );
        for threads in [2usize, 4, 8] {
            let mut dispatched = Vec::new();
            for _ in 0..2 {
                let out = run(threads);
                assert_eq!(
                    out.oids, serial.oids,
                    "skew/{kernel:?}/t{threads}: thread count leaked into the output"
                );
                assert_eq!(
                    out.groups.offsets, serial.groups.offsets,
                    "skew/{kernel:?}/t{threads}: group bounds diverged"
                );
                let m = out.stats.morsel_counts();
                assert!(
                    m.dispatched > 0,
                    "skew/{kernel:?}/t{threads}: no tasks dispatched"
                );
                assert_eq!(m.stolen, 0, "skew/{kernel:?}/t{threads}: a task moved");
                // Both kernels divide the giant group across the workers:
                // the merge-sort slices and merges it, `Auto` partitions
                // it and so never reaches the loser tree.
                assert!(m.split >= 1, "skew/{kernel:?}/t{threads}: no split");
                if kernel == SortKernel::Auto {
                    let merged: u64 = out.stats.rounds.iter().map(|r| r.merge.comparisons).sum();
                    assert_eq!(merged, 0, "skew/Auto/t{threads}: merged");
                }
                dispatched.push(m.dispatched);
            }
            assert_eq!(
                dispatched[0], dispatched[1],
                "skew/{kernel:?}/t{threads}: dispatched count varies run to run"
            );
        }
    }
}

/// Degenerate shapes every engine change must keep working: zero rows,
/// one row, a single 1-bit column with heavy ties, and an all-equal
/// column collapsing to one group.
#[test]
fn degenerate_shapes_every_plan() {
    let mut rng = Rng::seed_from_u64(7);
    for (name, p) in degenerate_problems(&mut rng) {
        let reference = reference_sort(&p);
        for shape in SHAPES {
            let Some(round_widths) = shape_widths(shape, &p.widths) else {
                continue;
            };
            let plan = MassagePlan::from_widths(&round_widths);
            for threads in [1usize, 4] {
                run_and_check(
                    &format!("degenerate/{name}/{shape:?}/t{threads}"),
                    &p,
                    &reference,
                    &plan,
                    threads,
                );
            }
        }
    }
}
