//! Memory-budget enforcement tests for the budgeted (bucketed) sort.
//!
//! The budget contract has two sides:
//!
//! * **Bounded peak.** When `memory_budget_bytes` forces the budgeted
//!   path, the sort's resident working memory — measured as the
//!   execution arena's `bytes_peak`, which holds every buffer the bucket
//!   sorts lease — stays within the budget times a small, documented
//!   slack constant, across row counts, key shapes, and budget sizes.
//! * **One partition decision.** `multi_column_sort` partitions exactly
//!   when the plan's leased footprint exceeds the budget, and the engine
//!   defers to it, so a direct call and an engine query agree on the
//!   bucket count at every budget — the boundary included.
//! * **Zero overhead when unset.** With no budget (the default), the
//!   dispatch must not so much as allocate: a warm prepared query's
//!   round loop reports *exactly* zero heap allocations, same as before
//!   the budget knob existed. A budget that is set but large enough to
//!   hold the whole sort takes the identical in-memory path and keeps
//!   the same guarantee.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mcs_columnar::CodeVec;
use mcs_core::{
    lease_footprint_bytes, multi_column_sort, ExecArena, ExecConfig, MassagePlan, SortConfig,
    SortKernel, SortSpec,
};
use mcs_engine::{Column, Database, EngineConfig, OrderKey, PlannerMode, Query, Session, Table};
use mcs_test_support::{thread_allocation_count, CountingAlloc, Rng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allowed overshoot of the arena's byte peak relative to the budget.
///
/// The bucket-row bound is derived from a per-row footprint estimated at
/// a fixed 4096-row probe, so three error terms separate the peak from
/// the budget itself: per-row ceiling rounding at the probe, the
/// footprint's constant terms (three group-offset buffers reserve
/// `n + 1` entries), and bank-granularity rounding of a short bucket.
/// All are small and bounded; 1.5× plus one page of absolute grace
/// covers them with room while still failing loudly if bucketing ever
/// stops respecting the budget.
const BUDGET_SLACK_NUM: usize = 3;
const BUDGET_SLACK_DEN: usize = 2;
const BUDGET_GRACE_BYTES: usize = 4096;

/// `cfg` within `budget` bytes.
fn budgeted(cfg: &ExecConfig, budget: usize) -> ExecConfig {
    ExecConfig {
        memory_budget_bytes: Some(budget),
        ..cfg.clone()
    }
}

fn gen_cols(rng: &mut Rng, n: usize, widths: &[u32]) -> Vec<CodeVec> {
    widths
        .iter()
        .map(|&w| {
            let cap = 1u64 << w.min(16);
            CodeVec::from_u64s(w, (0..n).map(|_| rng.gen_range(0..cap)).collect::<Vec<_>>())
        })
        .collect()
}

/// Sweep shapes × budgets: the budgeted sort must stay byte-identical to
/// the in-memory sort while its arena peak honours the budget.
#[test]
fn spilling_sort_keeps_arena_peak_within_budget() {
    let mut rng = Rng::seed_from_u64(0xB06E7);
    let shapes: [(usize, &[u32]); 3] = [(2_000, &[11, 13]), (5_000, &[7, 29, 40]), (3_000, &[64])];
    for (n, widths) in shapes {
        let cols = gen_cols(&mut rng, n, widths);
        let refs: Vec<&CodeVec> = cols.iter().collect();
        let specs: Vec<SortSpec> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| SortSpec {
                width: w,
                descending: i % 2 == 1,
            })
            .collect();
        let plan = MassagePlan::column_at_a_time(&specs);
        let cfg = ExecConfig {
            want_final_groups: true,
            ..ExecConfig::default()
        };
        let want = {
            let mut arena = ExecArena::new();
            multi_column_sort(&refs, None, &specs, &plan, &cfg, &mut arena).expect("in-memory")
        };

        let footprint = lease_footprint_bytes(&plan, n, &cfg);
        for div in [4usize, 8, 16] {
            let budget = footprint / div;
            let mut arena = ExecArena::new();
            let capped = budgeted(&cfg, budget);
            let out = multi_column_sort(&refs, None, &specs, &plan, &capped, &mut arena)
                .expect("budgeted sort");
            assert!(
                out.stats.buckets >= div as u64 / 2,
                "n={n} widths={widths:?} div={div}: only {} buckets",
                out.stats.buckets
            );
            assert_eq!(out.oids, want.oids, "n={n} widths={widths:?} div={div}");
            assert_eq!(
                out.groups.offsets, want.groups.offsets,
                "n={n} widths={widths:?} div={div}"
            );

            let peak = arena.stats().bytes_peak as usize;
            let allowed = budget * BUDGET_SLACK_NUM / BUDGET_SLACK_DEN + BUDGET_GRACE_BYTES;
            assert!(
                peak <= allowed,
                "n={n} widths={widths:?} div={div}: arena peak {peak} bytes exceeds \
                 budget {budget} (allowed {allowed})"
            );
            // And the budget is doing real work: the bounded peak is far
            // below what the unbudgeted sort would have leased.
            assert!(
                peak < footprint,
                "n={n} widths={widths:?} div={div}: peak {peak} not below full footprint {footprint}"
            );
        }
    }
}

/// The footprint model prices what the in-memory sort really holds: for
/// a warm sort in each bank, over one- and two-round plans, under both
/// kernels and at one and two threads, the arena's byte peak stays at or
/// below `lease_footprint_bytes`. (The model used to charge a pair of
/// 4-byte code buffers no kernel allocates, and the merge-sort's second
/// key/oid pair to the radix kernel too.)
#[test]
fn warm_serial_sort_peak_stays_within_the_footprint_estimate() {
    let n = 100_000;
    let mut rng = Rng::seed_from_u64(0xF00715);
    for w in [12u32, 24, 48] {
        // One round of width w, and two: a tie-heavy leading column so
        // the second round sorts real groups.
        let one = vec![CodeVec::from_u64s(
            w,
            (0..n)
                .map(|_| rng.gen_range(0..1u64 << w))
                .collect::<Vec<_>>(),
        )];
        let two = vec![
            CodeVec::from_u64s(w, (0..n).map(|_| rng.gen_range(0..64)).collect::<Vec<_>>()),
            CodeVec::from_u64s(
                w,
                (0..n)
                    .map(|_| rng.gen_range(0..1u64 << w))
                    .collect::<Vec<_>>(),
            ),
        ];
        for cols in [one, two] {
            let refs: Vec<&CodeVec> = cols.iter().collect();
            let specs: Vec<SortSpec> = cols
                .iter()
                .map(|_| SortSpec {
                    width: w,
                    descending: false,
                })
                .collect();
            let plan = MassagePlan::column_at_a_time(&specs);
            for kernel in [SortKernel::Auto, SortKernel::MergeSort] {
                for threads in [1, 2] {
                    let cfg = ExecConfig {
                        sort: SortConfig {
                            kernel,
                            ..SortConfig::default()
                        },
                        threads,
                        want_final_groups: true,
                        ..ExecConfig::default()
                    };
                    let mut arena = ExecArena::new();
                    for _ in 0..2 {
                        multi_column_sort(&refs, None, &specs, &plan, &cfg, &mut arena)
                            .expect("sort");
                    }
                    let peak = arena.stats().bytes_peak as usize;
                    let estimate = lease_footprint_bytes(&plan, n, &cfg);
                    assert!(
                        peak <= estimate,
                        "width {w}, {} rounds, {kernel:?}, threads {threads}: arena peak \
                         {peak} bytes exceeds the estimate {estimate}",
                        plan.num_rounds()
                    );
                }
            }
        }
    }
}

/// A budgeted serial `Auto` sort holds no more than one sort of a full
/// bucket does on a fresh arena: the arena is sized for a full bucket
/// before the first one sorts — the radix kernel's scatter pair too — so
/// buckets of creeping size never double a buffer.
#[test]
fn budgeted_serial_sort_peaks_at_one_full_bucket() {
    // One 16-bit key whose top byte holds 129–299 rows per value: every
    // bucket is a run of whole byte values (no value outgrows a bucket),
    // so every bucket is past the packed-word crossover and radix-sorted,
    // and bucket sizes vary.
    let mut rng = Rng::seed_from_u64(0x5EED_B0C7);
    let mut vals: Vec<u64> = Vec::new();
    for top in 0..256u64 {
        for _ in 0..rng.gen_range(129..300u32) {
            vals.push(top << 8 | rng.gen_range(0..256u64));
        }
    }
    rng.shuffle(&mut vals);
    let n = vals.len();
    let col = CodeVec::from_u64s(16, vals.iter().copied());
    let specs = [SortSpec::asc(16)];
    let plan = MassagePlan::column_at_a_time(&specs);
    let cfg = ExecConfig::default();
    for div in [16usize, 64] {
        let budget = lease_footprint_bytes(&plan, n, &cfg) / div;
        let mut arena = ExecArena::new();
        let capped = budgeted(&cfg, budget);
        let out = multi_column_sort(&[&col], None, &specs, &plan, &capped, &mut arena)
            .expect("budgeted sort");
        let bucket_rows = out.stats.bucket_rows;
        assert!(
            bucket_rows >= 300,
            "div {div}: a byte value outgrows a bucket"
        );
        assert!(
            out.stats.buckets > 1,
            "div {div}: {} buckets",
            out.stats.buckets
        );

        let bucket = CodeVec::from_u64s(16, vals[..bucket_rows].iter().copied());
        let mut fresh = ExecArena::new();
        multi_column_sort(&[&bucket], None, &specs, &plan, &cfg, &mut fresh).expect("one bucket");
        let (peak, one) = (arena.stats().bytes_peak, fresh.stats().bytes_peak);
        assert!(
            peak <= one,
            "div {div}: budgeted peak {peak} bytes over one full bucket's {one}"
        );
    }
}

fn sales_db(rows: usize) -> Database {
    let mut t = Table::new("sales");
    t.add_column(Column::from_u64s(
        "nation",
        5,
        (0..rows).map(|i| (i as u64 * 7) % 32),
    ));
    t.add_column(Column::from_u64s(
        "ship_date",
        11,
        (0..rows).map(|i| (i as u64 * 131) % 2048),
    ));
    t.add_column(Column::from_u64s(
        "price",
        16,
        (0..rows).map(|i| (i as u64 * 997) % 65536),
    ));
    let mut db = Database::new();
    db.register(t);
    db
}

fn orderby_query() -> Query {
    let mut q = Query::named("by_keys");
    q.order_by = vec![OrderKey::asc("nation"), OrderKey::desc("ship_date")];
    q.select = vec!["price".into()];
    q
}

/// With the probe installed, a warm prepared query must report exactly
/// zero round-loop allocations — both with no budget at all and with a
/// budget generous enough that the dispatch stays in memory. The budget
/// knob must cost nothing when it doesn't bind.
#[test]
fn unbinding_budget_keeps_warm_round_loop_allocation_free() {
    let db = sales_db(4096);
    for budget in [None, Some(1usize << 30)] {
        let mut cfg = EngineConfig::builder().threads(1).build();
        cfg.exec.alloc_probe = Some(thread_allocation_count);
        cfg.exec.memory_budget_bytes = budget;
        let session = Session::new(&db, cfg);
        let prepared = session.prepare("sales", &orderby_query()).unwrap();

        let cold = prepared.execute(&session).unwrap();
        assert_eq!(
            cold.timings.spilled.runs, 0,
            "budget {budget:?} must not spill"
        );
        for run in 0..3 {
            let warm = prepared.execute(&session).unwrap();
            assert_eq!(
                warm.timings.mcs_stats.round_loop_allocs,
                Some(0),
                "budget {budget:?}, warm run {run} allocated in the round loop"
            );
            assert_eq!(warm.columns, cold.columns);
        }
    }
}

/// A binding budget on the engine path partitions, stays correct against
/// the unbudgeted result, and reports its buckets in the timings.
#[test]
fn binding_budget_on_the_engine_path_spills_and_reports() {
    let db = sales_db(8192);
    let q = orderby_query();
    let plain = EngineConfig::builder().threads(1).build();
    let t = db.table("sales").unwrap();
    let want = mcs_engine::run_query(t, &q, &plain).unwrap();
    assert_eq!(want.timings.spilled.runs, 0);

    let cfg = EngineConfig::builder()
        .threads(1)
        .memory_budget(32 * 1024)
        .build();
    let r = mcs_engine::run_query(t, &q, &cfg).unwrap();
    let buckets = r.timings.spilled.runs;
    assert!(buckets >= 2, "{:?}", r.timings.spilled);
    assert!(r.timings.bucket_rows > 0 && r.timings.bucket_rows < 8192);
    assert!(
        r.timings.degradations.is_empty(),
        "partitioning is not a rung"
    );
    assert_eq!(r.columns, want.columns, "budgeted result differs");

    // The buckets surface in EXPLAIN — and only when the sort partitioned.
    let model = mcs_cost::CostModel::with_defaults();
    let rep = mcs_engine::ExplainReport::from_timings("budgeted", &r.timings, &model)
        .expect("sort ran")
        .render();
    let line = format!(
        "budget: {buckets} buckets of ≤ {} rows",
        r.timings.bucket_rows
    );
    assert!(rep.contains(&line), "no `{line}` line in EXPLAIN:\n{rep}");
    let clean = mcs_engine::ExplainReport::from_timings("plain", &want.timings, &model)
        .expect("sort ran")
        .render();
    assert!(
        !clean.contains("budget:"),
        "in-memory EXPLAIN grew a budget line:\n{clean}"
    );
}

/// The partition predicate at its boundary: at `budget == footprint` the
/// in-memory sort fits and nothing partitions; one byte less and the
/// same multi-round plan sorts several buckets. Both results are
/// byte-identical to the in-memory sort, and the engine running that
/// plan under the same budget reports exactly the direct call's bucket
/// count.
#[test]
fn spill_decision_is_the_footprint_test_on_both_paths() {
    let n = 8192;
    let db = sales_db(n);
    let t = db.table("sales").unwrap();
    let q = orderby_query();
    let cols = [
        t.column("nation").unwrap().codes(),
        t.column("ship_date").unwrap().codes(),
    ];
    let specs = [
        SortSpec {
            width: 5,
            descending: false,
        },
        SortSpec {
            width: 11,
            descending: true,
        },
    ];
    let plan = MassagePlan::column_at_a_time(&specs);
    assert_eq!(plan.num_rounds(), 2);
    let cfg = ExecConfig::default();
    let want = multi_column_sort(&cols, None, &specs, &plan, &cfg, &mut ExecArena::new()).unwrap();

    let footprint = lease_footprint_bytes(&plan, n, &cfg);
    for budget in [footprint, footprint - 1] {
        let capped = budgeted(&cfg, budget);
        let out =
            multi_column_sort(&cols, None, &specs, &plan, &capped, &mut ExecArena::new()).unwrap();
        let buckets = out.stats.buckets;
        if budget == footprint {
            assert_eq!(buckets, 0, "the sort fits its footprint: no buckets");
        } else {
            assert!(buckets >= 2, "one byte short: {buckets} buckets");
        }
        assert_eq!(out.oids, want.oids, "budget {budget}");
        assert_eq!(out.groups.offsets, want.groups.offsets, "budget {budget}");

        let engine = EngineConfig::builder()
            .planner(PlannerMode::Fixed(plan.clone()))
            .threads(1)
            .memory_budget(budget)
            .build();
        let r = mcs_engine::run_query(t, &q, &engine).unwrap();
        assert_eq!(r.timings.plan.as_ref(), Some(&plan));
        assert_eq!(r.timings.spilled.runs, buckets, "budget {budget}");
    }
}
