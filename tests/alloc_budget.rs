//! Allocation-budget tests for the warm-arena execution path and the
//! warm plan search.
//!
//! The tentpole claim of the `ExecArena` refactor is that a *warm*
//! prepared query — same plan fingerprint, same row count, buffers
//! already grown to their high-water mark — re-runs the entire
//! lookup → sort → scan round loop without touching the heap. This
//! suite installs the counting global allocator from `mcs-test-support`
//! and wires it into `ExecConfig::alloc_probe`, which samples the
//! counter immediately before and after the executor's round loop and
//! reports the difference in `ExecStats::round_loop_allocs`.
//!
//! The probe is `thread_allocation_count`: a thread-local counter, so
//! the bracket measures only the probing thread's own allocations. That
//! is what makes the zero assertion meaningful under
//! `Session::run_concurrent` — the round loop runs entirely on the
//! query's thread (with `threads(1)` intra-query), and sibling queries
//! allocating concurrently can no longer bleed into the count (they did
//! when the probe sampled the process-global counter, which is why
//! warm concurrent cells used to report hundreds of phantom
//! allocations).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mcs_engine::{Column, Database, EngineConfig, OrderKey, Query, QueryOptions, Session, Table};
use mcs_test_support::{allocation_count, thread_allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

fn probe_config() -> EngineConfig {
    let mut cfg = EngineConfig::builder().threads(1).build();
    cfg.exec.alloc_probe = Some(thread_allocation_count);
    cfg
}

fn orderby_query() -> Query {
    let mut q = Query::named("by_keys");
    q.order_by = vec![OrderKey::asc("nation"), OrderKey::desc("ship_date")];
    q.select = vec!["price".into()];
    q
}

#[test]
fn counting_allocator_observes_heap_traffic() {
    let (before, t_before) = (allocation_count(), thread_allocation_count());
    let v: Vec<u64> = Vec::with_capacity(64);
    assert!(
        allocation_count() > before,
        "a fresh Vec allocation must bump the global counter"
    );
    assert!(
        thread_allocation_count() > t_before,
        "a fresh Vec allocation must bump this thread's counter"
    );
    drop(v);

    // The thread-local counter is immune to other threads' traffic.
    // (Snapshot after `spawn`: spawning allocates on *this* thread.)
    let noise = std::thread::spawn(|| {
        let _noise: Vec<u64> = Vec::with_capacity(1024);
    });
    let t_before = thread_allocation_count();
    noise.join().unwrap();
    assert_eq!(
        thread_allocation_count(),
        t_before,
        "another thread's allocations must not bleed into this thread's count"
    );
}

#[test]
fn warm_round_loop_runs_with_zero_allocations() {
    let db = sales_db(4096);
    let session = Session::new(&db, probe_config());
    let prepared = session.prepare("sales", &orderby_query()).unwrap();

    // Cold run: the arena grows to its high-water mark; the round loop
    // is allowed (expected, even) to allocate here.
    let cold = prepared.execute(&session).unwrap();
    let cold_allocs = cold
        .timings
        .mcs_stats
        .round_loop_allocs
        .expect("probe configured");
    assert!(!cold.timings.mcs_stats.arena.is_empty());

    // Warm runs: every buffer the round loop touches — round keys,
    // gather spares, oids, group offsets, sort scratch — is already
    // sized, so the loop must not allocate at all.
    for run in 0..3 {
        let warm = prepared.execute(&session).unwrap();
        assert_eq!(
            warm.timings.mcs_stats.round_loop_allocs,
            Some(0),
            "warm run {run} allocated in the round loop (cold run did {cold_allocs})"
        );
        assert_eq!(warm.columns, cold.columns, "reuse must not change results");
    }
    let stats = session.arena_stats();
    assert!(stats.reuses >= 3, "warm runs reuse capacity: {stats:?}");
}

#[test]
fn warm_round_loop_is_allocation_free_across_plan_shapes() {
    // A wider three-column key exercises multi-round plans with lookups
    // and a B64 round; the warm guarantee is per plan shape.
    let db = sales_db(2048);
    let session = Session::new(&db, probe_config());
    let mut q = Query::named("by_three");
    q.order_by = vec![
        OrderKey::asc("nation"),
        OrderKey::asc("ship_date"),
        OrderKey::desc("price"),
    ];
    q.select = vec!["price".into()];
    let prepared = session.prepare("sales", &q).unwrap();
    prepared.execute(&session).unwrap();
    let warm = prepared.execute(&session).unwrap();
    assert_eq!(warm.timings.mcs_stats.round_loop_allocs, Some(0));
}

#[test]
fn stateless_queries_report_allocations_only_when_probed() {
    let db = sales_db(512);
    let r = mcs_engine::run_query(
        db.table("sales").unwrap(),
        &orderby_query(),
        &EngineConfig::builder().threads(1).build(),
    )
    .unwrap();
    assert_eq!(
        r.timings.mcs_stats.round_loop_allocs, None,
        "no probe configured, no count reported"
    );
}

#[test]
fn warm_scratch_sort_is_allocation_free() {
    // The layer below the executor: a serial segmented sort drawing all
    // working memory from a warm `WorkerScratch` must not allocate
    // (this is what the arena's zero-allocation guarantee rests on).
    use mcs_simd_sort::{sort_pairs_in_groups, GroupBounds, SortConfig, WorkerScratch};
    let n = 4096usize;
    let orig: Vec<u16> = (0..n)
        .map(|i| (i as u64 * 2654435761 % 65536) as u16)
        .collect();
    let cfg = SortConfig::default();
    let mut scratch = WorkerScratch::new();
    let groups = GroupBounds::from_offsets(vec![0, n as u32]);
    let mut keys = orig.clone();
    let mut oids: Vec<u32> = (0..n as u32).collect();
    sort_pairs_in_groups(&mut keys, &mut oids, &groups, 1, &cfg, &mut scratch).unwrap();
    for _ in 0..2 {
        keys.copy_from_slice(&orig);
        for (i, o) in oids.iter_mut().enumerate() {
            *o = i as u32;
        }
        let before = thread_allocation_count();
        sort_pairs_in_groups(&mut keys, &mut oids, &groups, 1, &cfg, &mut scratch).unwrap();
        assert_eq!(thread_allocation_count() - before, 0, "warm sort allocated");
    }
}

#[test]
fn warm_search_allocates_only_its_result() {
    // The plan search works in its `SearchScratch`: once the scratch has
    // served an instance, searching it again allocates only the result —
    // the plan and the column order — and, with telemetry on, the
    // `planner.optimal` span's attribute list and plan notation: 4.
    use mcs_cost::{CostModel, SortInstance};
    use mcs_planner::{optimal, SearchScratch};
    let model = CostModel::with_defaults();
    let keys = [(5, 32.0), (11, 2048.0), (16, 40_000.0)];
    let mut order_by = SortInstance::uniform(1 << 16, &keys);
    order_by.specs[1].descending = true;
    order_by.want_final_groups = false;
    let group_by = SortInstance::uniform(1 << 16, &keys);
    for (inst, order_free) in [(&order_by, false), (&group_by, true)] {
        let mut scratch = SearchScratch::default();
        let cold = optimal(inst, &model, order_free, &mut scratch).unwrap();
        // The telemetry collector's span buffer is shared with the other
        // tests of this binary and doubles now and then, on whichever
        // thread pushes: the fewest of three warm searches is the
        // search's own count.
        let warm = (0..3)
            .map(|_| {
                let before = thread_allocation_count();
                let r = optimal(inst, &model, order_free, &mut scratch).unwrap();
                let allocs = thread_allocation_count() - before;
                assert_eq!(r.plan, cold.plan);
                assert_eq!(r.column_order, cold.column_order);
                allocs
            })
            .min()
            .unwrap();
        assert!(
            warm <= 4,
            "warm search (order free: {order_free}) allocated {warm}"
        );
    }
}

#[test]
fn warm_concurrent_round_loops_run_with_zero_allocations() {
    // The regression this suite exists to catch: warm executions under
    // `run_concurrent` must report `round_loop_allocs == 0` for every
    // query, exactly like the serial path. With the old process-global
    // probe, threads=4 reported ~hundreds of phantom allocations per
    // warm cell (other workers' heap traffic inside the bracket).
    let db = sales_db(4096);
    let session = Session::new(&db, probe_config());
    let prepared: Vec<_> = (0..16)
        .map(|_| session.prepare("sales", &orderby_query()).unwrap())
        .collect();
    let threads = 4usize;
    let serial = prepared[0].execute(&session).unwrap();

    // Warm-up: a batch may draft fresh arenas into the session pool (at
    // most one per worker, and the pool only ever grows), so within
    // `threads + 1` batches one batch runs on all-warm arenas.
    let mut warmed = false;
    for _ in 0..=threads {
        let results = session.run_concurrent(&prepared, threads, QueryOptions::default());
        let allocs: Vec<u64> = results
            .iter()
            .map(|r| {
                r.as_ref()
                    .unwrap()
                    .timings
                    .mcs_stats
                    .round_loop_allocs
                    .expect("probe configured")
            })
            .collect();
        if allocs.iter().all(|&a| a == 0) {
            warmed = true;
            break;
        }
    }
    assert!(
        warmed,
        "no all-zero batch within {} warm-up batches",
        threads + 1
    );

    // And warm is sticky: every query of every later batch stays at 0.
    for batch in 0..2 {
        for (i, r) in session
            .run_concurrent(&prepared, threads, QueryOptions::default())
            .into_iter()
            .enumerate()
        {
            let r = r.unwrap();
            assert_eq!(
                r.timings.mcs_stats.round_loop_allocs,
                Some(0),
                "warm concurrent batch {batch}, query {i} allocated in the round loop"
            );
            assert_eq!(r.columns, serial.columns, "concurrent result mismatch");
        }
    }
}
