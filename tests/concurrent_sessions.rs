//! Session-layer stress tests: many threads executing repeated prepared
//! queries over one shared [`Database`], checked against the naive
//! differential oracle — and, under `--features faults`, chaos runs
//! proving a degraded query leaves the session's next execution clean.

use codemassage::engine::reference::{assert_same_rows, naive_execute};
use codemassage::prelude::*;

/// Serialize tests in this binary: they reset shared global state (the
/// telemetry collector, the fault registry).
static SESSION_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn stress_table(n: usize) -> Table {
    let mut t = Table::new("sales");
    t.add_column(Column::from_u64s(
        "nation",
        10,
        (0..n).map(|i| (i as u64).wrapping_mul(0x9e37_79b9) % 50),
    ));
    t.add_column(Column::from_u64s(
        "ship_date",
        17,
        (0..n).map(|i| (i as u64).wrapping_mul(0x85eb_ca6b) % 5000),
    ));
    t.add_column(Column::from_u64s(
        "category",
        9,
        (0..n).map(|i| (i as u64).wrapping_mul(0xc2b2_ae35) % 300),
    ));
    t.add_column(Column::from_u64s(
        "price",
        17,
        (0..n).map(|i| i as u64 % 1000),
    ));
    t
}

fn stress_db(n: usize) -> Database {
    let mut db = Database::new();
    db.register(stress_table(n));
    db
}

/// Three distinct query shapes: an ORDER BY, a GROUP BY, and a filtered
/// ORDER BY with a descending key.
fn shapes() -> Vec<Query> {
    let mut by_date = Query::named("by_date");
    by_date.order_by = vec![OrderKey::asc("ship_date"), OrderKey::asc("nation")];
    by_date.select = vec!["ship_date".into(), "nation".into(), "price".into()];

    let mut grouped = Query::named("grouped");
    grouped.group_by = vec!["nation".into(), "category".into()];
    grouped.aggregates = vec![
        Agg::new(AggKind::Count, "cnt"),
        Agg::new(AggKind::Sum("price".into()), "rev"),
    ];

    let mut filtered = Query::named("filtered");
    filtered.filters = vec![Filter {
        column: "price".into(),
        predicate: Predicate::Lt(500),
    }];
    filtered.order_by = vec![OrderKey::desc("price"), OrderKey::asc("category")];
    filtered.select = vec!["price".into(), "category".into()];

    vec![by_date, grouped, filtered]
}

/// N threads × repeated prepared queries: every result matches the
/// scalar reference, in input order, with no degradation, whether the
/// batch runs on one worker or four.
#[test]
fn concurrent_prepared_queries_match_the_oracle() {
    let _guard = SESSION_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = stress_db(4096);
    let session = Session::new(&db, EngineConfig::default());

    let queries = shapes();
    let oracles: Vec<Vec<(String, Vec<u64>)>> = queries
        .iter()
        .map(|q| naive_execute(db.table("sales").unwrap(), q))
        .collect();
    let prepared: Vec<PreparedQuery> = queries
        .iter()
        .map(|q| session.prepare("sales", q).unwrap())
        .collect();

    // A batch of 8 repetitions of every shape, executed 4-way concurrent.
    const REPS: usize = 8;
    let batch: Vec<PreparedQuery> = (0..REPS).flat_map(|_| prepared.iter().cloned()).collect();
    for threads in [1, 4] {
        let results = session.run_concurrent(&batch, threads, QueryOptions::default());
        assert_eq!(results.len(), batch.len());
        for (i, r) in results.into_iter().enumerate() {
            let r = r.unwrap();
            assert_same_rows(&r.columns, &oracles[i % queries.len()]);
            assert!(r.timings.degradations.is_empty(), "execution {i}");
        }
    }
}

/// The admission gate really bounds concurrency: a batch larger than the
/// thread budget completes, in order, with every query answered.
#[test]
fn oversubscribed_batch_completes_in_order() {
    let _guard = SESSION_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = stress_db(1024);
    let session = Session::new(&db, EngineConfig::default());
    let q = &shapes()[0];
    let prepared = session.prepare("sales", q).unwrap();
    let oracle = naive_execute(db.table("sales").unwrap(), q);

    let batch = vec![prepared; 32];
    let results = session.run_concurrent(&batch, 2, QueryOptions::default());
    assert_eq!(results.len(), 32);
    for r in results {
        assert_same_rows(&r.unwrap().columns, &oracle);
    }
}

/// Chaos mode: faults degrade each query individually — the answer stays
/// correct via the ladder — and the session's next execution plans and
/// runs cleanly.
#[cfg(feature = "faults")]
#[test]
fn chaos_degrades_one_query_and_the_next_runs_clean() {
    use codemassage::faults::{points, with_armed, FireMode};

    let _guard = SESSION_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = stress_db(2048);
    let q = &shapes()[0];
    let oracle = naive_execute(db.table("sales").unwrap(), q);
    let session = Session::new(&db, EngineConfig::default());
    let prepared = session.prepare("sales", q).unwrap();
    let clean = prepared.execute(&session).unwrap();
    assert!(clean.timings.degradations.is_empty());

    // 1. The plan search fails: the query degrades to P0.
    with_armed(&[(points::PLANNER_SEARCH, FireMode::Always)], || {
        let r = prepared.execute(&session).unwrap();
        assert_same_rows(&r.columns, &oracle);
        assert!(r
            .timings
            .degradations
            .contains(&DegradeReason::PlanSearchFailed));
    });

    // 2. An execution-time fault degrades that one query.
    with_armed(&[(points::CORE_ROUND_SORT, FireMode::Once)], || {
        let r = prepared.execute(&session).unwrap();
        assert_same_rows(&r.columns, &oracle);
        assert!(r.timings.degradations.contains(&DegradeReason::ExecFailed));
    });

    // 3. Disarmed, the same session plans the same plan as before and
    //    runs it without a rung.
    let r = prepared.execute(&session).unwrap();
    assert_same_rows(&r.columns, &oracle);
    assert!(r.timings.degradations.is_empty(), "faults were transient");
    assert_eq!(r.timings.plan, clean.timings.plan);
}
