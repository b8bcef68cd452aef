//! Acceptance test for the telemetry layer: every pipeline phase —
//! ByteSlice scan, per-round lookup, per-round sort (with its five
//! per-kernel sub-spans), boundary scan, aggregation, window rank — emits exactly
//! one span per execution, with the expected names, and the JSONL export
//! carries them all.
//!
//! Runs a 3-column GROUP BY under a fixed `P_0` plan (3 rounds, known
//! counts) and a PARTITION BY query for the window span.
#![cfg(feature = "telemetry")]

use std::collections::BTreeMap;

use codemassage::prelude::*;
use codemassage::telemetry;

/// The global collector is shared; serialize against any future test in
/// this binary that also drains it.
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn span_counts() -> BTreeMap<&'static str, usize> {
    let snap = telemetry::take_all();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in &snap.spans {
        *counts.entry(s.name).or_default() += 1;
    }
    assert_eq!(snap.spans_dropped, 0, "span buffer overflowed");
    counts
}

fn demo_table(n: usize) -> Table {
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

#[test]
fn three_column_query_emits_one_span_per_phase() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(telemetry::is_enabled());

    let n = 4096;
    let t = demo_table(n);

    // 3-column GROUP BY with one filter, fixed P0 => exactly 3 rounds.
    let mut q = Query::named("spans_groupby");
    q.filters = vec![Filter {
        column: "price".into(),
        predicate: Predicate::Lt(900),
    }];
    q.group_by = vec!["nation".into(), "ship_date".into(), "category".into()];
    q.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "sum_price")];
    let cfg = EngineConfig {
        planner: PlannerMode::Fixed(MassagePlan::from_widths(&[10, 17, 9])),
        ..EngineConfig::default()
    };

    telemetry::reset();
    let r = run_query(&t, &q, &cfg).unwrap();
    assert!(r.rows > 0);

    // The default kernel is the size-driven dispatch: all kernel time is
    // in the radix and small-sort sub-spans, none in the merge-sort
    // phases, and the sub-spans fit inside the sort spans they detail.
    let snap = telemetry::snapshot();
    let dur = |name: &str| -> u64 {
        let spans = snap.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.dur_ns).sum()
    };
    let merge_phases = dur("mcs.round.sort.in_register")
        + dur("mcs.round.sort.in_cache_merge")
        + dur("mcs.round.sort.multiway_merge");
    assert_eq!(merge_phases, 0, "Auto ran a merge-sort phase");
    let kernels = dur("mcs.round.sort.radix") + dur("mcs.round.sort.small");
    assert!(kernels > 0 && kernels <= dur("mcs.round.sort"));
    let counts = span_counts();

    // One span per phase execution: 1 filter scan; 1 massage; lookups for
    // rounds 2 and 3 only (round 1 sorts the gathered column directly);
    // 3 sorts, each with its five per-kernel sub-spans (the three
    // merge-sort phases, radix, small sorts); 3 boundary scans
    // (want_final_groups prices the last round's scan too); 1 aggregation;
    // 1 query envelope.
    let expect: &[(&str, usize)] = &[
        ("scan.byteslice", 1),
        ("mcs.massage", 1),
        ("mcs.round.lookup", 2),
        ("mcs.round.sort", 3),
        ("mcs.round.sort.in_register", 3),
        ("mcs.round.sort.in_cache_merge", 3),
        ("mcs.round.sort.multiway_merge", 3),
        ("mcs.round.sort.radix", 3),
        ("mcs.round.sort.small", 3),
        ("mcs.round.scan", 3),
        ("engine.aggregate", 1),
        ("engine.query", 1),
    ];
    for &(name, want) in expect {
        assert_eq!(
            counts.get(name).copied().unwrap_or(0),
            want,
            "span count for {name} (all: {counts:?})"
        );
    }
    // Fixed plan => no planner search spans.
    assert_eq!(counts.get("planner.optimal"), None, "all: {counts:?}");
}

#[test]
fn window_query_emits_rank_span_and_jsonl_roundtrip() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(2048);

    let mut q = Query::named("spans_window");
    q.select = vec!["nation".into(), "price".into()];
    q.partition_by = vec!["nation".into()];
    q.window_order = vec![OrderKey::asc("ship_date")];
    let cfg = EngineConfig::default(); // the exact search: planner spans expected

    telemetry::reset();
    let r = run_query(&t, &q, &cfg).unwrap();
    assert!(r.rows > 0);

    let snap = telemetry::snapshot();
    let jsonl = telemetry::render_jsonl(&snap);
    let counts = span_counts();

    assert_eq!(counts.get("engine.window.rank").copied(), Some(1));
    assert_eq!(counts.get("engine.query").copied(), Some(1));
    assert_eq!(
        counts.get("planner.optimal").copied(),
        Some(1),
        "all: {counts:?}"
    );
    assert_eq!(counts.get("mcs.massage").copied(), Some(1));

    // Every span name must round-trip into the JSONL export, one line per
    // span, plus counter lines and the trailing meta line.
    for name in counts.keys() {
        assert!(
            jsonl.contains(&format!("\"name\":\"{name}\"")),
            "JSONL missing span {name}"
        );
    }
    assert!(jsonl.contains("\"type\":\"counter\""));
    assert!(jsonl.lines().last().unwrap().contains("\"type\":\"meta\""));
    assert!(jsonl.contains("\"enabled\":true"));
}

/// A degraded execution (here: an invalid fixed plan, no fault injection
/// needed) bumps the `engine.degraded` counter with a reason-labelled
/// marker span, records the rung in the timings, and annotates EXPLAIN.
#[test]
fn degraded_execution_fires_counter_span_and_explain_annotation() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(2048);

    let mut q = Query::named("spans_degraded");
    q.group_by = vec!["nation".into()];
    q.aggregates = vec![Agg::new(AggKind::Count, "cnt")];
    let cfg = EngineConfig {
        // The nation key is 10 bits; a 60-bit plan fails validation.
        planner: PlannerMode::Fixed(MassagePlan::from_widths(&[60])),
        ..EngineConfig::default()
    };

    telemetry::reset();
    let r = run_query(&t, &q, &cfg).unwrap();
    assert!(r.rows > 0);
    assert_eq!(r.timings.degradations, vec![DegradeReason::InvalidPlan]);

    let snap = telemetry::take_all();
    let degraded = snap
        .counters
        .iter()
        .find(|(n, _)| *n == "engine.degraded")
        .map(|&(_, v)| v);
    assert_eq!(degraded, Some(1), "counters: {:?}", snap.counters);
    let marker = snap
        .spans
        .iter()
        .find(|s| s.name == "engine.degraded")
        .expect("degradation marker span");
    assert!(
        marker
            .attrs
            .iter()
            .any(|(k, v)| *k == "reason" && format!("{v:?}").contains("invalid_plan")),
        "attrs: {:?}",
        marker.attrs
    );

    let rep =
        ExplainReport::from_timings("spans_degraded", &r.timings, &CostModel::with_defaults())
            .expect("a multi-column sort ran");
    assert!(rep.render().contains("degraded: invalid_plan"));
    // The redacted (golden) rendering carries the same annotation.
    assert!(rep.render_redacted().contains("degraded: invalid_plan"));
}

/// Every execution plans its own instance: `prepare` searches nothing,
/// and each execution emits one `planner.optimal` span per sort — one for
/// an ORDER BY, two for a GROUP BY whose result is sorted again —
/// while `run_concurrent` wraps its batch in one `session.run_concurrent`
/// span.
#[test]
fn every_execution_searches_once_per_sort() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(2048);
    let mut db = Database::new();
    db.register(t);
    let session = Session::new(&db, EngineConfig::default());
    let searches = |snap: &telemetry::TelemetrySnapshot| {
        snap.spans
            .iter()
            .filter(|s| s.name == "planner.optimal")
            .count()
    };

    let mut q = Query::named("spans_session");
    q.order_by = vec![OrderKey::asc("nation"), OrderKey::asc("ship_date")];
    q.select = vec!["price".into()];
    let mut grouped = Query::named("spans_grouped");
    grouped.group_by = vec!["nation".into(), "category".into()];
    grouped.aggregates = vec![Agg::new(AggKind::Count, "cnt")];
    grouped.order_by = vec![OrderKey::desc("cnt")];

    telemetry::reset();
    let prepared = session.prepare("sales", &q).unwrap();
    let prepared_grouped = session.prepare("sales", &grouped).unwrap();
    assert_eq!(
        searches(&telemetry::take_all()),
        0,
        "prepare searches nothing"
    );

    let batch = [prepared.clone(), prepared, prepared_grouped.clone()];
    let results = session.run_concurrent(&batch, 2, QueryOptions::default());
    assert!(results.iter().all(|r| r.is_ok()));
    let snap = telemetry::take_all();
    assert_eq!(searches(&snap), 1 + 1 + 2);
    assert_eq!(
        snap.spans
            .iter()
            .filter(|s| s.name == "session.run_concurrent")
            .count(),
        1
    );
    assert!(snap
        .counters
        .iter()
        .all(|(n, _)| !n.starts_with("planner.cache")));

    // Re-executing is searching again.
    prepared_grouped.execute(&session).unwrap();
    assert_eq!(searches(&telemetry::take_all()), 2);
}

/// A batch runs on at most `threads` workers, whatever its length: the
/// 16 executions of a batch at threads 2 record their `engine.query`
/// spans from at most two threads.
#[test]
fn batch_runs_on_at_most_threads_workers() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.register(demo_table(512));
    let session = Session::new(&db, EngineConfig::default());
    let mut q = Query::named("spans_batch");
    q.order_by = vec![OrderKey::asc("ship_date")];
    q.select = vec!["price".into()];
    let batch = vec![session.prepare("sales", &q).unwrap(); 16];

    telemetry::reset();
    let results = session.run_concurrent(&batch, 2, QueryOptions::default());
    assert!(results.iter().all(|r| r.is_ok()));
    let snap = telemetry::take_all();
    let queries: Vec<u64> = snap
        .spans
        .iter()
        .filter(|s| s.name == "engine.query")
        .map(|s| s.thread)
        .collect();
    assert_eq!(queries.len(), 16);
    let threads: std::collections::BTreeSet<u64> = queries.into_iter().collect();
    assert!(threads.len() <= 2, "{} worker threads", threads.len());
}

/// The execution arena's reuse counters: a cold session execution grows
/// the arena (`exec.arena.grow` + a `exec.arena.bytes_peak` delta), a
/// warm rerun only reuses (`exec.arena.reuse`), a one-shot `run_query`
/// grows its private arena like any cold execution, and EXPLAIN carries
/// the matching `arena:` line (byte-peak redacted like a timing).
#[test]
fn arena_counters_fire_on_every_execution() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(2048);
    let mut db = Database::new();
    db.register(t.clone());
    let session = Session::new(&db, EngineConfig::default());

    let mut q = Query::named("spans_arena");
    q.order_by = vec![OrderKey::asc("nation"), OrderKey::asc("ship_date")];
    q.select = vec!["price".into()];
    let prepared = session.prepare("sales", &q).unwrap();

    let counter = |snap: &telemetry::TelemetrySnapshot, name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };

    // Cold: first execution grows the arena from empty.
    telemetry::reset();
    prepared.execute(&session).unwrap();
    let cold = telemetry::take_all();
    assert_eq!(counter(&cold, "exec.arena.grow"), Some(1));
    assert!(counter(&cold, "exec.arena.bytes_peak").unwrap_or(0) > 0);
    assert_eq!(
        counter(&cold, "exec.arena.reuse"),
        None,
        "zero deltas are not emitted (counters: {:?})",
        cold.counters
    );

    // Warm: the rerun serves entirely from existing capacity.
    telemetry::reset();
    let warm = prepared.execute(&session).unwrap();
    let snap = telemetry::take_all();
    assert_eq!(counter(&snap, "exec.arena.reuse"), Some(1));
    assert_eq!(counter(&snap, "exec.arena.grow"), None);
    assert_eq!(counter(&snap, "exec.arena.bytes_peak"), None);

    // The EXPLAIN line mirrors the cumulative ExecStats snapshot.
    let rep =
        ExplainReport::from_timings("spans_arena", &warm.timings, &CostModel::with_defaults())
            .expect("a multi-column sort ran");
    assert!(rep.render().contains("bytes, grows 1, reuses 1\n"));
    assert!(rep.render_redacted().contains("arena: peak ### bytes"));

    // A one-shot run is a cold session execution: its fresh arena grows
    // once, and it searches its one sort's plan.
    telemetry::reset();
    let mut q2 = Query::named("spans_one_shot");
    q2.order_by = vec![OrderKey::asc("nation")];
    q2.select = vec!["price".into()];
    let r = run_query(&t, &q2, &EngineConfig::default()).unwrap();
    let snap = telemetry::take_all();
    assert_eq!(counter(&snap, "exec.arena.grow"), Some(1));
    assert_eq!(counter(&snap, "exec.arena.reuse"), None);
    let searches = snap.spans.iter().filter(|s| s.name == "planner.optimal");
    assert_eq!(searches.count(), 1);
    assert_eq!(
        (
            r.timings.mcs_stats.arena.grows,
            r.timings.mcs_stats.arena.reuses
        ),
        (1, 0)
    );
    assert_eq!(
        (r.timings.plan_cache_hits, r.timings.plan_cache_misses),
        (0, 0),
        "no plan is cached"
    );
}

/// The fault-point registry is part of the observability contract: chaos
/// tooling and dashboards key off these exact names.
#[test]
fn fault_point_registry_is_pinned() {
    use codemassage::faults::points;
    assert_eq!(
        points::ALL,
        [
            "planner.search.fail",
            "planner.search.starve",
            "cost.eval.nan",
            "core.round.sort",
            "simd.worker.panic",
            "exec.delay.massage",
            "exec.delay.round",
            "exec.delay.spill",
        ]
    );
    assert_eq!(points::PLANNER_SEARCH, "planner.search.fail");
    assert_eq!(points::PLANNER_STARVE, "planner.search.starve");
    assert_eq!(points::COST_NAN, "cost.eval.nan");
    assert_eq!(points::CORE_ROUND_SORT, "core.round.sort");
    assert_eq!(points::SIMD_WORKER_PANIC, "simd.worker.panic");
    assert_eq!(points::EXEC_DELAY_MASSAGE, "exec.delay.massage");
    assert_eq!(points::EXEC_DELAY_ROUND, "exec.delay.round");
    assert_eq!(points::EXEC_DELAY_SPILL, "exec.delay.spill");
}

/// The cancellation/overload counters and marker spans introduced with
/// the deadline layer: `engine.deadline_exceeded` and `engine.cancelled`
/// fire once per failed query with a query-named marker span;
/// `engine.shed` fires once per gate rejection. Registered here so
/// dashboards can key off the exact names.
#[test]
fn cancellation_counters_and_marker_spans_fire() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Large enough that one query outlasts the spawning of the seven
    // threads it must shed in the saturation step below.
    let t = demo_table(1 << 17);
    let mut db = Database::new();
    db.register(t);
    let session = Session::new(&db, EngineConfig::default());

    let mut q = Query::named("spans_deadline");
    q.order_by = vec![OrderKey::asc("nation")];
    q.select = vec!["price".into()];

    let counter = |snap: &telemetry::TelemetrySnapshot, name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };

    // Pre-expired deadline: one engine.deadline_exceeded count + marker.
    telemetry::reset();
    let opts = QueryOptions::default().with_deadline(std::time::Instant::now());
    let err = session.query("sales", &q, opts).unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded);
    let snap = telemetry::take_all();
    assert_eq!(counter(&snap, "engine.deadline_exceeded"), Some(1));
    assert_eq!(counter(&snap, "engine.cancelled"), None);
    let marker = snap
        .spans
        .iter()
        .find(|s| s.name == "engine.deadline_exceeded")
        .expect("deadline marker span");
    assert!(
        marker
            .attrs
            .iter()
            .any(|(k, v)| *k == "query" && format!("{v:?}").contains("spans_deadline")),
        "attrs: {:?}",
        marker.attrs
    );

    // Manually fired token: one engine.cancelled count + marker.
    telemetry::reset();
    let token = CancelToken::new();
    token.cancel();
    let opts = QueryOptions::default().with_cancel(token);
    let err = session.query("sales", &q, opts).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    let snap = telemetry::take_all();
    assert_eq!(counter(&snap, "engine.cancelled"), Some(1));
    assert_eq!(counter(&snap, "engine.deadline_exceeded"), None);
    assert!(snap.spans.iter().any(|s| s.name == "engine.cancelled"));

    // Saturated gate with zero queue budget: every shed execution counts
    // under engine.shed with a query-named marker span.
    telemetry::reset();
    let prepared = session.prepare("sales", &q).unwrap();
    let batch = vec![prepared; 8];
    let opts = QueryOptions::default().with_queue_timeout(std::time::Duration::ZERO);
    let results = session.run_concurrent(&batch, 1, opts);
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(EngineError::Overloaded { .. })))
        .count() as u64;
    assert!(shed > 0, "zero queue budget under 8x saturation must shed");
    let snap = telemetry::take_all();
    assert_eq!(counter(&snap, "engine.shed"), Some(shed));
    assert!(snap.spans.iter().any(|s| s.name == "engine.shed"));
}
