//! Chaos suite: drive the full engine through the differential oracle
//! while deterministic faults fire at every seam the `mcs-faults` crate
//! instruments — planner search, search-deadline starvation, cost
//! evaluation, per-round sort execution, and worker-thread spawning.
//!
//! The contract under test is the graceful-degradation ladder:
//!
//! * the process never aborts — worker panics become data;
//! * every query either returns the *correct* result (via the `P_0` or
//!   scalar fallback rungs) or a typed [`EngineError`];
//! * each taken rung is recorded in `QueryTimings::degradations` and the
//!   `engine.degraded` telemetry counter.
//!
//! Only compiled with `--features faults`; the injection hooks fold to
//! constant `false` otherwise.
#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use codemassage::engine::reference::{assert_same_rows, naive_execute};
use codemassage::faults::{fired, points, set_delay_micros, with_armed, FireMode};
use codemassage::prelude::*;
use codemassage::telemetry;

/// Held by every test for its whole body. The fault registry, the delay
/// knob and the telemetry collector are process-global, and
/// [`with_armed`] only serializes the armed sections: a test's clean
/// (unarmed) run would otherwise traverse whatever a concurrently running
/// test has armed and take rungs it asserts it did not.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_table(n: usize) -> Table {
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
        "price",
        17,
        (0..n).map(|i| i as u64 % 1000),
    ));
    t
}

fn groupby_query() -> Query {
    let mut q = Query::named("chaos_groupby");
    q.group_by = vec!["nation".into(), "ship_date".into()];
    q.aggregates = vec![
        Agg::new(AggKind::Count, "cnt"),
        Agg::new(AggKind::Sum("price".into()), "sum_price"),
    ];
    q
}

/// Run under ROGA, check against the oracle, and return the rungs taken.
/// Telemetry counters are only asserted when the feature is on (the chaos
/// suite also builds under `--no-default-features --features faults`).
fn run_and_check(t: &Table, q: &Query, cfg: &EngineConfig) -> Vec<DegradeReason> {
    telemetry::reset();
    let r = run_query(t, q, cfg).expect("recoverable fault must not fail the query");
    let want = naive_execute(t, q);
    let got: Vec<(String, Vec<u64>)> = r.columns.clone();
    assert_same_rows(&got, &want);
    if telemetry::is_enabled() {
        let snap = telemetry::take_all();
        let counted = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "engine.degraded")
            .map_or(0, |&(_, v)| v);
        assert_eq!(
            counted,
            r.timings.degradations.len() as u64,
            "every rung must be counted (counters: {:?})",
            snap.counters
        );
    }
    r.timings.degradations
}

/// Fault 1: the planner search itself errors out. The engine must fall
/// back to P0 and still produce the right answer.
#[test]
fn planner_search_failure_degrades_to_p0() {
    let _serial = serial();
    let t = chaos_table(4096);
    let q = groupby_query();
    let cfg = EngineConfig::default(); // ROGA
    let rungs = with_armed(&[(points::PLANNER_SEARCH, FireMode::Always)], || {
        let rungs = run_and_check(&t, &q, &cfg);
        assert!(fired(points::PLANNER_SEARCH) > 0, "fault never traversed");
        rungs
    });
    assert_eq!(rungs, vec![DegradeReason::PlanSearchFailed]);
}

/// Fault 2: the ρ deadline starves the search — it times out before a
/// single plan is costed. P0 runs without an estimate.
#[test]
fn deadline_starvation_runs_p0() {
    let _serial = serial();
    let t = chaos_table(4096);
    let q = groupby_query();
    let cfg = EngineConfig::default();
    let rungs = with_armed(&[(points::PLANNER_STARVE, FireMode::Always)], || {
        run_and_check(&t, &q, &cfg)
    });
    assert_eq!(rungs, vec![DegradeReason::DeadlineStarved]);
}

/// Fault 3: the cost model returns NaN for every plan. NaN comparisons
/// are all false, so the search's ranking is meaningless — the engine
/// must detect the non-finite estimate and trust Lemma 1 over it.
#[test]
fn nan_cost_estimates_degrade_to_p0() {
    let _serial = serial();
    let t = chaos_table(4096);
    let q = groupby_query();
    let cfg = EngineConfig {
        // No deadline: starvation can't mask the NaN path.
        planner: PlannerMode::Roga { rho: None },
        ..EngineConfig::default()
    };
    let rungs = with_armed(&[(points::COST_NAN, FireMode::Always)], || {
        let rungs = run_and_check(&t, &q, &cfg);
        assert!(fired(points::COST_NAN) > 0, "fault never traversed");
        rungs
    });
    assert_eq!(rungs, vec![DegradeReason::NonFiniteCost]);
}

/// Fault 4: a parallel-sort worker thread panics mid-round. The panic is
/// caught at the scope boundary, converted to a typed error carrying the
/// chunk index, and the engine re-runs the sort.
#[test]
fn worker_panic_is_caught_and_rerun() {
    let _serial = serial();
    let t = chaos_table(20_000); // big enough for the parallel path
    let q = groupby_query();
    let cfg = EngineConfig {
        exec: ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        },
        ..EngineConfig::default()
    };
    let rungs = with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
        // Silence the injected worker's panic backtrace.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let rungs = run_and_check(&t, &q, &cfg);
        std::panic::set_hook(prev);
        assert!(
            fired(points::SIMD_WORKER_PANIC) > 0,
            "fault never traversed"
        );
        rungs
    });
    assert_eq!(rungs.first(), Some(&DegradeReason::ExecFailed));
}

/// Fault 5: every round-sort attempt fails, under every plan — the P0
/// retry included. The engine must reach the bottom rung and answer via
/// the scalar comparator sort.
#[test]
fn persistent_round_failure_falls_to_scalar_sort() {
    let _serial = serial();
    let t = chaos_table(4096);
    let q = groupby_query();
    let cfg = EngineConfig::default();
    let rungs = with_armed(&[(points::CORE_ROUND_SORT, FireMode::Always)], || {
        run_and_check(&t, &q, &cfg)
    });
    assert_eq!(rungs.first(), Some(&DegradeReason::ExecFailed));
    assert_eq!(rungs.last(), Some(&DegradeReason::ScalarFallback));
}

/// The same ladder holds for ORDER BY (no grouping) and for the
/// grouped-result post-sort (TPC-H Q13's shape).
#[test]
fn orderby_and_post_sort_survive_round_faults() {
    let _serial = serial();
    let t = chaos_table(4096);

    let mut ob = Query::named("chaos_orderby");
    ob.order_by = vec![OrderKey::asc("nation"), OrderKey::desc("ship_date")];
    ob.select = vec!["nation".into(), "ship_date".into(), "price".into()];

    let mut post = groupby_query();
    post.order_by = vec![OrderKey::desc("cnt")];

    let cfg = EngineConfig::default();
    for q in [&ob, &post] {
        let rungs = with_armed(&[(points::CORE_ROUND_SORT, FireMode::Always)], || {
            run_and_check(&t, q, &cfg)
        });
        assert_eq!(
            rungs.last(),
            Some(&DegradeReason::ScalarFallback),
            "query {}",
            q.name
        );
    }
}

/// SELECT of sort keys down the ladder: the massaged sort decodes them
/// from its sorted round keys, the `P_0` retry decodes them from its
/// own, and the scalar sort reads them through its oids. A round fault
/// that fires once sends a stitched plan to `P_0`; one that always fires
/// reaches the scalar rung. ORDER BY (filtered or not) and RANK, with a
/// DESC key, must equal the naive reference byte for byte.
#[test]
fn selected_key_columns_survive_the_p0_and_scalar_rungs() {
    let _serial = serial();
    let t = chaos_table(4096);
    let mut ob = Query::named("chaos_select_keys");
    ob.order_by = vec![OrderKey::desc("nation"), OrderKey::asc("ship_date")];
    ob.select = vec!["ship_date".into(), "price".into(), "nation".into()];
    let mut filtered = ob.clone();
    filtered.filters = vec![Filter {
        column: "price".into(),
        predicate: Predicate::Lt(500),
    }];
    let mut rank = Query::named("chaos_select_keys_rank");
    rank.partition_by = vec!["nation".into()];
    rank.window_order = vec![OrderKey::desc("ship_date")];
    rank.select = vec!["nation".into(), "ship_date".into(), "price".into()];
    // nation (10 bits) and ship_date (17 bits) stitched into one round.
    let cfg = EngineConfig::builder()
        .planner(PlannerMode::Fixed(MassagePlan::from_widths(&[27])))
        .build();
    for q in [&ob, &filtered, &rank] {
        let want = naive_execute(&t, q);
        let clean = run_query(&t, q, &cfg).expect("clean run");
        assert!(clean.timings.degradations.is_empty(), "query {}", q.name);
        assert_eq!(clean.columns, want, "query {} clean", q.name);
        for (mode, rung) in [
            (FireMode::Once, DegradeReason::ExecFailed),
            (FireMode::Always, DegradeReason::ScalarFallback),
        ] {
            let r = with_armed(&[(points::CORE_ROUND_SORT, mode)], || {
                run_query(&t, q, &cfg).expect("recoverable fault must not fail the query")
            });
            assert_eq!(
                r.timings.degradations.last(),
                Some(&rung),
                "query {}",
                q.name
            );
            assert_eq!(r.columns, want, "query {} under {mode:?}", q.name);
        }
    }
}

/// The merge-sort's out-of-cache loser tree rides the same degradation
/// ladder. With the in-cache threshold shrunk so the big first-round
/// sort runs real out-of-cache merge passes, round faults must leave
/// results oracle-correct, and the clean merge path must not change a
/// single row.
#[test]
fn merge_sort_out_of_cache_path_survives_round_faults() {
    let _serial = serial();
    let t = chaos_table(8192);
    let mut q = Query::named("chaos_merge_orderby");
    q.order_by = vec![OrderKey::asc("ship_date"), OrderKey::asc("price")];
    q.select = vec!["ship_date".into(), "price".into(), "nation".into()];

    // The loser tree is the merge-sort's: pin that kernel.
    let mut cfg = EngineConfig::builder()
        .kernel(SortKernel::MergeSort)
        .build();
    cfg.exec.sort.in_cache_bytes = 2048; // ~256-element runs: forces multiway passes

    // Clean run under the forced merge path.
    let rungs = run_and_check(&t, &q, &cfg);
    assert!(rungs.is_empty(), "no faults, no rungs");

    // Every round-sort attempt fails: the ladder must still answer
    // through the scalar bottom rung.
    let rungs = with_armed(&[(points::CORE_ROUND_SORT, FireMode::Always)], || {
        run_and_check(&t, &q, &cfg)
    });
    assert_eq!(rungs.last(), Some(&DegradeReason::ScalarFallback));
}

/// A mid-round failure must not poison the session's execution arena.
/// The executor restores the arena's buffers on every exit path —
/// including a worker panic halfway through a round, which leaves
/// partially-permuted garbage in them — and the next execution on the
/// same session (same arena) must fully overwrite what it reads.
#[test]
fn mid_round_fault_does_not_poison_the_session_arena() {
    let _serial = serial();
    let t = chaos_table(20_000); // big enough for the parallel path
    let mut db = Database::new();
    db.register(t.clone());
    let cfg = EngineConfig {
        exec: ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        },
        ..EngineConfig::default()
    };
    let session = Session::new(&db, cfg);
    let q = groupby_query();
    let prepared = session.prepare("sales", &q).expect("prepare");
    let want = naive_execute(&t, &q);

    // Warm the arena with a clean run first.
    let clean = prepared.execute(&session).expect("clean run");
    assert_same_rows(&clean.columns, &want);

    // Fault a worker mid-round: the query degrades but still answers
    // correctly, with the arena's buffers left mid-permutation.
    with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let degraded = prepared.execute(&session).expect("ladder recovers");
        std::panic::set_hook(prev);
        assert!(
            fired(points::SIMD_WORKER_PANIC) > 0,
            "fault never traversed"
        );
        assert_eq!(
            degraded.timings.degradations.first(),
            Some(&DegradeReason::ExecFailed)
        );
        assert_same_rows(&degraded.columns, &want);
    });

    // Disarmed rerun on the same session reuses those buffers and must
    // be byte-identical to the pre-fault run.
    let after = prepared.execute(&session).expect("disarmed rerun");
    assert!(after.timings.degradations.is_empty(), "no rungs disarmed");
    assert_eq!(after.columns, clean.columns);
    let stats = session.arena_stats();
    assert!(
        stats.grows + stats.reuses >= 3,
        "every execution accounted: {stats:?}"
    );
}

/// The worker panic contract at the executor level, below the
/// degradation ladder: `simd.worker.panic` armed `Once` fires on the
/// first task some worker starts, mid-round. The sort must surface a
/// clean typed `WorkerPanicked` (never abort or hang — the sibling
/// workers finish their own ranges and join), the shared arena must come back
/// unpoisoned, and the disarmed rerun on that same arena must be
/// byte-identical to a fresh-buffer run.
#[test]
fn mid_morsel_worker_panic_is_typed_and_leaves_the_arena_clean() {
    let _serial = serial();
    use codemassage::core::SortError;
    use mcs_columnar::CodeVec;

    let n = 30_000usize;
    let a = CodeVec::from_u64s(
        10,
        (0..n).map(|i| (i as u64).wrapping_mul(0x9e37_79b9) % 50),
    );
    let b = CodeVec::from_u64s(
        17,
        (0..n).map(|i| (i as u64).wrapping_mul(0x85eb_ca6b) % 5000),
    );
    let refs = vec![&a, &b];
    let specs = vec![SortSpec::asc(10), SortSpec::asc(17)];
    let plan = MassagePlan::column_at_a_time(&specs);
    let cfg = ExecConfig {
        threads: 4,
        want_final_groups: true,
        ..ExecConfig::default()
    };
    let clean = multi_column_sort(&refs, None, &specs, &plan, &cfg, &mut ExecArena::new())
        .expect("clean run");

    let mut arena = ExecArena::new();
    with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = multi_column_sort(&refs, None, &specs, &plan, &cfg, &mut arena)
            .expect_err("armed worker panic must fail the sort");
        std::panic::set_hook(prev);
        assert!(
            fired(points::SIMD_WORKER_PANIC) > 0,
            "fault never traversed"
        );
        assert!(
            matches!(err, SortError::WorkerPanicked { .. }),
            "expected a typed WorkerPanicked, got {err:?}"
        );
    });

    // Disarmed rerun on the arena the panic unwound through.
    let after = multi_column_sort(&refs, None, &specs, &plan, &cfg, &mut arena)
        .expect("arena survived the panic");
    assert_eq!(after.oids, clean.oids, "post-panic rerun oids");
    assert_eq!(
        after.groups.offsets, clean.groups.offsets,
        "post-panic rerun group bounds"
    );
}

/// A memory budget small enough that the chaos queries' sort footprint
/// exceeds it, forcing the budgeted bucket sort (and with it the
/// `exec.delay.spill` point) to run.
fn budgeted_cfg() -> EngineConfig {
    EngineConfig::builder()
        .threads(2)
        .memory_budget(48 * 1024)
        .build()
}

/// Sweep: every registered fault point, in several deterministic firing
/// patterns, across query shapes — in memory and under a partition-forcing
/// memory budget. No process abort, and always either a correct answer
/// or (never, for these faults) a typed error.
#[test]
fn chaos_sweep_never_aborts_and_stays_correct() {
    let _serial = serial();
    let t = chaos_table(8192);
    let mut ob = Query::named("sweep_orderby");
    ob.order_by = vec![OrderKey::desc("price"), OrderKey::asc("nation")];
    ob.select = vec!["price".into(), "nation".into()];
    let queries = [groupby_query(), ob];

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for &point in points::ALL {
        for mode in [
            FireMode::Always,
            FireMode::Once,
            FireMode::Nth(3),
            FireMode::Probability {
                millionths: 500_000,
                seed: 0xC0FFEE,
            },
        ] {
            for q in &queries {
                // The budgeted config routes the sort through the bucket
                // partition, so every fault also has to compose with it
                // (bucket sorts fail inside it, the ladder still recovers).
                for cfg in [EngineConfig::builder().threads(2).build(), budgeted_cfg()] {
                    with_armed(&[(point, mode)], || {
                        let r = run_query(&t, q, &cfg)
                            .expect("recoverable fault must not fail the query");
                        let want = naive_execute(&t, q);
                        assert_same_rows(&r.columns, &want);
                    });
                }
            }
        }
    }
    std::panic::set_hook(prev);
}

// ---------------------------------------------------------------------------
// Deadlines and cooperative cancellation
// ---------------------------------------------------------------------------
//
// The `exec.delay.*` fault points inject latency *inside* a chosen phase
// (massage, per-round loop, each bucket of a budgeted sort), so a deadline shorter
// than the injected delay deterministically expires while that phase is
// running. The contract under test, per phase:
//
// * the query fails with the typed `DeadlineExceeded` / `Cancelled`
//   error — never a wrapped `Sort(..)`;
// * the error unwinds without poisoning the session arena: the same
//   session then answers the same prepared
//   query byte-identically to a pre-fault clean run;
// * once the deadline has fired, the degradation ladder takes no
//   further rungs — a timed-out query never doubles its work.

/// Injected latency large enough that a deadline set mid-run is
/// guaranteed to expire during the armed delay point's sleep.
const DELAY_US: u64 = 150_000;
/// Headroom for the un-delayed phases to run before the armed one.
const HEADROOM: Duration = Duration::from_millis(50);

/// An already-expired deadline fails fast before *any* phase runs: an
/// armed-Always delay point at the massage entry never traverses.
#[test]
fn pre_expired_deadline_executes_no_phase() {
    let _serial = serial();
    let t = chaos_table(4096);
    let mut db = Database::new();
    db.register(t.clone());
    let session = Session::new(&db, EngineConfig::builder().threads(2).build());
    let q = groupby_query();

    with_armed(&[(points::EXEC_DELAY_MASSAGE, FireMode::Always)], || {
        let opts = QueryOptions::default().with_deadline(Instant::now());
        let err = session
            .query("sales", &q, opts)
            .expect_err("expired deadline must fail");
        assert!(matches!(err, EngineError::DeadlineExceeded), "{err}");
        assert_eq!(
            fired(points::EXEC_DELAY_MASSAGE),
            0,
            "massage started despite an already-expired deadline"
        );
    });

    // The fail-fast path held no resources: the session still answers.
    let r = session
        .query("sales", &q, QueryOptions::default())
        .expect("session reusable");
    assert_same_rows(&r.columns, &naive_execute(&t, &q));
}

/// Fire the deadline inside each pipeline phase in turn. Every case must
/// surface the typed error from *that* phase (the armed delay point
/// traversed), leak nothing, and leave the session able to reproduce a
/// pre-fault clean run byte-for-byte.
#[test]
fn deadline_fires_inside_every_phase_without_poisoning_the_session() {
    let _serial = serial();
    let t = chaos_table(8192);
    let mut db = Database::new();
    db.register(t.clone());
    let q = groupby_query();
    let want = naive_execute(&t, &q);

    let cases: [(&str, &str, bool); 3] = [
        (points::EXEC_DELAY_MASSAGE, "massage", false),
        (points::EXEC_DELAY_ROUND, "round", false),
        (points::EXEC_DELAY_SPILL, "bucket", true),
    ];
    for (point, phase, budgeted) in cases {
        let cfg = if budgeted {
            budgeted_cfg()
        } else {
            EngineConfig::builder().threads(2).build()
        };
        let session = Session::new(&db, cfg);
        let prepared = session.prepare("sales", &q).expect("prepare");
        let clean = prepared.execute(&session).expect("clean warm run");
        assert_same_rows(&clean.columns, &want);

        with_armed(&[(point, FireMode::Always)], || {
            set_delay_micros(DELAY_US);
            let opts = QueryOptions::default().with_timeout(HEADROOM);
            let err = session
                .query("sales", &q, opts)
                .expect_err("deadline shorter than the injected delay");
            assert!(
                matches!(err, EngineError::DeadlineExceeded),
                "{phase}: {err}"
            );
            assert!(
                fired(point) > 0,
                "{phase}: delay never traversed — the deadline cannot have \
                 fired inside the phase under test"
            );
        });

        // Same session, same prepared query: the abandoned run restored
        // its arena lease, so the rerun is clean and byte-identical.
        let after = prepared.execute(&session).expect("post-deadline rerun");
        assert!(
            after.timings.degradations.is_empty(),
            "{phase}: rerun took rungs {:?}",
            after.timings.degradations
        );
        assert_eq!(after.columns, clean.columns, "{phase}: rerun differs");
    }
}

/// A cancelled query never enters the degradation ladder: with every
/// sort attempt rigged to fail recoverably, cancellation during massage
/// must preempt the first sort attempt entirely — zero rungs, zero
/// sort-fault traversals, typed `Cancelled`.
#[test]
fn cancellation_preempts_the_degradation_ladder() {
    let _serial = serial();
    let t = chaos_table(8192);
    let mut db = Database::new();
    db.register(t.clone());
    let session = Session::new(&db, EngineConfig::builder().threads(2).build());
    let q = groupby_query();

    telemetry::reset();
    with_armed(
        &[
            (points::EXEC_DELAY_MASSAGE, FireMode::Always),
            (points::CORE_ROUND_SORT, FireMode::Always),
        ],
        || {
            set_delay_micros(DELAY_US);
            let token = CancelToken::new();
            let opts = QueryOptions::default().with_cancel(token.clone());
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(HEADROOM);
                    token.cancel();
                });
                let err = session
                    .query("sales", &q, opts)
                    .expect_err("cancelled mid-massage");
                assert!(matches!(err, EngineError::Cancelled), "{err}");
            });
            assert_eq!(
                fired(points::CORE_ROUND_SORT),
                0,
                "a cancelled query attempted a sort"
            );
        },
    );
    if telemetry::is_enabled() {
        let snap = telemetry::take_all();
        assert!(
            !snap.counters.iter().any(|(n, _)| *n == "engine.degraded"),
            "a cancelled query took ladder rungs: {:?}",
            snap.counters
        );
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| *n == "engine.cancelled" && *v == 1),
            "cancellation outcome not counted: {:?}",
            snap.counters
        );
    }
}

/// Manual cancellation beats a (much later) deadline on the same token:
/// the error cause reports what actually stopped the query.
#[test]
fn manual_cancel_wins_over_a_pending_deadline() {
    let _serial = serial();
    let t = chaos_table(8192);
    let mut db = Database::new();
    db.register(t.clone());
    let session = Session::new(&db, EngineConfig::builder().threads(2).build());
    let q = groupby_query();

    with_armed(&[(points::EXEC_DELAY_ROUND, FireMode::Always)], || {
        set_delay_micros(DELAY_US);
        let token = CancelToken::new();
        let opts = QueryOptions::default()
            .with_cancel(token.clone())
            .with_timeout(Duration::from_secs(600));
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(HEADROOM);
                token.cancel();
            });
            let err = session
                .query("sales", &q, opts)
                .expect_err("cancelled mid-round");
            assert!(
                matches!(err, EngineError::Cancelled),
                "manual cancel must win over the far-future deadline: {err}"
            );
        });
        assert!(fired(points::EXEC_DELAY_ROUND) > 0, "delay never traversed");
    });

    let r = session
        .query("sales", &q, QueryOptions::default())
        .expect("session reusable");
    assert_same_rows(&r.columns, &naive_execute(&t, &q));
}
