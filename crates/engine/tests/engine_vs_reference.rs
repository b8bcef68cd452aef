//! Integration tests: the fast pipeline agrees with the naive reference
//! executor on every query shape, with and without code massaging.

use mcs_columnar::{Column, Predicate, Table};
use mcs_engine::reference::{assert_same_order, assert_same_rows, naive_execute};
use mcs_engine::{
    run_query, Agg, AggKind, Database, EngineConfig, EngineError, Filter, MassagePlan, OrderKey,
    PlannerMode, Query, QueryOptions, QueryResult, Session,
};
use mcs_planner::{optimal, SearchScratch};
use mcs_test_support::Rng;

fn test_table(rows: usize, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Table::new("t");
    t.add_column(Column::from_u64s(
        "nation",
        5,
        (0..rows).map(|_| rng.gen_range(0..25u64)),
    ));
    t.add_column(Column::from_u64s(
        "date",
        12,
        (0..rows).map(|_| rng.gen_range(0..2557u64)),
    ));
    t.add_column(Column::from_u64s(
        "price",
        17,
        (0..rows).map(|_| rng.gen_range(0..100_000u64)),
    ));
    t.add_column(Column::from_u64s(
        "qty",
        6,
        (0..rows).map(|_| rng.gen_range(1..51u64)),
    ));
    t.add_column(Column::from_u64s(
        "flag",
        2,
        (0..rows).map(|_| rng.gen_range(0..3u64)),
    ));
    t
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("no-massaging", EngineConfig::without_massaging()),
        ("roga", EngineConfig::default()),
        (
            "roga-unbounded",
            EngineConfig {
                planner: PlannerMode::Roga { rho: None },
                ..EngineConfig::default()
            },
        ),
    ]
}

#[test]
fn group_by_with_aggregates() {
    let t = test_table(4000, 1);
    let mut q = Query::named("g1");
    q.group_by = vec!["nation".into(), "flag".into()];
    q.aggregates = vec![
        Agg::new(AggKind::Sum("price".into()), "rev"),
        Agg::new(AggKind::Count, "cnt"),
        Agg::new(AggKind::Avg("qty".into()), "aq"),
        Agg::new(AggKind::Min("date".into()), "mind"),
        Agg::new(AggKind::Max("date".into()), "maxd"),
        Agg::new(AggKind::CountDistinct("qty".into()), "dq"),
    ];
    let want = naive_execute(&t, &q);
    for (name, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        assert_same_rows(&got.columns, &want);
        assert!(got.rows > 0, "{name}");
    }
}

#[test]
fn group_by_with_order_by_aggregate_q13_style() {
    let t = test_table(3000, 2);
    let mut q = Query::named("q13ish");
    q.group_by = vec!["flag".into(), "nation".into()];
    q.aggregates = vec![Agg::new(AggKind::Count, "custdist")];
    q.order_by = vec![OrderKey::desc("custdist"), OrderKey::desc("nation")];
    let want = naive_execute(&t, &q);
    for (name, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        assert_same_order(
            &got.columns,
            &want,
            &["custdist".to_string(), "nation".to_string()],
        );
        let _ = name;
    }
}

#[test]
fn order_by_mixed_directions_with_filter() {
    let t = test_table(5000, 3);
    let mut q = Query::named("o1");
    q.filters = vec![Filter {
        column: "price".into(),
        predicate: Predicate::Lt(60_000),
    }];
    q.select = vec!["nation".into(), "date".into(), "price".into()];
    q.order_by = vec![
        OrderKey::asc("nation"),
        OrderKey::desc("date"),
        OrderKey::asc("price"),
    ];
    let want = naive_execute(&t, &q);
    for (_, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        // The full key (nation, date, price) is unique enough to compare
        // the ordered key columns directly.
        assert_same_order(
            &got.columns,
            &want,
            &[
                "nation".to_string(),
                "date".to_string(),
                "price".to_string(),
            ],
        );
    }
}

#[test]
fn window_rank_partition_by() {
    let t = test_table(2500, 4);
    let mut q = Query::named("w1");
    q.filters = vec![Filter {
        column: "flag".into(),
        predicate: Predicate::Eq(1),
    }];
    q.select = vec!["nation".into(), "flag".into(), "qty".into()];
    q.partition_by = vec!["nation".into(), "flag".into()];
    q.window_order = vec![OrderKey::asc("qty")];
    let want = naive_execute(&t, &q);
    for (_, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        assert_same_rows(&got.columns, &want);
    }
}

#[test]
fn window_rank_desc_order() {
    let t = test_table(1000, 5);
    let mut q = Query::named("w2");
    q.select = vec!["nation".into(), "price".into()];
    q.partition_by = vec!["nation".into()];
    q.window_order = vec![OrderKey::desc("price")];
    let want = naive_execute(&t, &q);
    for (_, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        assert_same_rows(&got.columns, &want);
    }
}

#[test]
fn empty_filter_result() {
    let t = test_table(500, 6);
    let mut q = Query::named("e");
    q.filters = vec![Filter {
        column: "qty".into(),
        predicate: Predicate::Gt(1000),
    }];
    q.group_by = vec!["nation".into(), "flag".into()];
    q.aggregates = vec![Agg::new(AggKind::Count, "c")];
    for (_, cfg) in configs() {
        let got = run_query(&t, &q, &cfg).unwrap();
        // One empty "group" covering zero rows collapses to zero output
        // rows in the reference; the engine may produce either zero rows
        // or a single empty group — check totals instead.
        let total: u64 = got.column("c").map(|v| v.iter().sum()).unwrap_or(0);
        assert_eq!(total, 0);
    }
}

#[test]
fn fixed_plan_mode_works() {
    let t = test_table(2000, 7);
    let mut q = Query::named("f");
    q.group_by = vec!["nation".into(), "date".into()];
    q.aggregates = vec![Agg::new(AggKind::Sum("qty".into()), "s")];
    // nation(5) + date(12) = 17 bits: stitch into one round.
    let cfg = EngineConfig {
        planner: PlannerMode::Fixed(mcs_engine::MassagePlan::from_widths(&[17])),
        ..EngineConfig::default()
    };
    let got = run_query(&t, &q, &cfg).unwrap();
    let want = naive_execute(&t, &q);
    assert_same_rows(&got.columns, &want);
    assert_eq!(
        got.timings.plan.as_ref().unwrap().notation(),
        "{R1: 17/[32]}"
    );
}

#[test]
fn timings_are_recorded() {
    let t = test_table(3000, 9);
    let mut q = Query::named("t");
    q.filters = vec![Filter {
        column: "date".into(),
        predicate: Predicate::Le(2000),
    }];
    q.group_by = vec!["nation".into(), "date".into()];
    q.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "rev")];
    let got = run_query(&t, &q, &EngineConfig::default()).unwrap();
    let tm = &got.timings;
    assert!(tm.filter_scan_ns > 0);
    assert!(tm.gather_ns > 0);
    assert!(tm.mcs_ns > 0);
    assert!(tm.aggregate_ns > 0);
    assert!(tm.total_ns >= tm.mcs_ns);
    assert!(tm.plan.is_some());
    assert_eq!(
        tm.mcs_stats.rounds.len(),
        tm.plan.as_ref().unwrap().num_rounds()
    );
}

/// A random table `name` for the generated-query properties: 0–3,000
/// rows, 2–5 columns `c0..`, each of width 1–20 with an NDV between 1 and
/// the row count.
fn random_table(rng: &mut mcs_test_support::Rng, name: &str) -> Table {
    let rows = if rng.gen_bool(0.1) {
        rng.gen_range(0..8usize)
    } else {
        rng.gen_range(0..=3000usize)
    };
    let mut t = Table::new(name);
    for c in 0..rng.gen_range(2..=5usize) {
        let width = rng.gen_range(1..=20u32);
        let ndv = rng.gen_range(1..=rows.max(1) as u64).min(1 << width);
        let vals: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..ndv)).collect();
        t.add_column(Column::from_u64s(format!("c{c}"), width, vals));
    }
    t
}

/// `k` distinct column names of `t`, in random order.
fn random_columns(rng: &mut mcs_test_support::Rng, t: &Table, k: usize) -> Vec<String> {
    let mut names: Vec<String> = (0..t.columns().len()).map(|c| format!("c{c}")).collect();
    rng.shuffle(&mut names);
    names.truncate(k);
    names
}

fn random_key(rng: &mut mcs_test_support::Rng, column: &str) -> OrderKey {
    if rng.gen_bool(0.5) {
        OrderKey::desc(column)
    } else {
        OrderKey::asc(column)
    }
}

/// ORDER BY over 1..=all columns, mixed directions, selecting every
/// column, with an optional range filter.
fn random_order_by(rng: &mut mcs_test_support::Rng, t: &Table) -> Query {
    let mut q = Query::named("gen_order_by");
    q.select = random_columns(rng, t, t.columns().len());
    let k = rng.gen_range(1..=t.columns().len());
    q.order_by = random_columns(rng, t, k)
        .iter()
        .map(|c| random_key(rng, c))
        .collect();
    if rng.gen_bool(0.5) {
        let column = random_columns(rng, t, 1).remove(0);
        let max = t.expect_column(&column).stats().max;
        q.filters = vec![Filter {
            column,
            predicate: Predicate::Le(rng.gen_range(0..=max)),
        }];
    }
    q
}

/// GROUP BY 1–3 keys with 1–6 aggregates of every kind (the first two
/// over one shared column) and an optional ORDER BY over keys or labels.
fn random_group_by(rng: &mut mcs_test_support::Rng, t: &Table) -> Query {
    let mut q = Query::named("gen_group_by");
    let k = rng.gen_range(1..=3usize.min(t.columns().len()));
    q.group_by = random_columns(rng, t, k);
    let shared = random_columns(rng, t, 1).remove(0);
    for i in 0..rng.gen_range(1..=6usize) {
        let c = if i < 2 {
            shared.clone()
        } else {
            random_columns(rng, t, 1).remove(0)
        };
        // A sum over a column wider than 40 bits could overflow: take
        // its minimum or maximum instead.
        let wide = t.expect_column(&c).width() > 40;
        let kind = match rng.gen_range(0..6u32) {
            0 => AggKind::Count,
            1 => AggKind::CountDistinct(c),
            2 if wide => AggKind::Min(c),
            3 if wide => AggKind::Max(c),
            2 => AggKind::Sum(c),
            3 => AggKind::Avg(c),
            4 => AggKind::Min(c),
            _ => AggKind::Max(c),
        };
        q.aggregates.push(Agg::new(kind, format!("a{i}")));
    }
    if rng.gen_bool(0.6) {
        let mut outputs: Vec<String> = q.group_by.clone();
        outputs.extend(q.aggregates.iter().map(|a| a.label.clone()));
        rng.shuffle(&mut outputs);
        outputs.truncate(rng.gen_range(1..=2usize));
        q.order_by = outputs.iter().map(|c| random_key(rng, c)).collect();
    }
    q
}

/// RANK() OVER (PARTITION BY 1–2 keys ORDER BY 1–2 keys), mixed
/// directions, selecting every column.
fn random_window(rng: &mut mcs_test_support::Rng, t: &Table) -> Query {
    let mut q = Query::named("gen_window");
    q.select = random_columns(rng, t, t.columns().len());
    let np = rng.gen_range(1..=2usize.min(t.columns().len() - 1));
    let no = rng.gen_range(1..=2usize.min(t.columns().len() - np));
    let cols = random_columns(rng, t, np + no);
    q.partition_by = cols[..np].to_vec();
    q.window_order = cols[np..].iter().map(|c| random_key(rng, c)).collect();
    q
}

/// Check `q`'s result under `cfg` against the naive reference: ORDER BY
/// in order, everything else as a multiset of rows.
fn assert_matches_naive(t: &Table, q: &Query, name: &str, cfg: &EngineConfig) -> QueryResult {
    let want = naive_execute(t, q);
    let got = run_query(t, q, cfg).unwrap_or_else(|e| panic!("[{name}] {q:?} failed: {e}"));
    let ordered: Vec<String> = q.order_by.iter().map(|k| k.column.clone()).collect();
    if q.partition_by.is_empty() && !ordered.is_empty() {
        assert_same_order(&got.columns, &want, &ordered);
    } else {
        assert_same_rows(&got.columns, &want);
    }
    got
}

/// Generated queries of every shape agree with the naive reference
/// under column-at-a-time, ROGA, four threads and a binding memory
/// budget.
/// Replay one case with `MCS_TEST_SEED=<seed>`.
#[test]
fn generated_queries_match_reference() {
    let configs = [
        ("no-massaging", EngineConfig::without_massaging()),
        ("roga", EngineConfig::default()),
        ("threads4", EngineConfig::builder().threads(4).build()),
        (
            "budget",
            EngineConfig::builder().memory_budget(8 * 1024).build(),
        ),
    ];
    mcs_test_support::prop::check("generated_queries_match_reference", 64, |rng| {
        let t = random_table(rng, "gen");
        let queries = [
            random_order_by(rng, &t),
            random_group_by(rng, &t),
            random_window(rng, &t),
        ];
        for q in &queries {
            for (name, cfg) in &configs {
                let _ = assert_matches_naive(&t, q, name, cfg);
            }
        }
    });
}

/// Each execution plans its own instance: over a fixed set of random
/// tables served by one shared session, every ORDER BY, GROUP BY and
/// window query that took no degradation rung ran a plan whose `T_mcs`
/// on its own sort instance is the optimum of that instance. Each query
/// runs under a sweep of eight filters keeping ever more rows, so
/// instances of one shape that differ only a little follow each other
/// through the session and its pooled search scratch.
#[test]
fn each_query_runs_its_own_instances_optimum() {
    let mut rng = Rng::seed_from_u64(0x51_0B_71_3A);
    let mut db = Database::new();
    let names: Vec<String> = (0..12).map(|i| format!("t{i}")).collect();
    for name in &names {
        db.register(random_table(&mut rng, name));
    }
    let session = Session::new(&db, EngineConfig::default());
    let model = &session.config().model;
    let mut scratch = SearchScratch::default();
    let mut checked = 0;
    for name in &names {
        let t = db.table(name).unwrap();
        let queries = [
            random_order_by(&mut rng, t),
            random_group_by(&mut rng, t),
            random_window(&mut rng, t),
        ];
        for q in &queries {
            let column = q.sort_keys()[0].column.clone();
            let max = t.expect_column(&column).stats().max;
            for eighths in 1..=8 {
                let mut q = q.clone();
                q.filters = vec![Filter {
                    column: column.clone(),
                    predicate: Predicate::Le(max * eighths / 8),
                }];
                let r = session.query(name, &q, QueryOptions::default()).unwrap();
                let tm = &r.timings;
                let (Some(plan), Some(inst)) = (&tm.plan, &tm.sort_instance) else {
                    continue;
                };
                if !tm.degradations.is_empty() {
                    continue;
                }
                let ran = model.t_mcs(inst, plan);
                let best = optimal(inst, model, q.order_free(), &mut scratch)
                    .unwrap()
                    .est_cost;
                assert!(
                    (ran - best).abs() <= 1e-9 * best.abs().max(1.0),
                    "{name} {q:?}: ran {plan} at {ran}, optimum {best}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 200, "only {checked} sorts checked");
}

/// A random table for the rank-code axis: 0–3,000 rows, 2–5 columns
/// `c0..` of width 2–64, each holding 1–300 distinct values spread over
/// its whole domain (its extremes among them half the time). Nearly
/// every column a sort reads is rank-coded, through a dictionary that is
/// far from the identity.
fn rank_coded_table(rng: &mut mcs_test_support::Rng) -> Table {
    let rows = if rng.gen_bool(0.1) {
        rng.gen_range(0..8usize)
    } else {
        rng.gen_range(0..=3000usize)
    };
    let mut t = Table::new("ranked");
    for c in 0..rng.gen_range(2..=5usize) {
        let width = rng.gen_range(2..=64u32);
        let mask = u64::MAX >> (64 - width);
        let mut picks: Vec<u64> = (0..rng.gen_range(1..=300usize))
            .map(|_| rng.gen::<u64>() & mask)
            .collect();
        if rng.gen_bool(0.5) {
            picks.extend([0, mask]);
        }
        let vals: Vec<u64> = (0..rows).map(|_| *rng.choose(&picks)).collect();
        t.add_column(Column::from_u64s(format!("c{c}"), width, vals));
    }
    t
}

/// Generated queries over rank-coded keys agree with the naive reference
/// byte for byte — ORDER BY (mixed directions, filtered or not, SELECT of
/// every key, so each key is decoded through its dictionary), GROUP BY
/// (with ORDER BY over keys or labels: two-stage), PARTITION BY — under
/// ROGA, column-at-a-time, four threads, a binding memory budget, and a
/// fixed plan over the declared widths. Each key sorts at its rank width,
/// except under the fixed plan, which sorts base codes. A window order
/// wider than 64 declared bits is rejected whatever its rank widths.
/// Replay one case with `MCS_TEST_SEED=<seed>`.
#[test]
fn rank_coded_queries_match_reference() {
    let configs = [
        ("roga", EngineConfig::default()),
        ("no-massaging", EngineConfig::without_massaging()),
        ("threads4", EngineConfig::builder().threads(4).build()),
        (
            "budget",
            EngineConfig::builder().memory_budget(8 * 1024).build(),
        ),
    ];
    mcs_test_support::prop::check("rank_coded_queries_match_reference", 64, |rng| {
        let t = rank_coded_table(rng);
        let queries = [
            random_order_by(rng, &t),
            random_group_by(rng, &t),
            random_window(rng, &t),
        ];
        for q in &queries {
            let keys = q.sort_keys();
            let declared: Vec<u32> = keys
                .iter()
                .map(|k| t.expect_column(&k.column).width())
                .collect();
            let np = q.partition_by.len();
            let window_bits: u32 = declared[np..].iter().sum();
            let fixed = PlannerMode::Fixed(MassagePlan::from_widths(&declared));
            let fixed = EngineConfig::builder().planner(fixed).build();
            for (name, cfg) in configs.iter().chain([&("fixed-declared", fixed)]) {
                if np > 0 && window_bits > 64 {
                    let err = run_query(&t, q, cfg).unwrap_err();
                    assert_eq!(err, EngineError::WindowKeyTooWide { bits: window_bits });
                    continue;
                }
                let got = assert_matches_naive(&t, q, name, cfg);
                if got.timings.sort_instance.is_none() {
                    continue;
                }
                // Each key sorts at its rank width, or its declared one
                // under the fixed plan, which runs as given.
                let want: Vec<(u32, u32)> = keys
                    .iter()
                    .map(|k| {
                        let col = t.expect_column(&k.column);
                        let sorted = match (&cfg.planner, col.rank_codes()) {
                            (PlannerMode::Fixed(_), _) | (_, None) => col.width(),
                            (_, Some(ranks)) => ranks.width(),
                        };
                        (col.width(), sorted)
                    })
                    .collect();
                let widths = &got.timings.key_widths;
                if want.iter().all(|(declared, sorted)| declared == sorted) {
                    assert!(widths.is_empty(), "[{name}] {widths:?}");
                } else {
                    let got: Vec<(u32, u32)> =
                        widths.iter().map(|w| (w.declared, w.sorted)).collect();
                    assert_eq!(got, want, "[{name}]");
                }
                if let PlannerMode::Fixed(plan) = &cfg.planner {
                    assert_eq!(got.timings.plan.as_ref(), Some(plan), "[{name}]");
                }
            }
        }
    });
}
