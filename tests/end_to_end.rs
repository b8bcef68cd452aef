//! Workspace-level integration tests: full pipelines across crates.

use codemassage::prelude::*;
use codemassage::workloads::{
    airline, ex1, ex2, ex3, ex4, run_bench_query, run_bench_query_naive, tpcds, tpch,
    AirlineParams, TpcdsParams, TpchParams,
};
use mcs_core::{multi_column_sort, verify_sorted, ExecArena};
use mcs_engine::reference::assert_same_rows;

/// Every benchmark query of every workload returns identical row
/// multisets with massaging on, off, and under the naive reference.
#[test]
fn all_workloads_all_queries_three_way_agreement() {
    let workloads = vec![
        tpch(&TpchParams {
            lineitem_rows: 2000,
            skew: None,
            seed: 21,
        }),
        tpch(&TpchParams {
            lineitem_rows: 2000,
            skew: Some(1.0),
            seed: 22,
        }),
        tpcds(&TpcdsParams {
            store_sales_rows: 2000,
            seed: 23,
        }),
        airline(&AirlineParams {
            ticket_rows: 2000,
            market_rows: 2000,
            seed: 24,
        }),
    ];
    let on = EngineConfig::default();
    let off = EngineConfig::without_massaging();
    for w in &workloads {
        for bq in &w.queries {
            let (r_on, _) = run_bench_query(w, bq, &on);
            let (r_off, _) = run_bench_query(w, bq, &off);
            let naive = run_bench_query_naive(w, bq);
            assert_same_rows(&r_on.columns, &naive);
            assert_same_rows(&r_off.columns, &naive);
        }
    }
}

/// The micro examples sort correctly under every named plan, and ROGA's
/// chosen plan is valid and never estimated worse than P0.
#[test]
fn micro_examples_and_planner() {
    let model = CostModel::with_defaults();
    let cfg = ExecConfig::default();
    for m in [ex1(800, 1), ex2(800, 2), ex3(400, 3), ex4(800, 4)] {
        let refs = m.column_refs();
        for (_, plan) in &m.plans {
            let out = multi_column_sort(&refs, None, &m.specs, plan, &cfg, &mut ExecArena::new())
                .expect("valid sort instance");
            verify_sorted(&refs, &m.specs, &out, true);
        }
        let inst = m.instance();
        let r = roga(&inst, &model, &RogaOptions::default()).expect("non-empty sort key");
        assert!(r.plan.validate(inst.total_width()).is_ok());
        assert!(r.est_cost <= model.t_mcs(&inst, &inst.p0()) + 1.0);
    }
}

/// A calibrated cost model drives the full engine end to end.
#[test]
fn calibrated_model_end_to_end() {
    let model = calibrate(MachineSpec::detect(), &CalibrationOptions::quick());
    let w = tpch(&TpchParams {
        lineitem_rows: 3000,
        skew: None,
        seed: 31,
    });
    let cfg = EngineConfig {
        planner: PlannerMode::Roga { rho: Some(0.001) },
        model,
        ..EngineConfig::default()
    };
    for bq in &w.queries {
        let (got, timings) = run_bench_query(&w, bq, &cfg);
        let want = run_bench_query_naive(&w, bq);
        assert_same_rows(&got.columns, &want);
        assert!(timings.total_ns > 0);
    }
}

/// Dictionary round trip through a query: encoded string grouping decodes
/// back to the right strings.
#[test]
fn dictionary_groupby_roundtrip() {
    let names = ["USA", "AUS", "USA", "CHN", "AUS", "USA"];
    let dict = Dictionary::build(names.iter().copied());
    let mut t = Table::new("t");
    t.add_column(Column::from_u64s(
        "nation",
        dict.width_bits(),
        names.iter().map(|s| dict.encode(s)),
    ));
    t.add_column(Column::from_u64s("x", 4, [1u64, 2, 3, 4, 5, 6]));

    let mut q = Query::named("g");
    q.group_by = vec!["nation".into()];
    q.aggregates = vec![Agg::new(AggKind::Count, "cnt")];
    let r = run_query(&t, &q, &EngineConfig::default()).unwrap();
    let decoded: Vec<&str> = r
        .column("nation")
        .unwrap()
        .iter()
        .map(|&c| dict.decode(c))
        .collect();
    assert_eq!(decoded, vec!["AUS", "CHN", "USA"]);
    assert_eq!(r.column("cnt").unwrap(), vec![2, 1, 3]);
}

/// WideTable denormalization feeds the engine: a two-hop star join
/// becomes a scan + group-by.
#[test]
fn widetable_star_join_query() {
    // region <- nation <- orders.
    let mut nation = Table::new("nation");
    nation.add_column(Column::from_u64s("n_region", 2, [0u64, 1, 1, 2]));
    let mut orders = Table::new("orders");
    orders.add_column(Column::from_u64s("o_nation", 2, [0u64, 1, 2, 3, 0, 3]));
    orders.add_column(Column::from_u64s("o_price", 8, [10u64, 20, 30, 40, 50, 60]));

    let wide = widen(
        "wide",
        &orders,
        &[DimensionJoin {
            fk_column: "o_nation",
            dimension: &nation,
            select: vec![("n_region", "region")],
        }],
    );
    let mut q = Query::named("by_region");
    q.group_by = vec!["region".into(), "o_nation".into()];
    q.aggregates = vec![Agg::new(AggKind::Sum("o_price".into()), "rev")];
    let r = run_query(&wide, &q, &EngineConfig::default()).unwrap();
    // Regions: nation0->r0 (10+50), nation1->r1 (20), nation2->r1 (30),
    // nation3->r2 (40+60).
    assert_eq!(r.column("rev").unwrap(), vec![60, 20, 30, 100]);
}

/// Multithreaded execution returns the same groups as single-threaded.
#[test]
fn threads_agree_end_to_end() {
    let w = tpcds(&TpcdsParams {
        store_sales_rows: 5000,
        seed: 44,
    });
    let bq = w.query("tpcds_q98");
    let mut cfg1 = EngineConfig::default();
    cfg1.exec.threads = 1;
    let mut cfg4 = EngineConfig::default();
    cfg4.exec.threads = 4;
    let (r1, _) = run_bench_query(&w, bq, &cfg1);
    let (r4, _) = run_bench_query(&w, bq, &cfg4);
    assert_same_rows(&r1.columns, &r4.columns);
}
