//! Tests for the suite plumbing: sort-instance extraction matches what
//! the engine pipeline would sort, and multi-stage timing combination.

use mcs_core::{multi_column_sort, verify_sorted, ExecArena, ExecConfig};
use mcs_engine::EngineConfig;
use mcs_workloads::suite::extract_sort_instance;
use mcs_workloads::{run_bench_query, tpch, TpchParams};

#[test]
fn extracted_instance_matches_query_shape() {
    let w = tpch(&TpchParams {
        lineitem_rows: 3000,
        skew: None,
        seed: 77,
    });

    // Q3 filters reduce rows; sort keys are the 3 GROUP BY columns.
    let bq = w.query("tpch_q3");
    let (cols, specs, inst) = extract_sort_instance(&w, bq);
    assert_eq!(cols.len(), 3);
    assert_eq!(specs.len(), 3);
    assert!(inst.rows < 3000, "filters should drop rows");
    assert!(cols.iter().all(|c| c.len() == inst.rows));
    // Widths match the wide table's columns.
    let t = w.table("tpch_wide");
    assert_eq!(specs[0].width, t.expect_column("l_orderkey").width());
    assert_eq!(specs[1].width, t.expect_column("o_orderdate").width());

    // The extracted columns sort correctly under P0.
    let refs: Vec<&mcs_columnar::CodeVec> = cols.iter().collect();
    let (p0, cfg) = (inst.p0(), ExecConfig::default());
    let out = multi_column_sort(&refs, None, &specs, &p0, &cfg, &mut ExecArena::new())
        .expect("valid sort instance");
    verify_sorted(&refs, &specs, &out, true);
}

#[test]
fn two_stage_query_extracts_first_stage() {
    let w = tpch(&TpchParams {
        lineitem_rows: 2000,
        skew: None,
        seed: 78,
    });
    let bq = w.query("tpch_q13");
    let (_, specs, inst) = extract_sort_instance(&w, bq);
    // Stage 1 groups by o_custkey only.
    assert_eq!(specs.len(), 1);
    assert!(inst.rows > 0);
}

#[test]
fn combined_timings_cover_stages() {
    let w = tpch(&TpchParams {
        lineitem_rows: 2500,
        skew: None,
        seed: 79,
    });
    let bq = w.query("tpch_q13");
    let (_, ct) = run_bench_query(&w, bq, &EngineConfig::default());
    assert_eq!(ct.stages.len(), 2, "Q13 runs two stages");
    assert!(ct.total_ns >= ct.mcs_ns);
    assert_eq!(
        ct.rest_ns,
        ct.total_ns - ct.mcs_ns - ct.plan_search_ns,
        "rest is the complement of sorting + search"
    );
}
