//! Figure 1 — time breakdown of TPC-H queries with ByteSlice fast scans
//! and WideTable denormalization, code massaging **disabled**
//! (column-at-a-time sorting): the share of query time spent in
//! multi-column sorting.
//!
//! Expected shape (paper): multi-column sorting takes 60–92 % of the
//! query for all nine queries except Q13, whose multi-column ORDER BY
//! runs on already-aggregated (tiny) data.

use mcs_bench::{cost_model, export_telemetry, maybe_explain, ms, print_table, rows, seed};
use mcs_engine::{EngineConfig, PlannerMode};
use mcs_workloads::{run_bench_query, tpch, TpchParams};

fn main() {
    let n = rows(1 << 20);
    println!("Figure 1: TPC-H query time breakdown (massaging OFF), lineitem rows = {n}\n");
    let w = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: seed(),
    });
    let cfg = EngineConfig {
        planner: PlannerMode::ColumnAtATime,
        model: cost_model(),
        exec: mcs_bench::paper_exec(),
    };

    let mut out = Vec::new();
    for bq in &w.queries {
        let (_, t) = run_bench_query(&w, bq, &cfg);
        maybe_explain(&bq.name, &t.stages, &cfg.model);
        let pct = 100.0 * t.mcs_ns as f64 / t.total_ns.max(1) as f64;
        out.push(vec![
            bq.name.clone(),
            ms(t.total_ns),
            ms(t.mcs_ns),
            ms(t.rest_ns),
            format!("{pct:.1}%"),
        ]);
    }
    print_table(
        &["query", "total_ms", "mcs_ms", "rest_ms", "mcs_share"],
        &out,
    );
    println!(
        "\nShape check: mcs_share should dominate (paper: 60-92%) for all\n\
         queries except tpch_q13 (its multi-column sort runs post-aggregation)."
    );
    export_telemetry("fig1_breakdown");
}
