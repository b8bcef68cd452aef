//! Figure 9 — end-to-end query execution time at three data scales, with
//! and without code massaging, across all four workloads.
//!
//! The paper uses TPC-H/TPC-DS scale factors 1/5/10 on two CPUs; here the
//! scales are row counts (base, 2×, 4× — override the base with
//! `MCS_ROWS`) on the one machine available. Expected shape: massaging
//! speeds the whole query by up to ~4.7× on sorting-dominated queries,
//! with consistent gains across scales; Q13 barely moves.

use mcs_bench::{
    cost_model, engine_pair, export_telemetry, maybe_explain, ms, print_table, rows, seed, speedup,
};
use mcs_workloads::{
    airline, run_bench_query, tpcds, tpch, AirlineParams, TpcdsParams, TpchParams, Workload,
};

fn main() {
    let base = rows(1 << 18);
    let s = seed();
    let scales = [base, base * 2, base * 4];
    println!(
        "Figure 9: end-to-end query time, scales = {:?} rows, massaging ON vs OFF\n",
        scales
    );
    let model = cost_model();
    let (on, off) = engine_pair(&model);

    let mut out = Vec::new();
    for &n in &scales {
        let workloads: Vec<Workload> = vec![
            tpch(&TpchParams {
                lineitem_rows: n,
                skew: None,
                seed: s,
            }),
            tpch(&TpchParams {
                lineitem_rows: n,
                skew: Some(1.0),
                seed: s,
            }),
            tpcds(&TpcdsParams {
                store_sales_rows: n,
                seed: s,
            }),
            airline(&AirlineParams {
                ticket_rows: n,
                market_rows: n,
                seed: s,
            }),
        ];
        for w in &workloads {
            for bq in &w.queries {
                // A column's statistics, ByteSlice layout and rank codes
                // are built on its first read: warm them untimed, so the
                // first timed run does not pay for them.
                run_bench_query(w, bq, &on);
                let (_, t_off) = run_bench_query(w, bq, &off);
                let (_, t_on) = run_bench_query(w, bq, &on);
                maybe_explain(
                    &format!("{}/{} n={n}", w.name, bq.name),
                    &t_on.stages,
                    &model,
                );
                out.push(vec![
                    format!("{n}"),
                    w.name.clone(),
                    bq.name.clone(),
                    ms(t_off.total_ns),
                    ms(t_on.total_ns),
                    speedup(t_off.total_ns, t_on.total_ns),
                ]);
            }
        }
    }
    print_table(
        &[
            "rows",
            "workload",
            "query",
            "off_ms",
            "on_ms",
            "query_speedup",
        ],
        &out,
    );
    println!(
        "\nShape check: consistent speedups across scales on every workload;\n\
         tpch_q13's end-to-end speedup stays near 1x (paper's exception)."
    );
    export_telemetry("fig9_query_time");
}
