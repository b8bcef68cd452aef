//! Figure 8 — multi-column-sorting speedup from code massaging, per
//! query, across all four workloads.
//!
//! For each query, the multi-column sorting time (massage + all rounds,
//! incl. post-aggregation sorts) is measured with massaging disabled
//! (column-at-a-time) and enabled (the plan the engine's exact search
//! picks); the bar is the ratio. Expected shape (paper): 1.8×–5.5× across the board.
//!
//! The figure's subject is the paper's SIMD merge-sort, so both configs
//! pin `SortKernel::MergeSort`. The `auto` column repeats the experiment
//! under the engine's default size-driven kernel dispatch (model and
//! executor both `SortKernel::Auto`): its own off/on ratio and, in
//! parentheses, its massaging-on time.

use mcs_bench::{cost_model, engine_pair, ms, print_table, rows, seed, speedup};
use mcs_core::SortKernel;
use mcs_cost::CostModel;
use mcs_workloads::{
    airline, run_bench_query, tpcds, tpch, AirlineParams, TpcdsParams, TpchParams, Workload,
};

fn main() {
    let n = rows(1 << 20);
    let s = seed();
    println!("Figure 8: multi-column sorting speedup with code massaging (rows = {n})\n");
    let model = cost_model();
    let (on, off) = engine_pair(&model);
    let (auto_on, auto_off) = engine_pair(&CostModel {
        kernel: SortKernel::Auto,
        ..model.clone()
    });

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

    let mut out = Vec::new();
    for w in &workloads {
        for bq in &w.queries {
            let (_, t_off) = run_bench_query(w, bq, &off);
            let (_, t_on) = run_bench_query(w, bq, &on);
            let (_, t_auto_off) = run_bench_query(w, bq, &auto_off);
            let (_, t_auto_on) = run_bench_query(w, bq, &auto_on);
            let plan = t_on
                .stages
                .first()
                .and_then(|st| st.plan.as_ref())
                .map(|p| p.notation())
                .unwrap_or_default();
            out.push(vec![
                w.name.clone(),
                bq.name.clone(),
                ms(t_off.mcs_ns),
                ms(t_on.mcs_ns),
                speedup(t_off.mcs_ns, t_on.mcs_ns),
                ms(t_on.plan_search_ns),
                format!(
                    "{} ({} ms)",
                    speedup(t_auto_off.mcs_ns, t_auto_on.mcs_ns),
                    ms(t_auto_on.mcs_ns)
                ),
                plan,
            ]);
        }
    }
    print_table(
        &[
            "workload",
            "query",
            "mcs_off_ms",
            "mcs_on_ms",
            "speedup",
            "search_ms",
            "auto speedup (mcs_on)",
            "chosen plan (stage 1)",
        ],
        &out,
    );
    println!(
        "\nShape check: the plan is the model's exact optimum, so a row below 1x\n\
         is the model ranking plans wrong, not a search cut short; the biggest\n\
         wins are on queries whose columns stitch into fewer or narrower-bank\n\
         rounds (paper: 1.8x-5.5x)."
    );
}
