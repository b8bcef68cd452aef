//! Figure 10 — multi-core throughput of multi-column sorting with code
//! massaging, sweeping the thread count on selected queries.
//!
//! The paper pins threads to 10 Xeon / 4 i7 cores and observes linear
//! scaling. The development VM has **2 cores**, so threads 4 and 8 only
//! oversubscribe them; the harness exercises the parallel path (each
//! worker massages, gathers, sorts and scans its own contiguous row
//! range; an oversized group is range-partitioned across the workers,
//! whose buckets the merge-sort then sorts, with no merge after the
//! join) and reports throughput in million tuples per second. Spine's
//! `par_skew` is the end-to-end one.

use mcs_bench::{cost_model, print_table, rows, seed, time};
use mcs_core::ExecConfig;
use mcs_engine::{EngineConfig, PlannerMode};
use mcs_workloads::{run_bench_query, tpcds, tpch, TpcdsParams, TpchParams};

fn main() {
    let n = rows(1 << 20);
    let s = seed();
    let threads = [1usize, 2, 4, 8];
    println!(
        "Figure 10: throughput vs threads (rows = {n}; NOTE: host has {} core(s))\n",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    );
    let model = cost_model();
    let wl_tpch = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: s,
    });
    let wl_ds = tpcds(&TpcdsParams {
        store_sales_rows: n,
        seed: s,
    });

    let selected: Vec<(&mcs_workloads::Workload, &str)> = vec![
        (&wl_tpch, "tpch_q1"),
        (&wl_tpch, "tpch_q18"),
        (&wl_ds, "tpcds_q98"),
    ];

    let mut out = Vec::new();
    for (w, qname) in selected {
        let bq = w.query(qname);
        for &t in &threads {
            let cfg = EngineConfig {
                planner: PlannerMode::Roga { rho: Some(0.001) },
                model: model.clone(),
                exec: ExecConfig {
                    threads: t,
                    ..mcs_bench::paper_exec()
                },
            };
            let ((_, ct), d) = time(|| run_bench_query(w, bq, &cfg));
            let tput = n as f64 / d.as_secs_f64() / 1e6;
            out.push(vec![
                qname.to_string(),
                format!("{t}"),
                format!("{:.1}", d.as_secs_f64() * 1e3),
                format!("{tput:.2}"),
                format!("{:.1}", ct.mcs_ns as f64 / 1e6),
            ]);
        }
    }
    print_table(
        &["query", "threads", "total_ms", "Mtuples/s", "mcs_ms"],
        &out,
    );
    println!(
        "\nShape check (paper): linear scaling on real multi-core hardware;\n\
         threads beyond the host's core count only oversubscribe it, so the\n\
         curve is flat there by construction — the parallel code path\n\
         itself is exercised and verified."
    );
}
