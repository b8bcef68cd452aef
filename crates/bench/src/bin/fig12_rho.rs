//! Figure 12 / Appendix C — sensitivity to the time threshold ρ:
//! for representative queries (one TPC-H, one TPC-DS, one airline, plus
//! the widest-key query in the suite), sweep
//! ρ ∈ {0.01 %, 0.1 %, 1 %, 10 %, N/S} and report the search time, the
//! sorting time under the chosen plan, and the plan's actual rank.
//!
//! Expected shape (paper): ρ = 0.1 % is already enough — plans stop
//! improving beyond it, and only the stingiest ρ = 0.01 % hurts wide-key
//! queries.

use mcs_bench::{cost_model, ms, print_table, rows, seed, time};
use mcs_core::multi_column_sort;
use mcs_planner::{
    measure_all_plans, measure_plan, rank_by_time, roga, ExhaustiveOptions, RogaOptions,
};
use mcs_workloads::{
    airline, suite::extract_sort_instance, tpcds, tpch, AirlineParams, TpcdsParams, TpchParams,
    Workload,
};

fn main() {
    let n = rows(1 << 18);
    let s = seed();
    println!("Figure 12: plan quality and timing under various rho (rows = {n})\n");
    let model = cost_model();
    let rhos: Vec<(String, Option<f64>)> = vec![
        ("0.01%".into(), Some(0.0001)),
        ("0.1%".into(), Some(0.001)),
        ("1%".into(), Some(0.01)),
        ("10%".into(), Some(0.1)),
        ("N/S".into(), None),
    ];

    let wl_tpch = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: s,
    });
    let wl_ds = tpcds(&TpcdsParams {
        store_sales_rows: n,
        seed: s,
    });
    let wl_air = airline(&AirlineParams {
        ticket_rows: n,
        market_rows: n,
        seed: s,
    });
    let picks: Vec<(&Workload, &str)> = vec![
        (&wl_tpch, "tpch_q16"),
        (&wl_ds, "tpcds_q98"),
        (&wl_air, "air_q3"),
        (&wl_tpch, "tpch_q18"), // widest key in TPC-H (W > 60)
    ];

    let mut out = Vec::new();
    for (w, qname) in picks {
        let bq = w.query(qname);
        let (cols, specs, inst) = extract_sort_instance(w, bq);
        let refs: Vec<&mcs_columnar::CodeVec> = cols.iter().collect();
        let total_w: u32 = specs.iter().map(|sp| sp.width).sum();
        // Measured ranking for rank reporting (capped space).
        let measured = if total_w <= 40 {
            Some(measure_all_plans(
                &refs,
                &specs,
                &ExhaustiveOptions {
                    max_rounds: 3,
                    max_plans: 400,
                    repeats: 1,
                    exec: mcs_bench::paper_exec(),
                },
            ))
        } else {
            None // too wide to enumerate; report sort time only
        };
        for (label, rho) in &rhos {
            let r = roga(
                &inst,
                &model,
                &RogaOptions {
                    rho: *rho,
                    permute_columns: false,
                },
            )
            .expect("non-empty sort key");
            let (_, sort_d) = time(|| {
                multi_column_sort(&refs, &specs, &r.plan, &mcs_bench::paper_exec())
                    .expect("valid sort instance")
            });
            let rank = measured
                .as_ref()
                .map(|m| {
                    let opts = ExhaustiveOptions::default();
                    let t = measure_plan(&refs, &specs, &r.plan, &opts).expect("valid plan");
                    format!("{}", rank_by_time(t, m))
                })
                .unwrap_or_else(|| "-".into());
            out.push(vec![
                qname.to_string(),
                format!("{total_w}"),
                label.clone(),
                format!("{:.3}", r.elapsed.as_secs_f64() * 1e3),
                if r.timed_out { "deadline" } else { "complete" }.into(),
                ms(sort_d.as_nanos() as u64),
                rank,
                r.plan.notation(),
            ]);
        }
    }
    print_table(
        &[
            "query",
            "W",
            "rho",
            "search_ms",
            "status",
            "sort_ms",
            "actual_rank",
            "plan",
        ],
        &out,
    );
    println!(
        "\nShape check (paper App. C): results are insensitive to rho down to\n\
         0.1%; only 0.01% can cut the search short on wide keys."
    );
}
