//! Figure 7 — TPC-H Q16 plan space: (a) the *actual* execution time of
//! every feasible plan (the perfect model `A_16`), (b) the cost model's
//! estimate for the same plans, with the plans enumerated by ROGA and by
//! RRS marked.
//!
//! Q16 GROUP BY has 3 attributes (p_brand 5 + p_type 8 + p_size 6 =
//! 19-bit key), giving a fully enumerable space. Expected shape: the
//! estimated curve tracks the actual one (MRE-level wiggle), and both
//! search algorithms find a plan whose actual rank is ≈ 1.

use mcs_bench::{cost_model, env_usize, print_table, rows, seed};
use mcs_planner::{
    measure_all_plans, measure_plan, rank_by_time, roga, rrs, ExhaustiveOptions, RogaOptions,
    RrsOptions,
};
use mcs_workloads::{suite::extract_sort_instance, tpch, TpchParams};

fn main() {
    let n = rows(1 << 19);
    println!("Figure 7: TPC-H Q16 plan space, actual vs estimated (rows = {n})\n");
    let model = cost_model();
    let w = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: seed(),
    });
    let bq = w.query("tpch_q16");
    let (cols, specs, inst) = extract_sort_instance(&w, bq);
    let refs: Vec<&mcs_columnar::CodeVec> = cols.iter().collect();
    let total_w: u32 = specs.iter().map(|s| s.width).sum();
    println!(
        "sort key: {} attributes, W = {total_w} bits, {} filtered rows",
        specs.len(),
        inst.rows
    );

    // Perfect model A_16: execute every feasible plan (bounded rounds).
    let max_rounds = env_usize("MCS_FIG7_MAX_ROUNDS", 3) as u32;
    let opts = ExhaustiveOptions {
        max_rounds,
        max_plans: env_usize("MCS_FIG7_MAX_PLANS", 2000),
        repeats: 1,
        exec: mcs_bench::paper_exec(),
    };
    let measured = measure_all_plans(&refs, &specs, &opts);
    println!(
        "executed {} feasible plans (≤ {max_rounds} rounds)\n",
        measured.len()
    );

    // Search algorithms (fixed column order, as the figure plots one
    // ordering's plan space).
    let roga_res = roga(
        &inst,
        &model,
        &RogaOptions {
            rho: None,
            permute_columns: false,
        },
    )
    .expect("non-empty sort key");
    let rrs_res = rrs(
        &inst,
        &model,
        &RrsOptions {
            budget: roga_res.elapsed.max(std::time::Duration::from_micros(200)),
            permute_columns: false,
            ..Default::default()
        },
    )
    .expect("non-empty sort key");

    let mut out = Vec::new();
    for (i, m) in measured.iter().enumerate() {
        let est = model.t_mcs(&inst, &m.plan);
        let mut marks = String::new();
        if m.plan == roga_res.plan {
            marks.push_str("ROGA ");
        }
        if m.plan == rrs_res.plan {
            marks.push_str("RRS");
        }
        out.push(vec![
            format!("{}", i + 1),
            m.plan.notation(),
            format!("{:.2}", m.actual_ns as f64 / 1e6),
            format!("{:.2}", est / 1e6),
            marks,
        ]);
    }
    // Print the top 25 and the chosen plans' neighborhoods.
    let shown: Vec<Vec<String>> = out.iter().take(25).cloned().collect();
    print_table(
        &[
            "actual_rank",
            "plan",
            "actual_ms",
            "estimated_ms",
            "found_by",
        ],
        &shown,
    );

    let r_roga = rank_by_time(
        measure_plan(&refs, &specs, &roga_res.plan, &opts).expect("valid plan"),
        &measured,
    );
    let r_rrs = rank_by_time(
        measure_plan(&refs, &specs, &rrs_res.plan, &opts).expect("valid plan"),
        &measured,
    );
    println!(
        "\nROGA plan {}: actual rank {} of {} (costed {} plans in {:?})",
        roga_res.plan,
        r_roga,
        measured.len(),
        roga_res.plans_costed,
        roga_res.elapsed
    );
    println!(
        "RRS  plan {}: actual rank {} of {} (costed {} plans)",
        rrs_res.plan,
        r_rrs,
        measured.len(),
        rrs_res.plans_costed
    );

    // Cost-model quality on this query: mean relative error over all plans.
    let mre: f64 = measured
        .iter()
        .map(|m| {
            let est = model.t_mcs(&inst, &m.plan);
            (est - m.actual_ns as f64).abs() / m.actual_ns as f64
        })
        .sum::<f64>()
        / measured.len() as f64;
    println!("cost-model MRE over the space: {mre:.2} (paper: 0.36-0.57 per workload)");
}
