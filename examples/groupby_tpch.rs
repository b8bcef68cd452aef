//! A realistic analytics scenario: TPC-H Q18 ("large volume customers")
//! on a generated WideTable — the paper's widest GROUP BY — showing the
//! full pipeline (ByteSlice scan, lookup, exactly planned multi-column sort,
//! aggregation) and the speedup over column-at-a-time.
//!
//! Run with `cargo run --release --example groupby_tpch`.

use codemassage::prelude::*;
use codemassage::workloads::{run_bench_query, tpch, TpchParams};

fn main() {
    let n: usize = std::env::var("MCS_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 19);
    println!("generating mini TPC-H WideTable ({n} lineitem rows)…");
    let w = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: 7,
    });
    let q18 = w.query("tpch_q18");

    let off = EngineConfig::without_massaging();
    let on = EngineConfig::default();

    let (r_off, t_off) = run_bench_query(&w, q18, &off);
    let (r_on, t_on) = run_bench_query(&w, q18, &on);

    println!("\nTPC-H Q18: GROUP BY custkey, orderkey, orderdate, totalprice");
    println!(
        "  column-at-a-time: total {:>8.2} ms   multi-column sort {:>8.2} ms",
        t_off.total_ns as f64 / 1e6,
        t_off.mcs_ns as f64 / 1e6
    );
    println!(
        "  code massaging:   total {:>8.2} ms   multi-column sort {:>8.2} ms",
        t_on.total_ns as f64 / 1e6,
        t_on.mcs_ns as f64 / 1e6
    );
    println!(
        "  sort speedup {:.2}x, query speedup {:.2}x",
        t_off.mcs_ns as f64 / t_on.mcs_ns.max(1) as f64,
        t_off.total_ns as f64 / t_on.total_ns.max(1) as f64
    );
    if let Some(plan) = t_on.stages.first().and_then(|s| s.plan.as_ref()) {
        println!("  chosen plan: {plan}");
    }

    assert_eq!(r_off.rows, r_on.rows);
    println!("\n{} output groups; top rows by total price:", r_on.rows);
    let tp = r_on.column("o_totalprice").unwrap();
    let qty = r_on.column("sum_qty").unwrap();
    for i in 0..r_on.rows.min(5) {
        println!("  totalprice={:<8} sum_qty={}", tp[i], qty[i]);
    }
}
