//! The paper's §1 motivating example: `ORDER BY order_date, retail_price`
//! over encoded 12-bit / 17-bit columns — comparing the column-at-a-time
//! plan against the plans code massaging considers (stitching and
//! bit-borrowing), end to end with timings.
//!
//! Run with `cargo run --release --example orderby_retail`.

use std::time::Instant;

use codemassage::prelude::*;
use mcs_cost::KeyColumnStats;

fn main() {
    let n: usize = std::env::var("MCS_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20);

    // order_date: 2557 distinct days in 12 bits; retail_price: 17 bits.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut orders = Table::new("orders");
    orders.add_column(Column::from_u64s(
        "order_date",
        12,
        (0..n).map(|_| next() % 2557),
    ));
    orders.add_column(Column::from_u64s(
        "retail_price",
        17,
        (0..n).map(|_| next() % (1 << 17)),
    ));

    let mut q = Query::named("orderby");
    q.select = vec!["order_date".into(), "retail_price".into()];
    q.order_by = vec![OrderKey::asc("order_date"), OrderKey::asc("retail_price")];

    // The three §1 strategies, as explicit plans:
    let plans = [
        ("column-at-a-time P0", MassagePlan::from_widths(&[12, 17])),
        ("stitch (12+17 -> 29/[32])", MassagePlan::from_widths(&[29])),
        (
            "bit-borrow (13/[16] + 16/[16])",
            MassagePlan::from_widths(&[13, 16]),
        ),
    ];

    println!("ORDER BY order_date, retail_price over {n} rows\n");
    let mut baseline_ns = 0u64;
    for (name, plan) in &plans {
        let cfg = EngineConfig {
            planner: PlannerMode::Fixed(plan.clone()),
            ..EngineConfig::default()
        };
        let t = Instant::now();
        let r = run_query(&orders, &q, &cfg).unwrap();
        let ns = t.elapsed().as_nanos() as u64;
        if baseline_ns == 0 {
            baseline_ns = ns;
        }
        println!(
            "{name:32} {:>8.2} ms  (speedup {:.2}x)  mcs {:>8.2} ms",
            ns as f64 / 1e6,
            baseline_ns as f64 / ns as f64,
            r.timings.mcs_ns as f64 / 1e6,
        );
        // Verify ordering.
        let d = r.column("order_date").unwrap();
        let p = r.column("retail_price").unwrap();
        assert!((1..r.rows).all(|i| (d[i - 1], p[i - 1]) <= (d[i], p[i])));
    }

    // What does the engine's plan search pick?
    let model = CostModel::with_defaults();
    let inst = SortInstance {
        rows: n,
        specs: vec![SortSpec::asc(12), SortSpec::asc(17)],
        stats: vec![
            KeyColumnStats::uniform(12, 2557.0),
            KeyColumnStats::uniform(17, n.min(1 << 17) as f64),
        ],
        want_final_groups: false,
    };
    let found =
        optimal(&inst, &model, false, &mut SearchScratch::default()).expect("non-empty sort key");
    println!(
        "\nThe exact search chooses {} (estimated {:.2} ms, {} rounds priced in {:?})",
        found.plan,
        found.est_cost / 1e6,
        found.plans_costed,
        found.elapsed
    );
}
