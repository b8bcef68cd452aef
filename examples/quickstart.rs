//! Quickstart: the paper's Figure 2 query, executed both ways.
//!
//! ```text
//! SELECT SUM(price) FROM sales GROUP BY nation_name, ship_date
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use codemassage::prelude::*;

fn main() {
    // Build a small encoded WideTable. In a real ingest the strings would
    // go through an order-preserving dictionary; here we use their codes
    // directly (nation_name is 10 bits, ship_date 17 bits — the widths of
    // the paper's running example).
    let nations = ["AUS", "AUS", "USA", "AUS", "USA", "CHN"];
    let dict = Dictionary::build(nations.iter().copied());
    let mut sales = Table::new("sales");
    sales.add_column(Column::from_u64s(
        "nation_name",
        10,
        nations.iter().map(|s| dict.encode(s)),
    ));
    sales.add_column(Column::from_u64s(
        "ship_date",
        17,
        [501u64, 1201, 301, 501, 301, 42],
    ));
    sales.add_column(Column::from_u64s("price", 17, [10u64, 50, 20, 30, 30, 7]));

    // The query of Figure 2.
    let mut q = Query::named("q1");
    q.group_by = vec!["nation_name".into(), "ship_date".into()];
    q.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "sum_price")];

    // Register the table in a shared database and serve queries from
    // sessions: one without code massaging (column-at-a-time, Figure 2a) …
    let mut db = Database::new();
    db.register(sales);
    let off_session = Session::new(&db, EngineConfig::without_massaging());
    let off = off_session
        .query("sales", &q, QueryOptions::default())
        .unwrap();
    // … and one with it (Figure 2b): the optimizer stitches the two
    // columns into one 27-bit super-column and sorts once. prepare()
    // checks the query's columns; execute() plans and runs it.
    let on_session = Session::new(&db, EngineConfig::default());
    let prepared = on_session.prepare("sales", &q).unwrap();
    let on = prepared.execute(&on_session).unwrap();

    println!(
        "plan without massaging: {}",
        off.timings.plan.as_ref().unwrap()
    );
    println!(
        "plan with massaging:    {}",
        on.timings.plan.as_ref().unwrap()
    );
    println!("plan search took {} µs", on.timings.plan_search_ns / 1000);

    println!("\nnation_name  ship_date  SUM(price)");
    let names = on.column("nation_name").unwrap();
    let dates = on.column("ship_date").unwrap();
    let sums = on.column("sum_price").unwrap();
    for i in 0..on.rows {
        println!("{:<12} {:<10} {}", dict.decode(names[i]), dates[i], sums[i]);
    }

    // Same answer either way (Lemma 1).
    assert_eq!(off.columns, on.columns);
    println!("\nboth plans return identical results (Lemma 1) ✓");
}
