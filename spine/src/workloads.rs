//! The six workloads: data generation from `--seed`, the query script
//! one op replays, and the engine configuration it runs under.
//!
//! `--seed` is the only input to data generation, and it decides the
//! *order of the rows* of every table. The values themselves come from
//! the fixed [`SHAPE_SEED`], so column statistics — and with them plan
//! choices, group counts and result sizes, the amount of work in an op —
//! are the same under every seed; a run on another seed is another
//! sample of the same workload, not another workload. (ROGA's choice is
//! discrete: with seeded values a one-bucket change in a histogram
//! flips a plan and moves an op by 30 %.) Row counts are fixed per
//! workload (see [`crate::spec::WORKLOADS`]) so counters repeat. The
//! engine receives only the generated tables and queries.

use std::sync::Arc;

use codemassage::columnar::{Column, Table};
use codemassage::engine::{
    result_to_table, run_query, Database, EngineConfig, OrderKey, PlannerMode, Query,
};
use codemassage::workloads::gen::stream;
use codemassage::workloads::{
    airline, ex1, ex3, ex4, tpcds, tpch, AirlineParams, MicroInstance, QuerySpec, TpcdsParams,
    TpchParams, Workload,
};
use mcs_test_support::Rng;

use crate::spec::WorkloadSpec;

/// Seed of every generated value (see the module docs).
const SHAPE_SEED: u64 = 0x5B1E_5EED;

/// One query of a script.
#[derive(Debug, Clone)]
pub struct Step {
    /// Registered table the query runs against.
    pub table: String,
    /// The query.
    pub query: Query,
    /// First stage of a two-stage suite query: the caller materialises
    /// its result with `result_to_table`, as feeding a second stage
    /// requires. (The second stage itself reads the copy of that table
    /// registered at set-up — a session's database is immutable.)
    pub materialize: bool,
}

/// A generated workload instance.
pub struct Instance {
    /// The immutable main-memory database.
    pub db: Arc<Database>,
    /// The script one op replays, in order.
    pub steps: Vec<Step>,
    /// Engine configuration of the in-process session.
    pub engine: EngineConfig,
    /// Plan-cache capacity override (`Some(0)` = always miss).
    pub cache_capacity: Option<usize>,
    /// Loopback connections (0 = in-process through `Session::query`).
    pub connections: usize,
}

/// ROGA's search stops when *wall-clock* search time exceeds ρ × the
/// incumbent's estimated cost, so under the engine's default ρ = 0.1 %
/// (a deadline of microseconds) the plan it returns depends on how fast
/// the machine happened to be during the search: observed, Ex4's plan —
/// and with it `sort_wide`'s op time — changed from run to run.
/// Workloads that serve plans from a warm cache therefore search under
/// this ρ, ten thousand times the default. Every search of the scripts
/// then runs to completion and returns the same plan in every run — but
/// one: `tpcds_q67a` (8 order-free columns, 40 320 column orders, 12 s
/// unbounded) is cut after ≈ 0.2 s, late enough that its incumbent was
/// the same in every run made. `small_adhoc`, whose subject is the cold
/// search itself, keeps the default deadline.
const WARM_RHO: f64 = 10.0;

fn roga(rho: f64, threads: usize) -> EngineConfig {
    EngineConfig::builder()
        .planner(PlannerMode::Roga { rho: Some(rho) })
        .threads(threads)
        .build()
}

fn order_by_all(table: &Table) -> Query {
    let names: Vec<String> = table.columns().iter().map(|c| c.name().into()).collect();
    let mut q = Query::named(format!("order_{}", table.name()));
    q.order_by = names.iter().map(OrderKey::asc).collect();
    q.select = names;
    q
}

fn micro_table(m: MicroInstance) -> Table {
    let mut t = Table::new(m.name.clone());
    for (i, (codes, spec)) in m.columns.into_iter().zip(&m.specs).enumerate() {
        t.add_column(Column::new(format!("c{i}"), spec.width, codes));
    }
    t
}

/// `parallel.rs`'s instance: a 6-bit leading column (uniform, or 95 % of
/// rows in one group) and a 17-bit second column.
fn par_table(name: &str, rows: usize, skewed: bool) -> Table {
    let mut rng = stream(SHAPE_SEED, name);
    let c0: Vec<u64> = (0..rows)
        .map(|_| {
            if !skewed {
                rng.gen_range(0..64u64)
            } else if rng.gen_range(0..100u64) < 95 {
                0
            } else {
                1 + rng.gen_range(0..62u64)
            }
        })
        .collect();
    let c1: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..(1u64 << 17))).collect();
    let mut t = Table::new(name);
    t.add_column(Column::from_u64s("c0", 6, c0));
    t.add_column(Column::from_u64s("c1", 17, c1));
    t
}

/// `scale_sweep`'s table and its three-key `ORDER BY`.
const SWEEP_KEYS: [(&str, u32); 3] = [("nation", 5), ("ship_date", 11), ("price", 16)];

fn sweep_table(rows: usize) -> Table {
    let mut rng = Rng::seed_from_u64(SHAPE_SEED);
    let mut t = Table::new("sweep");
    for &(name, w) in &SWEEP_KEYS {
        let cap = 1u64 << w;
        let vals: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..cap)).collect();
        t.add_column(Column::from_u64s(name, w, vals));
    }
    t
}

fn sweep_query() -> Query {
    let mut q = Query::named("scale_sweep");
    q.order_by = vec![
        OrderKey::asc("nation"),
        OrderKey::desc("ship_date"),
        OrderKey::asc("price"),
    ];
    q.select = vec!["price".into()];
    q
}

/// Sort-key code bytes of the sweep table (`Σ ⌈width/8⌉` per row).
pub fn sweep_key_bytes(rows: usize) -> usize {
    rows * SWEEP_KEYS
        .iter()
        .map(|&(_, w)| (w as usize).div_ceil(8))
        .sum::<usize>()
}

/// Register `t` as `name` with its rows in the order `seed` picks.
/// (Suite workloads reuse table names, hence the rename.)
fn register(db: &mut Database, t: &Table, name: &str, seed: u64) {
    let mut order: Vec<u32> = (0..t.rows() as u32).collect();
    stream(seed, name).shuffle(&mut order);
    let mut out = Table::new(name);
    for c in t.columns() {
        out.add_column(Column::new(c.name(), c.width(), c.codes().gather(&order)));
    }
    db.register(out);
}

/// Register all four suite workloads at `rows` base rows and script
/// their 27 queries, two-stage ones as both stages.
fn suite(db: &mut Database, rows: usize, seed: u64) -> Vec<Step> {
    let workloads: [Workload; 4] = [
        tpch(&TpchParams {
            lineitem_rows: rows,
            skew: None,
            seed: SHAPE_SEED,
        }),
        tpch(&TpchParams {
            lineitem_rows: rows,
            skew: Some(1.0),
            seed: SHAPE_SEED,
        }),
        tpcds(&TpcdsParams {
            store_sales_rows: rows,
            seed: SHAPE_SEED,
        }),
        airline(&AirlineParams {
            ticket_rows: rows,
            market_rows: rows,
            seed: SHAPE_SEED,
        }),
    ];
    let mut steps = Vec::new();
    for w in &workloads {
        for t in &w.tables {
            register(db, t, &format!("{}.{}", w.name, t.name()), seed);
        }
        for bq in &w.queries {
            let table = format!("{}.{}", w.name, bq.table);
            match &bq.spec {
                QuerySpec::Single(q) => steps.push(Step {
                    table,
                    query: q.clone(),
                    materialize: false,
                }),
                QuerySpec::TwoStage { first, second } => {
                    // Stage 1 groups and aggregates, so its result does
                    // not depend on the row order: the table stage 2
                    // reads can be registered once, here.
                    let r1 = run_query(w.table(&bq.table), first, &EngineConfig::default())
                        .unwrap_or_else(|e| panic!("{} stage 1: {e}", bq.name));
                    let stage1 = format!("{}.{}.stage1", w.name, bq.name);
                    db.register(result_to_table(stage1.clone(), &r1));
                    steps.push(Step {
                        table,
                        query: first.clone(),
                        materialize: true,
                    });
                    steps.push(Step {
                        table: stage1,
                        query: second.clone(),
                        materialize: false,
                    });
                }
            }
        }
    }
    steps
}

/// Generate `spec`'s instance: fixed values, rows ordered by `seed`.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Instance {
    let rows = spec.rows;
    let mut db = Database::new();
    let mut engine = roga(WARM_RHO, spec.threads);
    let mut cache_capacity = None;
    let mut connections = 0;
    // Register `tables` and script one ORDER BY over all columns of each.
    let mut order_by_each = |tables: &[Table]| -> Vec<Step> {
        tables
            .iter()
            .map(|t| {
                register(&mut db, t, t.name(), seed);
                Step {
                    table: t.name().to_string(),
                    query: order_by_all(t),
                    materialize: false,
                }
            })
            .collect()
    };
    let sweep_step = || Step {
        table: "sweep".into(),
        query: sweep_query(),
        materialize: false,
    };
    let steps = match spec.name {
        "sort_wide" => order_by_each(
            &[
                ex1(rows, SHAPE_SEED),
                ex3(rows, SHAPE_SEED),
                ex4(rows, SHAPE_SEED),
            ]
            .map(micro_table),
        ),
        "par_skew" => order_by_each(&[
            par_table("balanced", rows, false),
            par_table("skewed", rows, true),
        ]),
        "spill_sort" => {
            engine.exec.memory_budget_bytes = Some(sweep_key_bytes(rows) / 8);
            register(&mut db, &sweep_table(rows), "sweep", seed);
            vec![sweep_step()]
        }
        "analytic_mix" => suite(&mut db, rows, seed),
        "small_adhoc" => {
            engine = roga(0.001, spec.threads);
            cache_capacity = Some(0);
            suite(&mut db, rows, seed)
        }
        "small_remote" => {
            connections = 2;
            let w = tpch(&TpchParams {
                lineitem_rows: rows,
                skew: None,
                seed: SHAPE_SEED,
            });
            let bq = w.query("tpch_q1");
            let QuerySpec::Single(q1) = &bq.spec else {
                panic!("tpch_q1 is a single-stage query");
            };
            register(&mut db, w.table(&bq.table), &bq.table, seed);
            register(&mut db, &sweep_table(rows), "sweep", seed);
            vec![
                Step {
                    table: bq.table.clone(),
                    query: q1.clone(),
                    materialize: false,
                },
                sweep_step(),
            ]
        }
        other => panic!("unknown workload {other}"),
    };
    Instance {
        db: Arc::new(db),
        steps,
        engine,
        cache_capacity,
        connections,
    }
}
