//! # codemassage
//!
//! A from-scratch Rust implementation of **"Fast Multi-Column Sorting in
//! Main-Memory Column-Stores"** (Wenjian Xu, Ziqiang Feng, Eric Lo —
//! SIGMOD 2016): *code massaging* for multi-column `ORDER BY` /
//! `GROUP BY` / `PARTITION BY`, together with every substrate the paper's
//! prototype builds on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | contents |
//! |---|---|
//! | [`simd_sort`] | the sort substrate: size-driven insertion → packed-word → radix dispatch over 16/32/64-bit banks of key+oid pairs, the segmented sort, the loser tree, the paper's SIMD merge-sort |
//! | [`columnar`] | encoded columns, ByteSlice scans, WideTables |
//! | [`core`] | massage plans, the FIP kernel, the multi-column sort executor |
//! | [`cost`] | the calibrated, architecture-aware cost model (§4) |
//! | [`planner`] | the engine's exact plan search, ROGA (Algorithm 1), RRS baseline, exhaustive `A_i` |
//! | [`engine`] | the query pipeline: scan → lookup → sort → aggregate/rank |
//! | [`cancel`] | cooperative cancellation: tokens, deadlines, typed causes |
//! | [`workloads`] | TPC-H (+skew), TPC-DS, airline DB1B, Ex1–Ex4 micro data |
//! | [`server`] | TCP serving layer: the MCSQ wire protocol, one session per connection |
//! | [`client`] | blocking wire-protocol client mirroring the `Session` API |
//!
//! ## Quickstart
//!
//! ```
//! use codemassage::prelude::*;
//!
//! // A tiny WideTable.
//! let mut t = Table::new("sales");
//! t.add_column(Column::from_u64s("nation", 10, [3u64, 1, 3, 1, 2]));
//! t.add_column(Column::from_u64s("ship_date", 17, [500u64, 1201, 301, 1201, 42]));
//! t.add_column(Column::from_u64s("price", 17, [10u64, 20, 30, 40, 50]));
//!
//! // SELECT SUM(price) FROM sales GROUP BY nation, ship_date — the
//! // paper's Figure 2 query. The planner stitches the 10-bit and 17-bit
//! // sort keys into one 27-bit round instead of sorting twice.
//! let mut q = Query::named("q1");
//! q.group_by = vec!["nation".into(), "ship_date".into()];
//! q.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "sum_price")];
//!
//! // Sessions plan a query shape once and serve the cached plan after.
//! let mut db = Database::new();
//! db.register(t);
//! let session = Session::new(&db, EngineConfig::default());
//! let prepared = session.prepare("sales", &q)?;
//! let result = prepared.execute(&session)?;
//! assert_eq!(result.rows, 4);
//! # Ok::<(), codemassage::engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]

pub use mcs_cancel as cancel;
pub use mcs_client as client;
pub use mcs_columnar as columnar;
pub use mcs_cost as cost;
pub use mcs_engine as engine;
pub use mcs_faults as faults;
pub use mcs_planner as planner;
pub use mcs_server as server;
pub use mcs_simd_sort as simd_sort;
pub use mcs_telemetry as telemetry;
pub use mcs_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use mcs_cancel::{CancelCause, CancelToken};
    pub use mcs_columnar::{widen, Column, Dictionary, DimensionJoin, Predicate, Table};
    pub use mcs_core::{
        multi_column_sort, Bank, ExecArena, ExecConfig, MassagePlan, Round, SortSpec,
    };
    pub use mcs_cost::{calibrate, CalibrationOptions, CostModel, MachineSpec, SortInstance};
    pub use mcs_engine::{
        result_to_table, run_query, Agg, AggKind, Database, DegradeReason, EngineConfig,
        EngineError, ExplainReport, Filter, OrderKey, PlanCacheStats, PlannerMode, PreparedQuery,
        Query, QueryOptions, QueryResult, Session,
    };
    pub use mcs_planner::{optimal, roga, rrs, RogaOptions, RrsOptions, SearchError};
    pub use mcs_simd_sort::{sort_pairs, sort_pairs_with, SortConfig, SortKernel};
}

// Compatibility block for the benchmark under `spine/`, which is built
// unchanged outside benchmark changes and still calls two former sort
// entry points. Delete it, and `mcs_engine::SpillStats`, once spine calls
// `core::multi_column_sort` and reads `ExecStats::buckets` (ROADMAP 3(c)).

/// The multi-column sort ([`mcs_core`]), plus one former entry point.
pub mod core {
    pub use mcs_core::*;

    /// [`multi_column_sort`] over every row.
    pub fn multi_column_sort_with(
        inputs: &[&mcs_columnar::CodeVec],
        specs: &[SortSpec],
        plan: &MassagePlan,
        cfg: &ExecConfig,
        arena: &mut ExecArena,
    ) -> Result<MultiColumnSortOutput, SortError> {
        multi_column_sort(inputs, None, specs, plan, cfg, arena)
    }
}

/// The former budgeted-sort crate: the budget is now
/// [`core::ExecConfig::memory_budget_bytes`].
pub mod extsort {
    use crate::core::*;

    /// [`multi_column_sort`] over every row within `budget_bytes`.
    pub fn external_multi_column_sort_with(
        inputs: &[&mcs_columnar::CodeVec],
        specs: &[SortSpec],
        plan: &MassagePlan,
        cfg: &ExecConfig,
        arena: &mut ExecArena,
        budget_bytes: usize,
    ) -> Result<(MultiColumnSortOutput, mcs_engine::SpillStats), SortError> {
        let cfg = ExecConfig {
            memory_budget_bytes: Some(budget_bytes),
            ..cfg.clone()
        };
        let out = multi_column_sort(inputs, None, specs, plan, &cfg, arena)?;
        let runs = out.stats.buckets;
        Ok((
            out,
            mcs_engine::SpillStats {
                runs,
                ..Default::default()
            },
        ))
    }
}
