//! # mcs-engine
//!
//! The query-execution engine of the SIGMOD'16 *Fast Multi-Column
//! Sorting* reproduction: ByteSlice scans → lookups → (exactly planned)
//! multi-column sort with code massaging → aggregation / window ranks,
//! with per-phase timings matching the paper's Figure 1 / Figure 9
//! breakdowns.
//!
//! ```
//! use mcs_columnar::{Column, Table};
//! use mcs_engine::{Agg, AggKind, Database, EngineConfig, Query, Session};
//!
//! let mut t = Table::new("sales");
//! t.add_column(Column::from_u64s("nation", 2, [1u64, 0, 1, 0]));
//! t.add_column(Column::from_u64s("ship_date", 3, [5u64, 2, 5, 1]));
//! t.add_column(Column::from_u64s("price", 8, [40u64, 30, 10, 20]));
//! let mut db = Database::new();
//! db.register(t);
//!
//! let mut q = Query::named("q1");
//! q.group_by = vec!["nation".into(), "ship_date".into()];
//! q.aggregates = vec![Agg::new(AggKind::Sum("price".into()), "sum_price")];
//!
//! // A session checks the query once; each execution plans its own
//! // instance exactly.
//! let session = Session::new(&db, EngineConfig::default());
//! let prepared = session.prepare("sales", &q)?;
//! let r = prepared.execute(&session)?;
//! assert_eq!(r.rows, 3);
//! assert_eq!(r.column_required("sum_price")?, vec![20, 30, 50]);
//! # Ok::<(), mcs_engine::EngineError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod aggregate;
mod error;
mod explain;
mod pipeline;
mod query;
pub mod reference;
mod session;
pub mod sql;
mod window;
pub mod wire;

pub use aggregate::aggregate_groups;
pub use error::{DegradeReason, EngineError};
pub use explain::ExplainReport;
pub use pipeline::{
    result_to_table, run_query, EngineConfig, EngineConfigBuilder, KeyWidth, PlannerMode,
    QueryResult, QueryTimings, SpillStats,
};
pub use query::{Agg, AggKind, Filter, OrderKey, Query};
pub use session::{
    AdmissionGate, Database, GatePermit, PreparedQuery, QueryOptions, Session, WorkerPool,
};
pub use sql::{parse_query, SqlError};
pub use window::rank_over;

// Convenient re-exports for engine users.
pub use mcs_columnar::{Column, Predicate, Table};
pub use mcs_core::{
    lease_footprint_bytes, ArenaStats, CancelCause, CancelToken, ExecArena, ExecConfig,
    MassagePlan, SortSpec, CHECK_INTERVAL,
};
