//! The engine's typed error taxonomy and the degradation-ladder
//! vocabulary.
//!
//! [`run_query`](crate::run_query) returns [`EngineError`] for conditions
//! the engine cannot execute around (unknown columns, malformed queries,
//! unsortable inputs). Recoverable faults — planner failures, useless
//! cost estimates, a failing massage plan — do *not* surface here: the
//! pipeline degrades along [`DegradeReason`]'s ladder down to the
//! always-valid column-at-a-time `P_0` plan (Lemma 1) and, if that sort
//! itself fails, to a scalar comparator sort, recording each rung in
//! [`QueryTimings::degradations`](crate::QueryTimings::degradations) and
//! the `engine.degraded` telemetry counter.

use mcs_core::{CancelCause, SortError};
use mcs_planner::SearchError;

use crate::sql::SqlError;

/// Why a query could not be executed at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A referenced column does not exist in the table.
    UnknownColumn {
        /// The missing column name.
        column: String,
        /// Which clause referenced it (`"filter"`, `"ORDER BY"`, …).
        context: &'static str,
    },
    /// A referenced table is not registered in the session's
    /// [`Database`](crate::Database).
    UnknownTable {
        /// The missing table name.
        table: String,
    },
    /// The query has no sort keys (nothing to order, group, or rank by).
    NoSortKeys {
        /// The query's name.
        query: String,
    },
    /// The plan search failed and the degradation ladder could not
    /// recover (e.g. an empty sort key — `P_0` is equally impossible).
    PlanSearch(SearchError),
    /// The multi-column sort failed on an input condition no fallback
    /// plan can fix (row count overflow, column/spec mismatch).
    Sort(SortError),
    /// The SQL text did not parse.
    Sql(SqlError),
    /// Window `ORDER BY` keys wider than 64 bits in total: a documented
    /// limit of the query surface, with a pinned wire error code (RANK
    /// reads the sort's tie groups, which no key width limits).
    WindowKeyTooWide {
        /// Total window-order key width in bits.
        bits: u32,
    },
    /// The query's deadline passed — at admission, at a phase boundary,
    /// or inside a long loop. The session arena was restored; the query
    /// performed no further work (the degradation ladder never re-runs
    /// past-deadline work).
    DeadlineExceeded,
    /// The query's [`CancelToken`](mcs_core::CancelToken) was fired
    /// manually. Same unwind guarantees as
    /// [`DeadlineExceeded`](EngineError::DeadlineExceeded).
    Cancelled,
    /// The query waited longer than its `queue_timeout` — for a server
    /// admission permit, or behind earlier items of its worker in a
    /// [`Session::run_concurrent`](crate::Session::run_concurrent)
    /// batch: the engine is saturated and sheds load instead of queueing
    /// unboundedly. No execution state was created.
    Overloaded {
        /// How long the caller waited before being shed, in nanoseconds.
        waited_ns: u64,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::UnknownColumn { column, context } => {
                write!(f, "unknown column {column:?} in {context}")
            }
            EngineError::UnknownTable { table } => {
                write!(f, "no table {table:?} registered in the database")
            }
            EngineError::NoSortKeys { query } => {
                write!(f, "query {query:?} has no sort keys")
            }
            EngineError::PlanSearch(e) => write!(f, "plan search failed: {e}"),
            EngineError::Sort(e) => write!(f, "multi-column sort failed: {e}"),
            EngineError::Sql(e) => write!(f, "SQL parse failed: {e}"),
            EngineError::WindowKeyTooWide { bits } => {
                write!(
                    f,
                    "window ORDER BY keys span {bits} bits; at most 64 are supported"
                )
            }
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::Overloaded { waited_ns } => {
                write!(
                    f,
                    "engine overloaded: no admission permit after {waited_ns} ns"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::PlanSearch(e) => Some(e),
            EngineError::Sort(e) => Some(e),
            EngineError::Sql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for EngineError {
    fn from(e: SearchError) -> Self {
        EngineError::PlanSearch(e)
    }
}

impl From<SortError> for EngineError {
    fn from(e: SortError) -> Self {
        match e {
            // Cancellation is not a sort defect: it surfaces as the
            // engine-level outcome, not wrapped inside `Sort`.
            SortError::Cancelled(CancelCause::DeadlineExceeded) => EngineError::DeadlineExceeded,
            SortError::Cancelled(CancelCause::Cancelled) => EngineError::Cancelled,
            other => EngineError::Sort(other),
        }
    }
}

impl From<CancelCause> for EngineError {
    fn from(c: CancelCause) -> Self {
        match c {
            CancelCause::DeadlineExceeded => EngineError::DeadlineExceeded,
            CancelCause::Cancelled => EngineError::Cancelled,
        }
    }
}

impl From<SqlError> for EngineError {
    fn from(e: SqlError) -> Self {
        EngineError::Sql(e)
    }
}

/// One rung taken on the graceful-degradation ladder.
///
/// Every rung leaves the query *correct*: the fallbacks are the
/// column-at-a-time `P_0` plan — valid for any sort instance by the
/// paper's Lemma 1 — and, below it, a scalar comparator sort over the raw
/// key columns. Rungs are recorded in execution order in
/// [`QueryTimings::degradations`](crate::QueryTimings::degradations),
/// counted by the `engine.degraded` telemetry counter (with a `reason`
/// label), and annotated in EXPLAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The plan search returned an error; fell back to `P_0`.
    PlanSearchFailed,
    /// The cost model produced a non-finite estimate for the chosen plan;
    /// its ranking is meaningless, fell back to `P_0`.
    NonFiniteCost,
    /// The chosen massage plan failed validation against the key width;
    /// fell back to `P_0`.
    InvalidPlan,
    /// The chosen plan's execution failed (e.g. a worker panic); re-ran
    /// under `P_0`.
    ExecFailed,
    /// The `P_0` execution itself failed; sorted with the scalar
    /// reference comparator (last rung).
    ScalarFallback,
}

impl DegradeReason {
    /// Stable snake_case label (telemetry `reason` attribute, EXPLAIN).
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::PlanSearchFailed => "plan_search_failed",
            DegradeReason::NonFiniteCost => "non_finite_cost",
            DegradeReason::InvalidPlan => "invalid_plan",
            DegradeReason::ExecFailed => "exec_failed",
            DegradeReason::ScalarFallback => "scalar_fallback",
        }
    }
}

impl core::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::UnknownColumn {
                    column: "zip".into(),
                    context: "filter",
                },
                "zip",
            ),
            (
                EngineError::NoSortKeys {
                    query: "q99".into(),
                },
                "q99",
            ),
            (
                EngineError::UnknownTable {
                    table: "ghost".into(),
                },
                "ghost",
            ),
            (
                EngineError::PlanSearch(SearchError::EmptySortKey),
                "plan search",
            ),
            (EngineError::Sort(SortError::NoColumns), "multi-column sort"),
            (EngineError::WindowKeyTooWide { bits: 90 }, "90"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} missing {needle:?}");
        }
    }

    #[test]
    fn sources_chain() {
        let e = EngineError::Sort(SortError::NoColumns);
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::WindowKeyTooWide { bits: 70 };
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn degrade_labels_are_stable_snake_case() {
        let all = [
            DegradeReason::PlanSearchFailed,
            DegradeReason::NonFiniteCost,
            DegradeReason::InvalidPlan,
            DegradeReason::ExecFailed,
            DegradeReason::ScalarFallback,
        ];
        for r in all {
            let s = r.as_str();
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert_eq!(r.to_string(), s);
        }
    }
}
