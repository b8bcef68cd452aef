//! The physical query pipeline: ByteSlice scans → lookups → (planned)
//! multi-column sort → aggregation / windowing, with per-phase timings.
//!
//! This is the execution structure of the paper's prototype (§6 and the
//! Figure 11 reference architecture): filters run as fast scans on the
//! WideTable, the optimizer (the exact plan search, or column-at-a-time
//! when massaging is off) picks a plan, and the multi-column sort
//! executor — reading the sorting columns through the scan's oid list —
//! produces the order and grouping the aggregates or window ranks
//! consume.
//!
//! ## Degradation ladder
//!
//! Failures the engine can execute around never abort a query. The
//! ladder, each rung recorded in [`QueryTimings::degradations`] and the
//! `engine.degraded` telemetry counter:
//!
//! 1. plan search fails / cost estimate non-finite → run column-at-a-time
//!    `P_0`, which is valid for any instance by the paper's Lemma 1; so
//!    does a plan the executor rejects as invalid;
//! 2. the sort execution itself fails (e.g. a worker-thread panic) →
//!    re-run under `P_0`;
//! 3. the `P_0` sort fails too → scalar comparator sort over the raw key
//!    columns (no SIMD, no massage — always executable).
//!
//! Only input conditions no plan can fix ([`EngineError`]) surface as
//! errors from [`run_query`].

use std::time::Instant;

use mcs_columnar::{BitVec, CodeVec, Column, ColumnStats, RankCodes, Table};
use mcs_core::{
    multi_column_sort, tuple_cmp, ExecArena, ExecConfig, ExecStats, GroupBounds, MassagePlan,
    MultiColumnSortOutput, SortError, SortKernel, SortSpec,
};
use mcs_cost::{CostModel, KeyColumnStats, SortInstance};
use mcs_planner::{optimal, permute_instance, SearchError, SearchScratch};
use mcs_telemetry as telemetry;

use crate::aggregate::aggregate_groups;
use crate::error::{DegradeReason, EngineError};
use crate::query::{AggKind, Query};
use crate::window::{partition_bounds, rank_over};

/// How the engine picks massage plans.
#[derive(Debug, Clone)]
pub enum PlannerMode {
    /// Always column-at-a-time (`P_0`) — "code massaging disabled".
    ColumnAtATime,
    /// The model's cheapest plan, by the exact plan search
    /// ([`mcs_planner::optimal`]), over every column order when the query
    /// leaves the order free. The search needs no deadline and returns the
    /// same plan on every run.
    Roga {
        /// Unused by the engine: the search it names no longer has a
        /// deadline. Kept so existing configurations build; renaming the
        /// variant is ROADMAP item 3(c).
        rho: Option<f64>,
    },
    /// A fixed plan supplied by the caller (experiments).
    Fixed(MassagePlan),
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Multi-column sort execution settings.
    pub exec: ExecConfig,
    /// Plan selection mode.
    pub planner: PlannerMode,
    /// Cost model used by the planner.
    pub model: CostModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            exec: ExecConfig::default(),
            planner: PlannerMode::Roga { rho: Some(0.001) },
            model: CostModel::with_defaults(),
        }
    }
}

impl EngineConfig {
    /// Massaging disabled: the state-of-the-art column-at-a-time baseline.
    pub fn without_massaging() -> EngineConfig {
        EngineConfig {
            planner: PlannerMode::ColumnAtATime,
            ..EngineConfig::default()
        }
    }

    /// Start building a config with chainable setters.
    ///
    /// ```
    /// use mcs_engine::{EngineConfig, PlannerMode};
    /// let cfg = EngineConfig::builder()
    ///     .planner(PlannerMode::Roga { rho: None })
    ///     .threads(4)
    ///     .build();
    /// assert_eq!(cfg.exec.threads, 4);
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }
}

/// Chainable builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
/// Every unset field keeps its [`Default`] value.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Set the plan-selection mode.
    pub fn planner(mut self, planner: PlannerMode) -> Self {
        self.cfg.planner = planner;
        self
    }

    /// Set the multi-column sort execution settings.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.cfg.exec = exec;
        self
    }

    /// Set the cost model used by the planner.
    pub fn model(mut self, model: CostModel) -> Self {
        self.cfg.model = model;
        self
    }

    /// Convenience: set only the intra-query worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.exec.threads = threads;
        self
    }

    /// Cap the multi-column sort's resident memory at `bytes`
    /// ([`ExecConfig::memory_budget_bytes`]): a sort whose leased
    /// footprint ([`mcs_core::lease_footprint_bytes`]) would exceed the
    /// budget is range-partitioned in memory by the core sort, which then
    /// sorts one budget-sized bucket at a time, with byte-identical
    /// results. Unset (the default) never partitions.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.cfg.exec.memory_budget_bytes = Some(bytes);
        self
    }

    /// Pick the sort family (default: the size-driven
    /// [`SortKernel::Auto`] dispatch), keeping the executor knob and the
    /// cost model's pricing in lockstep: the planner must rank plans by
    /// the kernel that will run them.
    pub fn kernel(mut self, kernel: SortKernel) -> Self {
        self.cfg.exec.sort.kernel = kernel;
        self.cfg.model.kernel = kernel;
        self
    }

    /// Finish building.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

/// Per-phase wall-clock breakdown of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryTimings {
    /// Filter scans (ByteSlice, early-stopping).
    pub filter_scan_ns: u64,
    /// SELECT: the projected columns in output order. A column that is
    /// also a sort key is decoded from the sorted round keys
    /// ([`ExecStats::decode_ns`], taken out of [`mcs_ns`](Self::mcs_ns));
    /// any other is read through the sort's final oids. Key lookups
    /// inside the sort stay in `mcs_ns`.
    pub gather_ns: u64,
    /// Plan search.
    pub plan_search_ns: u64,
    /// Multi-column sorting (massage, reading keys through the oids, + all
    /// rounds), without the SELECT decode.
    pub mcs_ns: u64,
    /// Second-stage multi-column sort over grouped results
    /// (ORDER BY over aggregates, as in TPC-H Q13).
    pub post_sort_ns: u64,
    /// Aggregation / window-rank evaluation.
    pub aggregate_ns: u64,
    /// End-to-end.
    pub total_ns: u64,
    /// Detailed multi-column sort stats.
    pub mcs_stats: ExecStats,
    /// The plan that was executed (`None` if no multi-column sort ran, or
    /// the scalar fallback — which runs no massage plan — carried it).
    pub plan: Option<MassagePlan>,
    /// The sort instance the planner saw (rows, specs, column stats) —
    /// what EXPLAIN needs to re-derive per-round cost predictions.
    pub sort_instance: Option<SortInstance>,
    /// Degradation-ladder rungs taken while executing, in order (empty on
    /// the happy path).
    pub degradations: Vec<DegradeReason>,
    /// Always 0: every execution plans its own instance. Kept for the
    /// benchmark under `spine/`, which reads it; it goes with ROADMAP
    /// item 3(c).
    pub plan_cache_hits: u32,
    /// Always 0, like [`plan_cache_hits`](Self::plan_cache_hits).
    pub plan_cache_misses: u32,
    /// Wall-clock from the start of the
    /// [`Session::run_concurrent`](crate::Session::run_concurrent) batch
    /// to the start of this execution; zero outside a batch, the only
    /// path that queues. The conditional EXPLAIN `queued:` line renders
    /// only when this is non-zero, so tail latency can be attributed to
    /// queueing vs executing.
    pub queue_ns: u64,
    /// What the budgeted sort did (all-zero when every sort ran in
    /// memory — the case whenever [`ExecConfig::memory_budget_bytes`] is
    /// unset): `runs` sums [`ExecStats::buckets`] over the query's sorts.
    pub spilled: SpillStats,
    /// The largest [`ExecStats::bucket_rows`] of the query's sorts; 0
    /// when no sort was partitioned.
    pub bucket_rows: usize,
    /// Per sort key of the query's (first) sort, in key order: its
    /// declared width and the width it was sorted at, narrower when the
    /// sort read the column's rank codes. Empty when no sort ran, and
    /// when every key sorted at its declared width.
    pub key_widths: Vec<KeyWidth>,
}

/// One sort key's declared width beside the width it was sorted at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyWidth {
    /// The key column.
    pub column: String,
    /// Its declared code width.
    pub declared: u32,
    /// The width sorted: the rank width when the sort read the column's
    /// rank codes ([`Column::rank_codes`]), else `declared`.
    pub sorted: u32,
}

/// The bucket count of a query's budgeted sorts, in the shape the
/// benchmark under `spine/` reads: `runs` counts buckets, and the other
/// three fields are always 0 (nothing goes to disk and nothing is
/// merged). Compatibility only: it goes when the benchmark reads
/// [`ExecStats::buckets`] (ROADMAP item 3(c)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Buckets sorted one at a time under the budget, summed over the
    /// query's sorts (0 = every sort ran in memory whole).
    pub runs: u64,
    /// Always 0.
    pub bytes: u64,
    /// Always 0.
    pub merge_comparisons: u64,
    /// Always 0.
    pub merge_ovc_hits: u64,
}

/// A materialized query result.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output columns, in declaration order: group keys then aggregates,
    /// or the projection plus `rank` for window queries.
    pub columns: Vec<(String, Vec<u64>)>,
    /// Number of output rows.
    pub rows: usize,
    /// Phase timings.
    pub timings: QueryTimings,
}

impl QueryResult {
    /// Fetch an output column by name.
    pub fn column(&self, name: &str) -> Option<&[u64]> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Fetch an output column by name, or a typed
    /// [`UnknownColumn`](EngineError::UnknownColumn) error naming it.
    pub fn column_required(&self, name: &str) -> Result<&[u64], EngineError> {
        self.column(name).ok_or_else(|| EngineError::UnknownColumn {
            column: name.to_string(),
            context: "result",
        })
    }
}

/// Push a degradation rung: remembered in the timings, counted under
/// `engine.degraded` with a `reason` label, and given a zero-duration
/// marker span carrying the detail.
fn record_degradation(timings: &mut QueryTimings, reason: DegradeReason, detail: &str) {
    timings.degradations.push(reason);
    if telemetry::is_enabled() {
        telemetry::counter_add("engine.degraded", 1);
        telemetry::record_span(
            "engine.degraded",
            0,
            vec![
                ("reason", reason.as_str().into()),
                ("detail", detail.to_string().into()),
            ],
        );
    }
}

/// Execute `query` against `table`, returning a typed error for
/// conditions the engine cannot execute around (see [`EngineError`]).
/// Recoverable faults degrade along the module-level ladder instead.
///
/// This one-shot entry point is exactly a cold
/// [`Session`](crate::Session) execution: the same pipeline over a fresh
/// arena and a fresh plan-search scratch. A session pools both across
/// queries, so a warm execution reuses their buffers.
pub fn run_query(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
) -> Result<QueryResult, EngineError> {
    run_pipeline(table, query, cfg, &mut Workspace::default())
}

/// The working memory one execution borrows: the arena its sorts draw
/// their buffers from and the scratch its plan searches work in.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    pub(crate) arena: ExecArena,
    pub(crate) search: SearchScratch,
}

/// The pipeline body behind both [`run_query`] and
/// [`Session::query`](crate::Session::query): plans and sorts in `ws`,
/// and counts a deadline or cancellation outcome under its telemetry
/// counter.
pub(crate) fn run_pipeline(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    ws: &mut Workspace,
) -> Result<QueryResult, EngineError> {
    let t_total = Instant::now();
    let mut timings = QueryTimings::default();

    // Fail fast: an already-expired deadline (or pre-fired token) returns
    // before any phase runs — no filter scan, no gather, no plan search,
    // no sort. The executor re-polls the same token at every later phase
    // boundary and inside the long loops.
    if let Err(cause) = cfg.exec.sort.cancel.check() {
        return Err(count_cancellation(cause.into(), query));
    }

    let mut cols = Columns::resolve(table, query)?;
    let oids = filter_oids(query, &cols, &mut timings);
    let result = execute(query, &mut cols, cfg, oids.as_deref(), &mut timings, ws)
        .map_err(|e| count_cancellation(e, query))?;

    timings.total_ns = t_total.elapsed().as_nanos() as u64;
    if telemetry::is_enabled() {
        telemetry::record_span(
            "engine.query",
            timings.total_ns,
            vec![
                ("query", query.name.clone().into()),
                (
                    "rows_in",
                    oids.as_ref().map_or(table.rows(), Vec::len).into(),
                ),
                (
                    "rows_out",
                    result.first().map_or(0, |(_, v)| v.len()).into(),
                ),
            ],
        );
        telemetry::counter_add("engine.queries", 1);
    }
    Ok(QueryResult {
        rows: result.first().map_or(0, |(_, v)| v.len()),
        columns: result,
        timings,
    })
}

/// Count a deadline or cancellation outcome under `engine.deadline_exceeded`
/// / `engine.cancelled` with a query-named marker span; other errors pass
/// through uncounted.
fn count_cancellation(e: EngineError, query: &Query) -> EngineError {
    let counter = match e {
        EngineError::DeadlineExceeded => "engine.deadline_exceeded",
        EngineError::Cancelled => "engine.cancelled",
        _ => return e,
    };
    if telemetry::is_enabled() {
        telemetry::counter_add(counter, 1);
        telemetry::record_span(counter, 0, vec![("query", query.name.clone().into())]);
    }
    e
}

/// What a query outputs, which decides what its sort must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// ORDER BY: the SELECT columns in sort order.
    Ordered,
    /// GROUP BY: keys and aggregates per final tie group.
    Grouped,
    /// PARTITION BY this many keys: the SELECT columns plus `rank`.
    Windowed(usize),
}

/// One sort key: its column, its direction, and what the sort reads of
/// it — the column's rank codes when it has them, else its base codes.
/// Only the sort reads the rank codes; every other reader of a key
/// (GROUP BY output, RANK's partition bounds, aggregates, filters)
/// reads the base codes.
struct SortKey<'t> {
    column: &'t Column,
    descending: bool,
    ranks: Option<&'t RankCodes>,
}

impl<'t> SortKey<'t> {
    /// The codes the sort reads.
    fn sorted_codes(&self) -> &'t CodeVec {
        self.ranks.map_or(self.column.codes(), RankCodes::codes)
    }

    /// The width the sort reads them at.
    fn sorted_width(&self) -> u32 {
        self.ranks.map_or(self.column.width(), RankCodes::width)
    }

    /// The statistics of what the sort reads.
    fn sorted_stats(&self) -> &'t ColumnStats {
        self.ranks.map_or(self.column.stats(), RankCodes::stats)
    }
}

/// Every column a query reads, looked up once before any work runs: a
/// name the table lacks fails by existence, whatever rows the filter
/// keeps.
struct Columns<'t> {
    shape: Shape,
    /// The WHERE columns, in `query.filters` order.
    filters: Vec<&'t Column>,
    /// The sort keys ([`Query::sort_keys`]).
    keys: Vec<SortKey<'t>>,
    /// SELECT (a grouped query outputs its keys and aggregates instead).
    select: Vec<&'t CodeVec>,
    /// Per aggregate of a grouped query, the column it reads.
    aggs: Vec<Option<&'t CodeVec>>,
    /// Per ORDER BY key of a grouped query, the output column it names
    /// (group keys first, then aggregate labels).
    resort: Vec<usize>,
}

impl<'t> Columns<'t> {
    /// Resolve every column `query` names. Each sort key reads its base
    /// codes until [`sort_instance`](Self::sort_instance) picks its input.
    ///
    /// A window query's order keys may total at most 64 declared bits —
    /// a documented limit of the query surface, with a pinned wire error
    /// code — so a wider one is rejected here, before any plan search
    /// and before the layout choice: whether a query is accepted does
    /// not depend on the data.
    fn resolve(table: &'t Table, query: &Query) -> Result<Columns<'t>, EngineError> {
        let keys = query.sort_keys();
        if keys.is_empty() {
            return Err(EngineError::NoSortKeys {
                query: query.name.clone(),
            });
        }
        let unknown = |column: &String, context| EngineError::UnknownColumn {
            column: column.clone(),
            context,
        };
        let col = |c: &String, context| table.column(c).ok_or_else(|| unknown(c, context));
        let shape = if !query.partition_by.is_empty() {
            Shape::Windowed(query.partition_by.len())
        } else if !query.group_by.is_empty() {
            Shape::Grouped
        } else {
            Shape::Ordered
        };
        let (select, aggs, order_by) = match shape {
            Shape::Grouped => (&[][..], &query.aggregates[..], &query.order_by[..]),
            _ => (&query.select[..], &[][..], &[][..]),
        };
        let outputs = query.group_by.iter().chain(aggs.iter().map(|a| &a.label));
        let cols = Columns {
            shape,
            filters: query
                .filters
                .iter()
                .map(|f| col(&f.column, "filter"))
                .collect::<Result<_, _>>()?,
            keys: keys
                .iter()
                .map(|k| {
                    Ok(SortKey {
                        column: col(&k.column, "sort key")?,
                        descending: k.descending,
                        ranks: None,
                    })
                })
                .collect::<Result<_, EngineError>>()?,
            select: select
                .iter()
                .map(|c| Ok(col(c, "SELECT")?.codes()))
                .collect::<Result<_, EngineError>>()?,
            aggs: aggs
                .iter()
                .map(|a| match &a.kind {
                    AggKind::Count => Ok(None),
                    AggKind::CountDistinct(c)
                    | AggKind::Sum(c)
                    | AggKind::Avg(c)
                    | AggKind::Min(c)
                    | AggKind::Max(c) => Ok(Some(col(c, "aggregate")?.codes())),
                })
                .collect::<Result<_, EngineError>>()?,
            resort: order_by
                .iter()
                .map(|k| {
                    let found = outputs.clone().position(|n| *n == k.column);
                    found.ok_or_else(|| unknown(&k.column, "ORDER BY over grouped result"))
                })
                .collect::<Result<_, _>>()?,
        };
        if let Shape::Windowed(np) = cols.shape {
            let bits: u32 = cols.keys[np..].iter().map(|k| k.column.width()).sum();
            if bits > 64 {
                return Err(EngineError::WindowKeyTooWide { bits });
            }
        }
        Ok(cols)
    }

    /// Pick each sort key's input, once per query, and return the
    /// planner's instance for the keys over `rows` qualifying rows at the
    /// widths and statistics of what the sort reads. A key reads its
    /// rank codes when its column has them (the first read builds them,
    /// with the column's statistics), unless `planner` fixes a plan,
    /// which is stated over declared widths. The instance asks for the
    /// final grouping exactly when the query reads it (GROUP BY,
    /// PARTITION BY): the one place that fact is set.
    fn sort_instance(&mut self, rows: usize, planner: &PlannerMode) -> SortInstance {
        let coded = !matches!(planner, PlannerMode::Fixed(_));
        let mut specs = Vec::with_capacity(self.keys.len());
        let mut stats = Vec::with_capacity(self.keys.len());
        for k in &mut self.keys {
            k.ranks = if coded { k.column.rank_codes() } else { None };
            specs.push(SortSpec {
                width: k.sorted_width(),
                descending: k.descending,
            });
            let mut s = KeyColumnStats::from_stats(k.sorted_width(), k.sorted_stats());
            // Filtering can only reduce cardinality.
            s.ndv = s.ndv.min(rows as f64).max(1.0);
            stats.push(s);
        }
        SortInstance {
            rows,
            specs,
            stats,
            want_final_groups: self.shape != Shape::Ordered,
        }
    }

    /// Each key's declared width beside the width its sort reads; empty
    /// (and allocation-free) when no key is rank-coded.
    fn key_widths(&self) -> Vec<KeyWidth> {
        if self.keys.iter().all(|k| k.ranks.is_none()) {
            return Vec::new();
        }
        self.keys
            .iter()
            .map(|k| KeyWidth {
                column: k.column.name().to_string(),
                declared: k.column.width(),
                sorted: k.sorted_width(),
            })
            .collect()
    }
}

/// Run `query`'s filters: ByteSlice scans, ANDed, into the ascending ids
/// of the rows they keep; `None`, every row, when the query has none.
fn filter_oids(query: &Query, cols: &Columns<'_>, timings: &mut QueryTimings) -> Option<Vec<u32>> {
    let t = Instant::now();
    let mut acc: Option<BitVec> = None;
    for (f, col) in query.filters.iter().zip(&cols.filters) {
        let bv = col.byteslice().scan(&f.predicate);
        acc = Some(match acc {
            None => bv,
            Some(mut a) => {
                a.and_assign(&bv);
                a
            }
        });
    }
    let oids = acc.map(|a| a.to_oids());
    timings.filter_scan_ns += t.elapsed().as_nanos() as u64;
    oids
}

/// The checks every execution of `query` on `table` makes before any
/// work: every column it names resolves, and a window key fits one
/// machine word. [`Session::prepare`](crate::Session::prepare) runs them.
pub(crate) fn validate(table: &Table, query: &Query) -> Result<(), EngineError> {
    Columns::resolve(table, query).map(drop)
}

/// Run the planner, returning the plan and the column order to apply,
/// recording search time. Only [`PlannerMode::Roga`] searches, in
/// `scratch`; fixed and column-at-a-time picks cost nothing.
///
/// First rung of the degradation ladder: a failed search or a non-finite
/// cost estimate falls back to `P_0` on the identity order (recording
/// why) instead of failing the query. Only an
/// empty sort key — for which `P_0` is equally impossible — is an error.
fn pick_plan(
    inst: &SortInstance,
    order_free: bool,
    cfg: &EngineConfig,
    timings: &mut QueryTimings,
    scratch: &mut SearchScratch,
) -> Result<(MassagePlan, Vec<usize>), EngineError> {
    let t = Instant::now();
    let identity = || (0..inst.specs.len()).collect::<Vec<usize>>();
    let picked = match &cfg.planner {
        PlannerMode::ColumnAtATime => (inst.p0(), identity()),
        // Experiments may hand the engine arbitrary plans; the executor
        // validates them, and the ladder degrades an invalid one to P0.
        PlannerMode::Fixed(p) => (p.clone(), identity()),
        PlannerMode::Roga { .. } => match optimal(inst, &cfg.model, order_free, scratch) {
            // Nothing can plan a zero-width key; P0 would be just as invalid.
            Err(SearchError::EmptySortKey) => {
                return Err(EngineError::PlanSearch(SearchError::EmptySortKey))
            }
            Err(e) => {
                record_degradation(timings, DegradeReason::PlanSearchFailed, &e.to_string());
                (inst.p0(), identity())
            }
            // Cost-model breakdown (NaN/∞ estimates): the plan ranking is
            // meaningless, so trust Lemma 1 over it.
            Ok(r) if !r.est_cost.is_finite() => {
                let detail = format!("estimated cost {}", r.est_cost);
                record_degradation(timings, DegradeReason::NonFiniteCost, &detail);
                (inst.p0(), identity())
            }
            Ok(r) => (r.plan, r.column_order),
        },
    };
    timings.plan_search_ns += t.elapsed().as_nanos() as u64;
    Ok(picked)
}

/// Whether a sort failure can be executed around by another plan. Input
/// conditions (no columns, spec mismatch, row-count overflow) cannot —
/// and neither can [`SortError::Cancelled`]: a cancelled or timed-out
/// query must surface immediately, never re-run its work on a lower
/// rung. Cancellation is deliberately absent from this whitelist.
fn sort_error_recoverable(e: &SortError) -> bool {
    matches!(
        e,
        SortError::InvalidPlan(_) | SortError::WorkerPanicked { .. } | SortError::Injected(_)
    )
}

/// One sort attempt under one plan, of the rows `rows` lists (all rows
/// when `None`): one call of the core sort, which owns the partition
/// decision; its buckets are recorded in `timings`.
fn sort_once(
    pcols: &[&CodeVec],
    rows: Option<&[u32]>,
    pspecs: &[SortSpec],
    plan: &MassagePlan,
    exec: &ExecConfig,
    arena: &mut ExecArena,
    timings: &mut QueryTimings,
) -> Result<MultiColumnSortOutput, SortError> {
    let out = multi_column_sort(pcols, rows, pspecs, plan, exec, arena)?;
    timings.spilled.runs += out.stats.buckets;
    timings.bucket_rows = timings.bucket_rows.max(out.stats.bucket_rows);
    Ok(out)
}

/// Execute the sort under `plan`, degrading to `P_0` and then to the
/// scalar comparator sort (rungs 2 and 3 of the ladder; an invalid plan
/// takes rung 1's `P_0`). Returns the output and the plan that actually
/// ran (`None` = scalar fallback).
fn sort_with_ladder(
    pcols: &[&CodeVec],
    rows: Option<&[u32]>,
    pspecs: &[SortSpec],
    plan: MassagePlan,
    exec: &ExecConfig,
    timings: &mut QueryTimings,
    arena: &mut ExecArena,
) -> Result<(MultiColumnSortOutput, Option<MassagePlan>), EngineError> {
    // Every rung draws from the same arena — the executor restores it on
    // failure, so rung N+1 reuses rung N's buffers rather than starting
    // cold.
    let first = sort_once(pcols, rows, pspecs, &plan, exec, arena, timings);
    let err = match first {
        Ok(out) => return Ok((out, Some(plan))),
        Err(e) => e,
    };
    if !sort_error_recoverable(&err) {
        // `.into()` so a mid-sort cancellation surfaces as
        // `DeadlineExceeded`/`Cancelled`, not wrapped inside `Sort`.
        return Err(err.into());
    }
    let reason = match err {
        SortError::InvalidPlan(_) => DegradeReason::InvalidPlan,
        _ => DegradeReason::ExecFailed,
    };
    record_degradation(timings, reason, &err.to_string());

    // Deadline-aware ladder: every rung below re-runs the sort from
    // scratch, so once the token has fired the ladder stops — a timeout
    // can never double the work.
    if let Err(cause) = exec.sort.cancel.check() {
        return Err(cause.into());
    }

    // Rung 2: P0 (skipped when the failing plan already was P0 — identical
    // input, identical outcome).
    let p0 = MassagePlan::column_at_a_time(pspecs);
    if plan != p0 {
        match sort_once(pcols, rows, pspecs, &p0, exec, arena, timings) {
            Ok(out) => return Ok((out, Some(p0))),
            Err(e) if sort_error_recoverable(&e) => {
                record_degradation(timings, DegradeReason::ScalarFallback, &e.to_string());
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        record_degradation(
            timings,
            DegradeReason::ScalarFallback,
            "failing plan already was P0",
        );
    }

    // Same gate before the scalar rung: it re-sorts everything too.
    if let Err(cause) = exec.sort.cancel.check() {
        return Err(cause.into());
    }

    // Rung 3: scalar comparator sort — no SIMD, no massage, no threads.
    Ok((scalar_fallback_sort(pcols, rows, pspecs, exec), None))
}

/// The bottom of the ladder: a stable scalar sort of `rows` (all rows
/// when `None`) by the §3 tuple comparator over the raw key columns,
/// grouping built from tie runs. Slow, but free of every machinery the
/// ladder is escaping.
fn scalar_fallback_sort(
    pcols: &[&CodeVec],
    rows: Option<&[u32]>,
    pspecs: &[SortSpec],
    exec: &ExecConfig,
) -> MultiColumnSortOutput {
    let t0 = Instant::now();
    let all = pcols.first().map_or(0, |c| c.len()) as u32;
    let mut oids: Vec<u32> = rows.map_or_else(|| (0..all).collect(), <[u32]>::to_vec);
    let n = oids.len();
    oids.sort_by(|&a, &b| tuple_cmp(pcols, pspecs, a, b));
    let groups = if exec.want_final_groups {
        let mut offsets: Vec<u32> = vec![0];
        for p in 1..n {
            if tuple_cmp(pcols, pspecs, oids[p - 1], oids[p]) != core::cmp::Ordering::Equal {
                offsets.push(p as u32);
            }
        }
        offsets.push(n as u32);
        if n == 0 {
            GroupBounds::whole(0)
        } else {
            GroupBounds::from_offsets(offsets)
        }
    } else {
        GroupBounds::whole(n)
    };
    // The key columns asked for, read through the oids: this rung has no
    // round keys to decode them from.
    let td = Instant::now();
    let keys = exec.wanted_keys(pcols.len(), |c| {
        oids.iter().map(|&o| pcols[c].get(o as usize)).collect()
    });
    let stats = ExecStats {
        decode_ns: td.elapsed().as_nanos() as u64,
        total_ns: t0.elapsed().as_nanos() as u64,
        ..ExecStats::default()
    };
    MultiColumnSortOutput {
        oids,
        groups,
        keys,
        stats,
    }
}

/// Sort `rows` (all rows when `None`) of `cols` (described by `inst`)
/// under `picked` — the plan and column order [`pick_plan`] chose —
/// down the degradation ladder, with `exec`'s settings. The executor
/// builds the final grouping exactly when `inst.want_final_groups` says
/// the query reads it, and decodes the key columns `exec.want_keys`
/// names (bit `i` names `cols[i]`) into the output's `keys`, in the order
/// of `cols`. Returns the output, the plan that ran, and `inst` in
/// planner column order (what EXPLAIN prices).
fn sort_planned(
    cols: &[&CodeVec],
    rows: Option<&[u32]>,
    inst: SortInstance,
    (plan, mut order): (MassagePlan, Vec<usize>),
    mut exec: ExecConfig,
    timings: &mut QueryTimings,
    arena: &mut ExecArena,
) -> Result<(MultiColumnSortOutput, Option<MassagePlan>, SortInstance), EngineError> {
    let pcols: Vec<&CodeVec> = order.iter().map(|&i| cols[i]).collect();
    let inst = if order.iter().enumerate().all(|(j, &i)| i == j) {
        inst
    } else {
        permute_instance(&inst, &order)
    };
    exec.want_final_groups = inst.want_final_groups;
    exec.want_keys = (0..order.len().min(64))
        .filter(|&j| exec.wants_key(order[j]))
        .fold(0, |bits, j| bits | 1 << j);
    let (mut out, ran_plan) =
        sort_with_ladder(&pcols, rows, &inst.specs, plan, &exec, timings, arena)?;
    // Decoded columns come back in planner order: swap each into the
    // place of the column it is.
    if !out.keys.is_empty() {
        for i in 0..order.len() {
            let j = order[i..].iter().position(|&c| c == i).map_or(i, |p| i + p);
            out.keys.swap(i, j);
            order.swap(i, j);
        }
    }
    Ok((out, ran_plan, inst))
}

/// The one body behind every query shape: sort the qualifying `rows`
/// (every row when `None`) by the query's keys once, then read each
/// output straight from its base column through the sort's final oids —
/// and, for GROUP BY and PARTITION BY, through the sort's final tie
/// groups (Figure 2, steps 4–5) — except a SELECT of a sort key, which
/// the sort decodes from its sorted round keys. No column is gathered
/// into a copy and no tie is found twice.
fn execute(
    query: &Query,
    cols: &mut Columns<'_>,
    cfg: &EngineConfig,
    rows: Option<&[u32]>,
    timings: &mut QueryTimings,
    ws: &mut Workspace,
) -> Result<Vec<(String, Vec<u64>)>, EngineError> {
    let n = rows.map_or(cols.keys[0].column.len(), <[u32]>::len);
    if cols.shape == Shape::Grouped && n == 0 {
        // No qualifying rows: zero groups, empty output columns.
        let names = query
            .group_by
            .iter()
            .chain(query.aggregates.iter().map(|a| &a.label));
        return Ok(names.map(|n| (n.clone(), Vec::new())).collect());
    }
    let inst = cols.sort_instance(n, &cfg.planner);
    let keys: Vec<&CodeVec> = cols.keys.iter().map(SortKey::sorted_codes).collect();
    let picked = pick_plan(&inst, query.order_free(), cfg, timings, &mut ws.search)?;
    // A SELECT of a sort key comes back from the sort itself, decoded
    // from the sorted round keys; the sort charges that decode to
    // `decode_ns`, which is SELECT time, not sorting.
    let key_index = |c: &CodeVec| {
        cols.keys
            .iter()
            .position(|k| std::ptr::eq(k.column.codes(), c))
    };
    let want_keys = cols
        .select
        .iter()
        .filter_map(|c| key_index(c).filter(|&i| i < 64))
        .fold(0, |bits, i| bits | 1 << i);
    let exec = ExecConfig {
        want_keys,
        ..cfg.exec.clone()
    };
    let t = Instant::now();
    let (mut out, ran_plan, inst) =
        sort_planned(&keys, rows, inst, picked, exec, timings, &mut ws.arena)?;
    // A rank-coded key comes back as ranks: map them to codes in place,
    // as part of the decode.
    let td = Instant::now();
    for (k, vals) in cols.keys.iter().zip(&mut out.keys) {
        if let Some(ranks) = k.ranks {
            ranks.decode_in_place(vals);
        }
    }
    out.stats.decode_ns += td.elapsed().as_nanos() as u64;
    let decode_ns = out.stats.decode_ns;
    timings.mcs_ns += (t.elapsed().as_nanos() as u64).saturating_sub(decode_ns);
    timings.gather_ns += decode_ns;
    timings.mcs_stats = out.stats.clone();
    timings.plan = ran_plan;
    timings.sort_instance = Some(inst);
    timings.key_widths = cols.key_widths();

    // SELECT: each key column as the sort decoded it, every other column
    // in one pass straight from its base codes.
    let t = Instant::now();
    let mut result: Vec<(String, Vec<u64>)> = query
        .select
        .iter()
        .zip(&cols.select)
        .map(|(name, c)| {
            let decoded = key_index(c).and_then(|i| out.keys.get_mut(i));
            let vals = match decoded.filter(|v| v.len() == n) {
                Some(v) => std::mem::take(v),
                None => out.oids.iter().map(|&o| c.get(o as usize)).collect(),
            };
            (name.clone(), vals)
        })
        .collect();
    timings.gather_ns += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let span = match cols.shape {
        Shape::Ordered => None,
        Shape::Windowed(np) => {
            // The final groups are the ties on (partition keys, window
            // order), so they carry the ranks; partitions only coarsen them.
            let part_keys: Vec<&CodeVec> =
                cols.keys[..np].iter().map(|k| k.column.codes()).collect();
            let parts = partition_bounds(&out.groups, &out.oids, &part_keys);
            result.push(("rank".to_string(), rank_over(&parts, &out.groups)));
            let attrs = [("partitions", parts.num_groups()), ("rows", out.oids.len())];
            Some(("engine.window.rank", attrs))
        }
        Shape::Grouped => {
            // Group keys from each group's first row, then the aggregates.
            for (name, k) in query.group_by.iter().zip(&cols.keys) {
                let vals = out
                    .groups
                    .iter()
                    .map(|r| k.column.get(out.oids[r.start] as usize));
                result.push((name.clone(), vals.collect()));
            }
            let aggs = aggregate_groups(&query.aggregates, &cols.aggs, &out.groups, &out.oids);
            result.extend(aggs);
            let attrs = [
                ("groups", out.groups.num_groups()),
                ("aggregates", cols.aggs.len()),
            ];
            Some(("engine.aggregate", attrs))
        }
    };
    if let Some((name, attrs)) = span {
        let elapsed = t.elapsed().as_nanos() as u64;
        timings.aggregate_ns += elapsed;
        if telemetry::is_enabled() {
            let attrs = attrs.iter().map(|&(k, v)| (k, v.into())).collect();
            telemetry::record_span(name, elapsed, attrs);
        }
    }
    if !cols.resort.is_empty() {
        sort_grouped(&mut result, cols, query, cfg, timings, ws)?;
    }
    Ok(result)
}

/// ORDER BY over group keys / aggregate labels: a second multi-column sort
/// of the grouped rows (TPC-H Q13's situation), which reads no grouping.
fn sort_grouped(
    result: &mut [(String, Vec<u64>)],
    cols: &Columns<'_>,
    query: &Query,
    cfg: &EngineConfig,
    timings: &mut QueryTimings,
    ws: &mut Workspace,
) -> Result<(), EngineError> {
    let t = Instant::now();
    let rows = result.first().map_or(0, |(_, v)| v.len());
    let mut keys: Vec<CodeVec> = Vec::with_capacity(cols.resort.len());
    let mut specs: Vec<SortSpec> = Vec::with_capacity(cols.resort.len());
    let mut stats: Vec<KeyColumnStats> = Vec::with_capacity(cols.resort.len());
    for (&i, k) in cols.resort.iter().zip(&query.order_by) {
        let vals = &result[i].1;
        let width = mcs_columnar::width_for_max(vals.iter().copied().max().unwrap_or(0));
        let codes = CodeVec::from_u64s(width, vals.iter().copied());
        // Exact NDVs let the planner choose between P0 and a massaged
        // plan; counting them is one pass over the grouped rows.
        let ndv = ColumnStats::compute(&codes, width).ndv;
        stats.push(KeyColumnStats::uniform(width, ndv as f64));
        specs.push(SortSpec {
            width,
            descending: k.descending,
        });
        keys.push(codes);
    }
    let inst = SortInstance {
        rows,
        specs,
        stats,
        want_final_groups: false,
    };
    let picked = pick_plan(&inst, false, cfg, timings, &mut ws.search)?;
    let refs: Vec<&CodeVec> = keys.iter().collect();
    let exec = ExecConfig {
        want_keys: 0,
        ..cfg.exec.clone()
    };
    let (sorted, _, _) = sort_planned(&refs, None, inst, picked, exec, timings, &mut ws.arena)?;
    for (_, vals) in result.iter_mut() {
        *vals = sorted.oids.iter().map(|&p| vals[p as usize]).collect();
    }
    timings.post_sort_ns += t.elapsed().as_nanos() as u64;
    Ok(())
}

/// Materialize a query result as a new [`Table`] (multi-stage queries such
/// as TPC-H Q13 feed one query's output into another).
pub fn result_to_table(name: impl Into<String>, result: &QueryResult) -> Table {
    let mut t = Table::new(name);
    for (cname, vals) in &result.columns {
        let width = mcs_columnar::width_for_max(vals.iter().copied().max().unwrap_or(0));
        t.add_column(Column::from_u64s(
            cname.clone(),
            width,
            vals.iter().copied(),
        ));
    }
    t
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::query::{Agg, Filter, OrderKey};
    use mcs_columnar::Predicate;

    fn small_table() -> Table {
        let mut t = Table::new("sales");
        t.add_column(Column::from_u64s("nation", 2, [1u64, 0, 1, 0, 2, 2]));
        t.add_column(Column::from_u64s("ship_date", 3, [5u64, 2, 5, 1, 3, 3]));
        t.add_column(Column::from_u64s("price", 8, [40u64, 30, 10, 20, 50, 60]));
        t
    }

    #[test]
    fn filtered_and_unfiltered_order_by_match_the_reference() {
        // Unfiltered, the sort reads every row; filtered, it reads the
        // qualifying rows through their oids. Both return base row ids.
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![
            OrderKey::asc("nation"),
            OrderKey::desc("ship_date"),
            OrderKey::asc("price"),
        ];
        q.select = vec!["price".into(), "nation".into(), "ship_date".into()];
        let cheap = Filter {
            column: "price".into(),
            predicate: Predicate::Lt(45),
        };
        for filters in [vec![], vec![cheap]] {
            q.filters = filters;
            let got = run_query(&t, &q, &EngineConfig::default()).unwrap();
            assert_eq!(got.columns, crate::reference::naive_execute(&t, &q));
        }
    }

    // Old panic site: the filter scan's `expect_column`.
    #[test]
    fn unknown_filter_column_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("nation")];
        q.select = vec!["nation".into()];
        q.filters = vec![Filter {
            column: "zip".into(),
            predicate: Predicate::Lt(3),
        }];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownColumn {
                column: "zip".into(),
                context: "filter"
            }
        );
    }

    // Old panic site: `prepare_sort`'s `expect_column` on a sort key.
    #[test]
    fn unknown_sort_key_column_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("no_such_key")];
        q.select = vec!["nation".into()];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnknownColumn {
                context: "sort key",
                ..
            }
        ));
    }

    // Old panic site: `assert!(!keys.is_empty())` on the ORDER BY path.
    #[test]
    fn query_without_sort_keys_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("bare");
        q.select = vec!["nation".into()];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::NoSortKeys {
                query: "bare".into()
            }
        );
    }

    #[test]
    fn unknown_select_column_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("nation")];
        q.select = vec!["nation".into(), "ghost".into()];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnknownColumn {
                context: "SELECT",
                ..
            }
        ));
    }

    // Old panic site: the aggregate fetch closure's `expect_column`.
    #[test]
    fn unknown_aggregate_column_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("q");
        q.group_by = vec!["nation".into()];
        q.aggregates = vec![Agg::new(AggKind::Sum("ghost".into()), "s")];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnknownColumn {
                context: "aggregate",
                ..
            }
        ));
    }

    // Unknown columns fail by existence, not by data: a filter that keeps
    // no row (so no group forms) returns the same error as one that keeps
    // every row.
    fn assert_unknown_with_and_without_rows(mut q: Query, column: &str, context: &'static str) {
        let t = small_table();
        let want = EngineError::UnknownColumn {
            column: column.into(),
            context,
        };
        for predicate in [Predicate::Le(255), Predicate::Gt(255)] {
            q.filters = vec![Filter {
                column: "price".into(),
                predicate,
            }];
            let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
            assert_eq!(err, want, "{predicate:?}");
        }
    }

    #[test]
    fn unknown_group_by_column_fails_with_or_without_rows() {
        let mut q = Query::named("q");
        q.group_by = vec!["nation".into(), "ghost".into()];
        q.aggregates = vec![Agg::new(AggKind::Count, "cnt")];
        assert_unknown_with_and_without_rows(q, "ghost", "sort key");
    }

    #[test]
    fn unknown_aggregate_column_fails_with_or_without_rows() {
        let mut q = Query::named("q");
        q.group_by = vec!["nation".into()];
        q.aggregates = vec![
            Agg::new(AggKind::Count, "cnt"),
            Agg::new(AggKind::Avg("ghost".into()), "a"),
        ];
        assert_unknown_with_and_without_rows(q, "ghost", "aggregate");
    }

    // A plain ORDER BY reads no grouping, so its last round skips the
    // boundary scan (and so does every bucket of a budgeted sort) — with
    // the same oids as the sort that builds them.
    #[test]
    fn order_by_skips_the_final_boundary_scan() {
        let n = 3000u64;
        let mut t = Table::new("t");
        t.add_column(Column::from_u64s("a", 3, (0..n).map(|i| i * 7 % 5)));
        t.add_column(Column::from_u64s("b", 4, (0..n).map(|i| i * 13 % 11)));
        t.add_column(Column::from_u64s("rid", 12, 0..n));
        let mut q = Query::named("o");
        q.order_by = vec![OrderKey::asc("a"), OrderKey::desc("b")];
        q.select = vec!["rid".into()];
        for budget in [None, Some(4096)] {
            let mut cfg = EngineConfig::without_massaging();
            cfg.exec.memory_budget_bytes = budget;
            let r = run_query(&t, &q, &cfg).unwrap();
            assert_eq!(r.timings.spilled.runs > 0, budget.is_some());
            let last = r.timings.mcs_stats.rounds.last().unwrap();
            assert_eq!(last.scan_ns, 0, "budget {budget:?}");
            assert_eq!(last.groups_out, last.groups_in, "budget {budget:?}");

            let exec = ExecConfig {
                want_final_groups: true,
                ..cfg.exec.clone()
            };
            let inst = r.timings.sort_instance.as_ref().unwrap();
            let plan = r.timings.plan.as_ref().unwrap();
            let cols = [t.expect_column("a").codes(), t.expect_column("b").codes()];
            let mut timings = QueryTimings::default();
            let grouped = sort_once(
                &cols,
                None,
                &inst.specs,
                plan,
                &exec,
                &mut ExecArena::new(),
                &mut timings,
            )
            .unwrap();
            assert_eq!(timings.spilled.runs > 0, budget.is_some());
            assert!(grouped.groups.num_groups() > 1);
            let rids: Vec<u64> = grouped.oids.iter().map(|&o| o as u64).collect();
            assert_eq!(r.column("rid").unwrap(), rids, "budget {budget:?}");
        }
    }

    // Old panic site: `unwrap_or_else(|| panic!("ORDER BY column ..."))`
    // on the grouped-result post-sort.
    #[test]
    fn unknown_grouped_order_by_column_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("q");
        q.group_by = vec!["nation".into()];
        q.aggregates = vec![Agg::new(AggKind::Count, "cnt")];
        q.order_by = vec![OrderKey::desc("not_a_label")];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnknownColumn {
                context: "ORDER BY over grouped result",
                ..
            }
        ));
    }

    // Old panic site: `assert!(total_wo <= 64)` on the window path. The
    // check now fires *before* any sorting work.
    #[test]
    fn too_wide_window_key_is_a_typed_error() {
        let mut t = Table::new("wide");
        t.add_column(Column::from_u64s("p", 2, [0u64, 1, 0, 1]));
        t.add_column(Column::from_u64s("a", 40, [7u64, 5, 3, 1]));
        t.add_column(Column::from_u64s("b", 40, [1u64, 2, 3, 4]));
        let mut q = Query::named("w");
        q.partition_by = vec!["p".into()];
        q.window_order = vec![OrderKey::asc("a"), OrderKey::asc("b")];
        q.select = vec!["p".into()];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert_eq!(err, EngineError::WindowKeyTooWide { bits: 80 });
    }

    // The limit is on declared widths: 40 + 40 bits are too wide even
    // though both columns' rank codes are 2 bits, built or not yet built,
    // under every planner mode, at execute and at prepare alike.
    #[test]
    fn window_key_limit_reads_declared_widths_not_rank_widths() {
        let mut t = Table::new("wide");
        t.add_column(Column::from_u64s("p", 2, [0u64, 1, 0, 1]));
        t.add_column(Column::from_u64s("a", 40, [7u64 << 30, 5, 3, 1]));
        t.add_column(Column::from_u64s("b", 40, [1u64, 2, 3, 4 << 30]));
        let mut q = Query::named("w");
        q.partition_by = vec!["p".into()];
        q.window_order = vec![OrderKey::asc("a"), OrderKey::asc("b")];
        q.select = vec!["a".into()];
        let want = EngineError::WindowKeyTooWide { bits: 80 };
        let fixed = PlannerMode::Fixed(MassagePlan::from_widths(&[2, 40, 40]));
        for planner in [
            PlannerMode::ColumnAtATime,
            fixed,
            PlannerMode::Roga { rho: None },
        ] {
            let cfg = EngineConfig::builder().planner(planner).build();
            assert_eq!(run_query(&t, &q, &cfg).unwrap_err(), want);
            assert_eq!(validate(&t, &q).unwrap_err(), want);
            let widths = ["a", "b"].map(|c| t.expect_column(c).rank_codes().map(|r| r.width()));
            assert_eq!(widths, [Some(2), Some(2)]);
        }
        // 2 + 40 declared bits fit, and sort at their rank widths.
        q.window_order = vec![OrderKey::desc("a")];
        let r = run_query(&t, &q, &EngineConfig::default()).unwrap();
        assert_eq!(r.columns, crate::reference::naive_execute(&t, &q));
        let sorted: Vec<u32> = r.timings.key_widths.iter().map(|k| k.sorted).collect();
        assert_eq!(sorted, [1, 2]);
    }

    // Old panic site: `multi_column_sort(...).expect(...)` in run_mcs. The
    // executor rejects an invalid fixed plan with a typed error, the
    // ladder degrades to P0, and the rung is recorded.
    #[test]
    fn invalid_fixed_plan_degrades_to_p0() {
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("nation"), OrderKey::asc("ship_date")];
        q.select = vec!["price".into()];
        let cfg = EngineConfig {
            // Total key width is 5 bits; a 9-bit plan is invalid.
            planner: PlannerMode::Fixed(MassagePlan::from_widths(&[9])),
            ..EngineConfig::default()
        };
        let r = run_query(&t, &q, &cfg).expect("degrades, does not fail");
        assert_eq!(r.timings.degradations, vec![DegradeReason::InvalidPlan]);
        let ran = r.timings.plan.as_ref().expect("a plan ran");
        assert_eq!(ran.num_rounds(), 2, "fell back to column-at-a-time");
        // Correctness is untouched: nation ASC, ship_date ASC.
        assert_eq!(r.column("price").unwrap(), vec![20, 30, 40, 10, 50, 60]);
    }

    #[test]
    fn column_required_names_the_missing_column() {
        let t = small_table();
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("nation")];
        q.select = vec!["price".into()];
        let r = run_query(&t, &q, &EngineConfig::default()).unwrap();
        assert_eq!(r.column_required("price").unwrap().len(), 6);
        assert_eq!(
            r.column_required("ghost").unwrap_err(),
            EngineError::UnknownColumn {
                column: "ghost".into(),
                context: "result",
            }
        );
    }

    #[test]
    fn builder_matches_default_and_overrides() {
        let built = EngineConfig::builder().build();
        assert!(matches!(built.planner, PlannerMode::Roga { rho: Some(r) } if r == 0.001));
        let cfg = EngineConfig::builder()
            .planner(PlannerMode::ColumnAtATime)
            .threads(3)
            .model(CostModel::with_defaults())
            .exec(ExecConfig {
                threads: 2,
                ..ExecConfig::default()
            })
            .build();
        // Later setters win: exec() replaced the whole struct after
        // threads() touched one field.
        assert_eq!(cfg.exec.threads, 2);
        assert!(matches!(cfg.planner, PlannerMode::ColumnAtATime));
    }

    #[test]
    fn scalar_fallback_sort_matches_comparator_order() {
        let a = CodeVec::from_u64s(3, [5u64, 2, 5, 1, 3, 3]);
        let b = CodeVec::from_u64s(8, [40u64, 30, 10, 20, 50, 60]);
        let specs = [
            SortSpec {
                width: 3,
                descending: false,
            },
            SortSpec {
                width: 8,
                descending: true,
            },
        ];
        let exec = ExecConfig {
            want_final_groups: true,
            ..ExecConfig::default()
        };
        let out = scalar_fallback_sort(&[&a, &b], None, &specs, &exec);
        assert_eq!(out.oids, vec![3, 1, 5, 4, 0, 2]);
        // Groups = ties on (a, b): all distinct here.
        assert_eq!(out.groups.num_groups(), 6);
        // And the trivial-grouping path.
        let exec2 = ExecConfig {
            want_final_groups: false,
            ..ExecConfig::default()
        };
        assert_eq!(
            scalar_fallback_sort(&[&a, &b], None, &specs, &exec2)
                .groups
                .num_groups(),
            1
        );
    }

    #[test]
    fn no_sort_keys_is_a_typed_error() {
        let t = small_table();
        let mut q = Query::named("boom");
        q.select = vec!["nation".into()];
        let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::NoSortKeys { ref query } if query == "boom"));
        assert!(err.to_string().contains("no sort keys"));
    }
}
