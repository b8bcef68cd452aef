//! The physical query pipeline: ByteSlice scans → lookups → (planned)
//! multi-column sort → aggregation / windowing, with per-phase timings.
//!
//! This is the execution structure of the paper's prototype (§6 and the
//! Figure 11 reference architecture): filters run as fast scans on the
//! WideTable, sorting columns are gathered via lookups, the optimizer
//! (ROGA, or column-at-a-time when massaging is off) picks a plan, and
//! the multi-column sort executor produces the order and grouping the
//! aggregates or window ranks consume.
//!
//! ## Degradation ladder
//!
//! Failures the engine can execute around never abort a query. The
//! ladder, each rung recorded in [`QueryTimings::degradations`] and the
//! `engine.degraded` telemetry counter:
//!
//! 1. plan search fails / cost estimate non-finite / deadline starves /
//!    chosen plan invalid → run column-at-a-time `P_0`, which is valid
//!    for any instance by the paper's Lemma 1;
//! 2. the sort execution itself fails (e.g. a worker-thread panic) →
//!    re-run under `P_0`;
//! 3. the `P_0` sort fails too → scalar comparator sort over the raw key
//!    columns (no SIMD, no massage — always executable).
//!
//! Only input conditions no plan can fix ([`EngineError`]) surface as
//! errors from [`run_query`].

use std::borrow::Cow;
use std::time::{Duration, Instant};

use mcs_columnar::{BitVec, CodeVec, Column, Table};
use mcs_core::{
    multi_column_sort, multi_column_sort_with, tuple_cmp, ExecArena, ExecConfig, ExecStats,
    GroupBounds, MassagePlan, MultiColumnSortOutput, SortError, SortKernel, SortSpec,
};
use mcs_cost::{CostModel, KeyColumnStats, SortInstance};
use mcs_extsort::{external_multi_column_sort_with, SpillStats};
use mcs_planner::{roga, rrs, PlanFingerprint, RogaOptions, RrsOptions, SearchError};
use mcs_telemetry as telemetry;

use crate::aggregate::aggregate_groups;
use crate::error::{DegradeReason, EngineError};
use crate::query::{AggKind, OrderKey, Query};
use crate::session::PlanCache;
use crate::window::rank_over;

/// How the engine picks massage plans.
#[derive(Debug, Clone)]
pub enum PlannerMode {
    /// Always column-at-a-time (`P_0`) — "code massaging disabled".
    ColumnAtATime,
    /// ROGA (Algorithm 1) with time threshold `ρ`.
    Roga {
        /// Fraction of the best plan's estimated time (None = no limit).
        rho: Option<f64>,
    },
    /// Recursive random search with a fixed budget (baseline).
    Rrs {
        /// Search budget.
        budget: Duration,
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

    /// Cap the multi-column sort's resident memory at `bytes`: queries
    /// whose leased sort footprint
    /// ([`mcs_core::lease_footprint_bytes`]) would exceed the budget run
    /// through the out-of-core path of `mcs-extsort` (chunk → spill →
    /// streaming merge) instead of the in-memory executor, with
    /// byte-identical results. Unset (the default) never spills.
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
    /// Lookups gathering sort-key and aggregate columns.
    pub gather_ns: u64,
    /// Plan search (ROGA / RRS).
    pub plan_search_ns: u64,
    /// Multi-column sorting (massage + all rounds).
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
    /// Plan-cache hits during this execution (sessions only; a stateless
    /// [`run_query`] has no cache and leaves this `0`).
    pub plan_cache_hits: u32,
    /// Plan-cache misses during this execution.
    pub plan_cache_misses: u32,
    /// Wall-clock spent queued in the session's
    /// [`AdmissionGate`](crate::AdmissionGate) before execution began.
    /// Zero for stateless
    /// runs and for sessions without bounded admission — the conditional
    /// EXPLAIN `queued:` line renders only when this is non-zero, so
    /// tail latency can be attributed to queueing vs executing.
    pub queue_ns: u64,
    /// What the out-of-core sort path spilled (all-zero when every sort
    /// ran in memory — the case whenever
    /// [`ExecConfig::memory_budget_bytes`] is unset).
    pub spilled: SpillStats,
}

impl QueryTimings {
    /// Everything except multi-column sorting (the paper's
    /// "Scan+Lookup+Aggregation+…" bar).
    pub fn non_mcs_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.mcs_ns + self.post_sort_ns + self.plan_search_ns)
    }

    /// Whether *every* plan this execution needed came from the session's
    /// plan cache (so no plan search ran at all and
    /// [`plan_search_ns`](QueryTimings::plan_search_ns) is zero).
    pub fn plan_cached(&self) -> bool {
        self.plan_cache_hits > 0 && self.plan_cache_misses == 0
    }
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
/// This stateless entry point plans every query from scratch. A
/// [`Session`](crate::Session) runs the same pipeline with a shared plan
/// cache, skipping the search for repeated query shapes.
pub fn run_query(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
) -> Result<QueryResult, EngineError> {
    run_query_impl(table, query, cfg, None, None)
}

/// The shared pipeline body behind [`run_query`] (no cache, no arena) and
/// the session path (`cache = Some(…)`, `arena = Some(…)`), plus the
/// cancellation-outcome accounting every path shares.
pub(crate) fn run_query_impl(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    cache: Option<&PlanCache>,
    arena: Option<&mut ExecArena>,
) -> Result<QueryResult, EngineError> {
    let result = run_query_body(table, query, cfg, cache, arena);
    if telemetry::is_enabled() {
        let counter = match &result {
            Err(EngineError::DeadlineExceeded) => Some("engine.deadline_exceeded"),
            Err(EngineError::Cancelled) => Some("engine.cancelled"),
            _ => None,
        };
        if let Some(name) = counter {
            telemetry::counter_add(name, 1);
            telemetry::record_span(name, 0, vec![("query", query.name.clone().into())]);
        }
    }
    result
}

fn run_query_body(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    cache: Option<&PlanCache>,
    arena: Option<&mut ExecArena>,
) -> Result<QueryResult, EngineError> {
    let t_total = Instant::now();
    let mut timings = QueryTimings::default();

    // Fail fast: an already-expired deadline (or pre-fired token) returns
    // before any phase runs — no filter scan, no gather, no plan search,
    // no sort. The executor re-polls the same token at every later phase
    // boundary and inside the long loops.
    if let Err(cause) = cfg.exec.sort.cancel.check() {
        return Err(cause.into());
    }

    let oids = filter_oids(table, query, &mut timings)?;

    let result = if !query.partition_by.is_empty() {
        execute_window(table, query, cfg, &oids, &mut timings, cache, arena)?
    } else if !query.group_by.is_empty() {
        execute_grouped(table, query, cfg, &oids, &mut timings, cache, arena)?
    } else {
        execute_orderby(table, query, cfg, &oids, &mut timings, cache, arena)?
    };

    timings.total_ns = t_total.elapsed().as_nanos() as u64;
    if telemetry::is_enabled() {
        telemetry::record_span(
            "engine.query",
            timings.total_ns,
            vec![
                ("query", query.name.clone().into()),
                ("rows_in", oids.len().into()),
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

/// Run `query`'s filters: ByteSlice scans, ANDed; no filters selects the
/// whole table.
fn filter_oids(
    table: &Table,
    query: &Query,
    timings: &mut QueryTimings,
) -> Result<Vec<u32>, EngineError> {
    let t = Instant::now();
    let mut acc: Option<BitVec> = None;
    for f in &query.filters {
        let col = table
            .column(&f.column)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: f.column.clone(),
                context: "filter",
            })?;
        let bv = col.byteslice().scan(&f.predicate);
        acc = Some(match acc {
            None => bv,
            Some(mut a) => {
                a.and_assign(&bv);
                a
            }
        });
    }
    let oids: Vec<u32> = match acc {
        Some(a) => a.to_oids(),
        None => (0..table.rows() as u32).collect(),
    };
    timings.filter_scan_ns += t.elapsed().as_nanos() as u64;
    Ok(oids)
}

/// Run the planning front half of `query` — filters, sort-key gathering
/// and statistics, plan search — populating `cache`, without executing
/// the sort. This is [`Session::prepare`](crate::Session::prepare)'s
/// engine half.
pub(crate) fn warm_plan(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    cache: &PlanCache,
) -> Result<(), EngineError> {
    let mut timings = QueryTimings::default();
    let keys = query.sort_keys();
    if keys.is_empty() {
        return Err(EngineError::NoSortKeys {
            query: query.name.clone(),
        });
    }
    let oids = filter_oids(table, query, &mut timings)?;
    if oids.is_empty() {
        // Nothing qualifies: execution short-circuits before planning too.
        return Ok(());
    }
    let want_groups = !query.group_by.is_empty() || !query.partition_by.is_empty();
    let (_cols, _specs, inst) =
        prepare_sort(table, query, &keys, &oids, want_groups, &mut timings)?;
    let _ = pick_plan(&inst, query.order_free(), cfg, &mut timings, Some(cache))?;
    Ok(())
}

/// A query's sort-key columns, its sort specs and the planner's instance.
type PreparedSort<'t> = (Vec<Cow<'t, CodeVec>>, Vec<SortSpec>, SortInstance);

/// The sort-key columns restricted to `oids` — gathered, or borrowed from
/// the table as they are when `query` has no filter (then `oids` is the
/// identity and the gather would be a copy) — and the planner's instance.
fn prepare_sort<'t>(
    table: &'t Table,
    query: &Query,
    keys: &[OrderKey],
    oids: &[u32],
    want_final_groups: bool,
    timings: &mut QueryTimings,
) -> Result<PreparedSort<'t>, EngineError> {
    let t = Instant::now();
    let unfiltered = query.filters.is_empty();
    debug_assert!(!unfiltered || oids.len() == table.rows());
    let mut cols: Vec<Cow<'t, CodeVec>> = Vec::with_capacity(keys.len());
    let mut specs: Vec<SortSpec> = Vec::with_capacity(keys.len());
    let mut stats: Vec<KeyColumnStats> = Vec::with_capacity(keys.len());
    for k in keys {
        let col = table
            .column(&k.column)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: k.column.clone(),
                context: "sort key",
            })?;
        cols.push(if unfiltered {
            Cow::Borrowed(col.codes())
        } else {
            Cow::Owned(col.gather(oids))
        });
        specs.push(SortSpec {
            width: col.width(),
            descending: k.descending,
        });
        let mut s = KeyColumnStats::from_stats(col.width(), col.stats());
        // Filtering can only reduce cardinality.
        s.ndv = s.ndv.min(oids.len() as f64).max(1.0);
        stats.push(s);
    }
    timings.gather_ns += t.elapsed().as_nanos() as u64;
    let inst = SortInstance {
        rows: oids.len(),
        specs: specs.clone(),
        stats,
        want_final_groups,
    };
    Ok((cols, specs, inst))
}

/// Run the planner, returning the plan and the column order to apply,
/// recording search time.
///
/// On the session path a plan cache is consulted first: a fingerprint hit
/// returns the cached plan with **no** search and **no** contribution to
/// `plan_search_ns`; a miss searches as usual and, when the search
/// succeeded cleanly (no degradation rung taken), publishes the result
/// for the next equal-fingerprint query. Only the searched modes
/// (ROGA / RRS) cache — fixed and column-at-a-time picks cost nothing.
///
/// First rung of the degradation ladder: a failed search, a starved
/// deadline, or a non-finite cost estimate falls back to `P_0` on the
/// identity order (recording why) instead of failing the query. Only an
/// empty sort key — for which `P_0` is equally impossible — is an error.
fn pick_plan(
    inst: &SortInstance,
    order_free: bool,
    cfg: &EngineConfig,
    timings: &mut QueryTimings,
    cache: Option<&PlanCache>,
) -> Result<(MassagePlan, Vec<usize>), EngineError> {
    let cache = cache.filter(|_| {
        matches!(
            &cfg.planner,
            PlannerMode::Roga { .. } | PlannerMode::Rrs { .. }
        )
    });
    let fp = cache.map(|_| PlanFingerprint::of(inst, order_free));
    if let (Some(c), Some(f)) = (cache, &fp) {
        if let Some(hit) = c.lookup(f) {
            timings.plan_cache_hits += 1;
            return Ok(hit);
        }
        c.note_miss();
        timings.plan_cache_misses += 1;
    }
    let rungs_before = timings.degradations.len();

    let t = Instant::now();
    let identity: Vec<usize> = (0..inst.specs.len()).collect();
    let searched = match &cfg.planner {
        PlannerMode::ColumnAtATime => Ok(None),
        PlannerMode::Fixed(p) => {
            // Experiments may hand the engine arbitrary plans; an invalid
            // one degrades to P0 rather than reaching the executor.
            if let Err(e) = p.validate(inst.total_width()) {
                record_degradation(timings, DegradeReason::InvalidPlan, &e.to_string());
                Ok(None)
            } else {
                Ok(Some((p.clone(), identity.clone(), f64::NAN, false)))
            }
        }
        PlannerMode::Roga { rho } => roga(
            inst,
            &cfg.model,
            &RogaOptions {
                rho: *rho,
                permute_columns: order_free,
            },
        )
        .map(|r| {
            Some((
                r.plan,
                r.column_order,
                r.est_cost,
                r.timed_out && r.plans_costed == 0,
            ))
        }),
        PlannerMode::Rrs { budget } => rrs(
            inst,
            &cfg.model,
            &RrsOptions {
                budget: *budget,
                permute_columns: order_free,
                ..Default::default()
            },
        )
        .map(|r| Some((r.plan, r.column_order, r.est_cost, r.plans_costed == 0))),
    };

    let picked = match searched {
        // Nothing can plan a zero-width key; P0 would be just as invalid.
        Err(SearchError::EmptySortKey) => {
            return Err(EngineError::PlanSearch(SearchError::EmptySortKey))
        }
        Err(e) => {
            record_degradation(timings, DegradeReason::PlanSearchFailed, &e.to_string());
            (inst.p0(), identity)
        }
        Ok(None) => (inst.p0(), identity),
        Ok(Some((plan, order, est_cost, starved))) => {
            if starved {
                // The deadline fired before anything was costed: the
                // search result is P0-by-default with no usable estimate.
                record_degradation(
                    timings,
                    DegradeReason::DeadlineStarved,
                    "search deadline fired with zero plans costed",
                );
                (inst.p0(), identity)
            } else if matches!(
                &cfg.planner,
                PlannerMode::Roga { .. } | PlannerMode::Rrs { .. }
            ) && !est_cost.is_finite()
            {
                // Cost-model breakdown (NaN/∞ estimates): the plan
                // ranking is meaningless, so trust Lemma 1 over it.
                record_degradation(
                    timings,
                    DegradeReason::NonFiniteCost,
                    &format!("estimated cost {est_cost}"),
                );
                (inst.p0(), identity)
            } else {
                (plan, order)
            }
        }
    };
    timings.plan_search_ns += t.elapsed().as_nanos() as u64;
    // Publish only clean search results: a degraded pick (P0 stand-in) is
    // this query's problem, not a plan worth pinning for every future
    // equal-fingerprint query — and never poisons the shared cache.
    if let (Some(c), Some(f)) = (cache, fp) {
        if timings.degradations.len() == rungs_before {
            c.insert(f, picked.0.clone(), picked.1.clone());
        }
    }
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
        SortError::InvalidPlan(_)
            | SortError::WorkerPanicked { .. }
            | SortError::Injected(_)
            | SortError::Spill(_)
    )
}

/// One sort attempt under one plan, dispatching between the in-memory
/// executor and the out-of-core path: when a memory budget is set and
/// the plan's leased footprint exceeds it, the sort runs through
/// `mcs-extsort` (recording what spilled in `timings`). A spill I/O
/// failure is the mildest rung of the ladder — the in-memory sort is
/// still perfectly executable, so it reruns here under the *same* plan
/// (recorded as [`DegradeReason::SpillFailed`]) before the caller ever
/// considers `P_0`.
fn sort_once(
    pcols: &[&CodeVec],
    pspecs: &[SortSpec],
    plan: &MassagePlan,
    exec: &ExecConfig,
    mut arena: Option<&mut ExecArena>,
    timings: &mut QueryTimings,
) -> Result<MultiColumnSortOutput, SortError> {
    let n = pcols.first().map_or(0, |c| c.len());
    if let Some(budget) = exec.memory_budget_bytes {
        if mcs_core::lease_footprint_bytes(plan, n) > budget {
            // The external path needs an arena for its chunk sorts; the
            // stateless entry point gets a throwaway one.
            let mut local = ExecArena::new();
            let a = match arena.as_deref_mut() {
                Some(a) => a,
                None => &mut local,
            };
            match external_multi_column_sort_with(pcols, pspecs, plan, exec, a, budget) {
                Ok((out, spill)) => {
                    timings.spilled.runs += spill.runs;
                    timings.spilled.bytes += spill.bytes;
                    timings.spilled.merge_comparisons += spill.merge_comparisons;
                    timings.spilled.merge_ovc_hits += spill.merge_ovc_hits;
                    return Ok(out);
                }
                Err(SortError::Spill(msg)) => {
                    record_degradation(timings, DegradeReason::SpillFailed, &msg);
                    // Deadline-aware ladder: a fired token skips the
                    // in-memory retry below — a timed-out query must
                    // never double the work it already spent.
                    exec.sort.cancel.check()?;
                }
                Err(e) => return Err(e),
            }
        }
    }
    match arena {
        Some(a) => multi_column_sort_with(pcols, pspecs, plan, exec, a),
        None => multi_column_sort(pcols, pspecs, plan, exec),
    }
}

/// Execute the sort under `plan`, degrading to `P_0` and then to the
/// scalar comparator sort (rungs 2 and 3 of the ladder). Returns the
/// output and the plan that actually ran (`None` = scalar fallback).
fn sort_with_ladder(
    pcols: &[&CodeVec],
    pspecs: &[SortSpec],
    plan: MassagePlan,
    exec: &ExecConfig,
    timings: &mut QueryTimings,
    mut arena: Option<&mut ExecArena>,
) -> Result<(MultiColumnSortOutput, Option<MassagePlan>), EngineError> {
    let total: u32 = pspecs.iter().map(|s| s.width).sum();
    // Belt and braces: a plan that fails validation degrades here even if
    // the planner produced it.
    let plan = match plan.validate(total) {
        Ok(()) => plan,
        Err(e) => {
            record_degradation(timings, DegradeReason::InvalidPlan, &e.to_string());
            MassagePlan::column_at_a_time(pspecs)
        }
    };
    // Every rung draws from the same arena when one is provided — the
    // executor restores it on failure, so rung N+1 reuses rung N's
    // buffers rather than starting cold.
    let first = sort_once(pcols, pspecs, &plan, exec, arena.as_deref_mut(), timings);
    let err = match first {
        Ok(out) => return Ok((out, Some(plan))),
        Err(e) => e,
    };
    if !sort_error_recoverable(&err) {
        // `.into()` so a mid-sort cancellation surfaces as
        // `DeadlineExceeded`/`Cancelled`, not wrapped inside `Sort`.
        return Err(err.into());
    }
    record_degradation(timings, DegradeReason::ExecFailed, &err.to_string());

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
        match sort_once(pcols, pspecs, &p0, exec, arena, timings) {
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
    Ok((scalar_fallback_sort(pcols, pspecs, exec), None))
}

/// The bottom of the ladder: a stable scalar sort by the §3 tuple
/// comparator over the raw key columns, grouping built from tie runs.
/// Slow, but free of every machinery the ladder is escaping.
fn scalar_fallback_sort(
    pcols: &[&CodeVec],
    pspecs: &[SortSpec],
    exec: &ExecConfig,
) -> MultiColumnSortOutput {
    let t0 = Instant::now();
    let n = pcols.first().map_or(0, |c| c.len());
    let mut oids: Vec<u32> = (0..n as u32).collect();
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
    let stats = ExecStats {
        total_ns: t0.elapsed().as_nanos() as u64,
        ..ExecStats::default()
    };
    MultiColumnSortOutput {
        oids,
        groups,
        stats,
    }
}

/// Sort the gathered key columns under the chosen plan; returns the
/// permutation (positions into `oids`) and grouping.
fn run_mcs(
    (cols, specs, inst): &PreparedSort<'_>,
    order_free: bool,
    cfg: &EngineConfig,
    timings: &mut QueryTimings,
    cache: Option<&PlanCache>,
    arena: Option<&mut ExecArena>,
) -> Result<MultiColumnSortOutput, EngineError> {
    let (plan, order) = pick_plan(inst, order_free, cfg, timings, cache)?;
    let (pcols, pspecs): (Vec<&CodeVec>, Vec<SortSpec>) = (
        order.iter().map(|&i| &*cols[i]).collect(),
        order.iter().map(|&i| specs[i]).collect(),
    );
    let t = Instant::now();
    let (out, ran_plan) = sort_with_ladder(&pcols, &pspecs, plan, &cfg.exec, timings, arena)?;
    timings.mcs_ns += t.elapsed().as_nanos() as u64;
    timings.mcs_stats = out.stats.clone();
    timings.plan = ran_plan;
    // Record the instance in planner column order so EXPLAIN's predictions
    // price exactly the plan that ran.
    timings.sort_instance = Some(mcs_planner::permute_instance(inst, &order));
    Ok(out)
}

fn execute_orderby(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    oids: &[u32],
    timings: &mut QueryTimings,
    cache: Option<&PlanCache>,
    arena: Option<&mut ExecArena>,
) -> Result<Vec<(String, Vec<u64>)>, EngineError> {
    let keys = query.sort_keys();
    if keys.is_empty() {
        return Err(EngineError::NoSortKeys {
            query: query.name.clone(),
        });
    }
    let prepared = prepare_sort(table, query, &keys, oids, false, timings)?;
    let out = run_mcs(&prepared, false, cfg, timings, cache, arena)?;

    // Final oids into the base table.
    let final_oids: Vec<u32> = out.oids.iter().map(|&p| oids[p as usize]).collect();

    let t = Instant::now();
    let mut result = Vec::new();
    for name in &query.select {
        let col = table
            .column(name)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.clone(),
                context: "SELECT",
            })?;
        result.push((name.clone(), col.gather(&final_oids).iter_u64().collect()));
    }
    timings.gather_ns += t.elapsed().as_nanos() as u64;
    Ok(result)
}

/// The column an aggregate reads, if any.
fn agg_column(kind: &AggKind) -> Option<&str> {
    match kind {
        AggKind::Count => None,
        AggKind::CountDistinct(c)
        | AggKind::Sum(c)
        | AggKind::Avg(c)
        | AggKind::Min(c)
        | AggKind::Max(c) => Some(c),
    }
}

fn execute_grouped(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    oids: &[u32],
    timings: &mut QueryTimings,
    cache: Option<&PlanCache>,
    mut arena: Option<&mut ExecArena>,
) -> Result<Vec<(String, Vec<u64>)>, EngineError> {
    // No qualifying rows: zero groups, empty output columns.
    if oids.is_empty() {
        let mut result: Vec<(String, Vec<u64>)> =
            query.group_by.iter().map(|g| (g.clone(), vec![])).collect();
        result.extend(query.aggregates.iter().map(|a| (a.label.clone(), vec![])));
        return Ok(result);
    }

    let keys = query.sort_keys();
    let prepared = prepare_sort(table, query, &keys, oids, true, timings)?;
    let out = run_mcs(
        &prepared,
        query.order_free(),
        cfg,
        timings,
        cache,
        arena.as_deref_mut(),
    )?;
    let cols = &prepared.0;
    let final_oids: Vec<u32> = out.oids.iter().map(|&p| oids[p as usize]).collect();

    // Aggregate per group (Figure 2 steps 4-5): check every referenced
    // column up front so the gather closure below stays infallible, then
    // gather each once in output order.
    for agg in &query.aggregates {
        if let Some(c) = agg_column(&agg.kind) {
            if table.column(c).is_none() {
                return Err(EngineError::UnknownColumn {
                    column: c.to_string(),
                    context: "aggregate",
                });
            }
        }
    }
    let t = Instant::now();
    let fetch = |name: &str| -> Vec<u64> {
        table
            .column(name)
            .map(|c| c.gather(&final_oids).iter_u64().collect())
            .unwrap_or_default()
    };
    let agg_out = aggregate_groups(&query.aggregates, &out.groups, &fetch);

    // Group-key output columns: first row of each group.
    let mut result: Vec<(String, Vec<u64>)> = Vec::new();
    for (gi, g) in query.group_by.iter().enumerate() {
        let gathered = &cols[gi];
        let vals: Vec<u64> = out
            .groups
            .iter()
            .map(|r| gathered.get(out.oids[r.start] as usize))
            .collect();
        result.push((g.clone(), vals));
    }
    result.extend(agg_out);
    let agg_elapsed = t.elapsed().as_nanos() as u64;
    timings.aggregate_ns += agg_elapsed;
    if telemetry::is_enabled() {
        telemetry::record_span(
            "engine.aggregate",
            agg_elapsed,
            vec![
                ("groups", out.groups.num_groups().into()),
                ("aggregates", query.aggregates.len().into()),
            ],
        );
    }

    // ORDER BY over group keys / aggregate labels: a second multi-column
    // sort on the grouped table (this is TPC-H Q13's situation).
    if !query.order_by.is_empty() {
        let t = Instant::now();
        let n_groups = result.first().map_or(0, |(_, v)| v.len());
        let mut ob_cols: Vec<CodeVec> = Vec::new();
        let mut ob_specs: Vec<SortSpec> = Vec::new();
        for k in &query.order_by {
            let vals = result
                .iter()
                .find(|(n, _)| n == &k.column)
                .ok_or_else(|| EngineError::UnknownColumn {
                    column: k.column.clone(),
                    context: "ORDER BY over grouped result",
                })?
                .1
                .clone();
            let width = mcs_columnar::width_for_max(vals.iter().copied().max().unwrap_or(0));
            ob_cols.push(CodeVec::from_u64s(width, vals));
            ob_specs.push(SortSpec {
                width,
                descending: k.descending,
            });
        }
        let refs: Vec<&CodeVec> = ob_cols.iter().collect();
        // The grouped table is small; keep it simple and column-at-a-time
        // unless massaging is enabled (then P0 vs ROGA is the planner's
        // call with fresh statistics).
        let inst2 = SortInstance {
            rows: n_groups,
            specs: ob_specs.clone(),
            stats: ob_specs
                .iter()
                .zip(&ob_cols)
                .map(|(s, c)| {
                    let mut set: Vec<u64> = c.iter_u64().collect();
                    set.sort_unstable();
                    set.dedup();
                    KeyColumnStats::uniform(s.width, set.len() as f64)
                })
                .collect(),
            want_final_groups: false,
        };
        let (plan2, order2) = pick_plan(&inst2, false, cfg, timings, cache)?;
        let (pcols, pspecs): (Vec<&CodeVec>, Vec<SortSpec>) = (
            order2.iter().map(|&i| refs[i]).collect(),
            order2.iter().map(|&i| ob_specs[i]).collect(),
        );
        let (sorted, _) = sort_with_ladder(&pcols, &pspecs, plan2, &cfg.exec, timings, arena)?;
        for (_, vals) in result.iter_mut() {
            *vals = sorted.oids.iter().map(|&p| vals[p as usize]).collect();
        }
        timings.post_sort_ns += t.elapsed().as_nanos() as u64;
    }
    Ok(result)
}

fn execute_window(
    table: &Table,
    query: &Query,
    cfg: &EngineConfig,
    oids: &[u32],
    timings: &mut QueryTimings,
    cache: Option<&PlanCache>,
    arena: Option<&mut ExecArena>,
) -> Result<Vec<(String, Vec<u64>)>, EngineError> {
    let keys = query.sort_keys();
    let prepared = prepare_sort(table, query, &keys, oids, true, timings)?;
    let (cols, specs, _) = &prepared;
    // Window key: direction-adjusted concatenation of the window-order
    // columns — bounded by one machine word, checked before sorting so a
    // too-wide query fails fast without wasted work.
    let np = query.partition_by.len();
    let wo_specs = &specs[np..];
    let total_wo: u32 = wo_specs.iter().map(|s| s.width).sum();
    if total_wo > 64 {
        return Err(EngineError::WindowKeyTooWide { bits: total_wo });
    }
    let out = run_mcs(&prepared, query.order_free(), cfg, timings, cache, arena)?;
    let final_oids: Vec<u32> = out.oids.iter().map(|&p| oids[p as usize]).collect();

    let t = Instant::now();
    // Partition bounds = ties on the partition keys only: recompute by
    // scanning the sorted partition-key columns (they are the first
    // `partition_by.len()` sort keys).
    let mut parts = mcs_core::GroupBounds::whole(out.oids.len());
    for c in cols.iter().take(np) {
        let permuted: Vec<u64> = out.oids.iter().map(|&p| c.get(p as usize)).collect();
        parts = parts.refine_by(&permuted);
    }
    let wo_cols: Vec<&CodeVec> = cols.iter().skip(np).map(|c| &**c).collect();
    let mut window_keys = vec![0u64; out.oids.len()];
    for (c, s) in wo_cols.iter().zip(wo_specs) {
        for (p, wk) in window_keys.iter_mut().enumerate() {
            let mut v = c.get(out.oids[p] as usize);
            if s.descending {
                v ^= mcs_core::width_mask(s.width);
            }
            *wk = (*wk << s.width) | v;
        }
    }
    let ranks = rank_over(&parts, &window_keys);

    let mut result = Vec::new();
    for name in &query.select {
        let col = table
            .column(name)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.clone(),
                context: "SELECT",
            })?;
        result.push((name.clone(), col.gather(&final_oids).iter_u64().collect()));
    }
    result.push(("rank".to_string(), ranks));
    let rank_elapsed = t.elapsed().as_nanos() as u64;
    timings.aggregate_ns += rank_elapsed;
    if telemetry::is_enabled() {
        telemetry::record_span(
            "engine.window.rank",
            rank_elapsed,
            vec![
                ("partitions", parts.num_groups().into()),
                ("rows", out.oids.len().into()),
            ],
        );
    }
    Ok(result)
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
    use crate::query::{Agg, Filter};
    use mcs_columnar::Predicate;

    fn small_table() -> Table {
        let mut t = Table::new("sales");
        t.add_column(Column::from_u64s("nation", 2, [1u64, 0, 1, 0, 2, 2]));
        t.add_column(Column::from_u64s("ship_date", 3, [5u64, 2, 5, 1, 3, 3]));
        t.add_column(Column::from_u64s("price", 8, [40u64, 30, 10, 20, 50, 60]));
        t
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

    // Old panic site: `assert!(!keys.is_empty())` in execute_orderby.
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

    // Old panic site: `assert!(total_wo <= 64)` in execute_window. The
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

    // Old panic site: `multi_column_sort(...).expect(...)` in run_mcs. An
    // invalid fixed plan now degrades to P0 instead of reaching the
    // executor, and the rung is recorded.
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
        let out = scalar_fallback_sort(&[&a, &b], &specs, &exec);
        assert_eq!(out.oids, vec![3, 1, 5, 4, 0, 2]);
        // Groups = ties on (a, b): all distinct here.
        assert_eq!(out.groups.num_groups(), 6);
        // And the trivial-grouping path.
        let exec2 = ExecConfig {
            want_final_groups: false,
            ..ExecConfig::default()
        };
        assert_eq!(
            scalar_fallback_sort(&[&a, &b], &specs, &exec2)
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
