//! Sessions: a shared immutable [`Database`], prepared queries, and
//! concurrent query serving over `std::thread::scope`.
//!
//! A plan is a pure function of the sort instance and the cost model, and
//! the exact search ([`mcs_planner::optimal`]) finds it in a fixed amount
//! of work, so every execution plans its own instance: no plan is cached,
//! and no execution can be served a plan searched for another instance.
//! [`Session::prepare`] checks a query once — its table, every column it
//! names, its window-key width — with the same checks every execution
//! makes first, and runs no filter scan and no search.
//!
//! Concurrency: tables are immutable once published, so
//! [`Session::run_concurrent`] serves independent queries from at most
//! `threads` scoped worker threads over the shared database, each worker
//! running a fixed share of the batch. Inter-query and intra-query
//! parallelism compose through one [`WorkerPool`]: every query keeps one
//! implicit worker (progress is never blocked on the pool) and borrows
//! its *extra* morsel workers from the shared pool without blocking, so a
//! saturated batch degrades queries to fewer threads instead of
//! oversubscribing the machine.
//!
//! Memory: the session keeps a pool of workspaces, one per in-flight
//! query: an [`ExecArena`](mcs_core::ExecArena) for the sort's working
//! buffers and a
//! [`SearchScratch`](mcs_planner::SearchScratch) for the plan search.
//! Every execution borrows one and returns it afterwards, so a warm
//! prepared query re-runs its round loop without heap allocations and
//! its search allocates only the plan it returns;
//! [`Session::arena_stats`] reports the pool's aggregate arena reuse
//! counters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mcs_columnar::Table;
use mcs_core::{ArenaStats, CancelToken};
use mcs_telemetry as telemetry;

use crate::error::EngineError;
use crate::pipeline::{run_pipeline, validate, EngineConfig, QueryResult, Workspace};
use crate::query::Query;

/// A set of registered, immutable, named tables queries run against.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register `table` under its own name, replacing any same-named
    /// table. Returns `&mut self` for chaining.
    pub fn register(&mut self, table: Table) -> &mut Database {
        self.tables.retain(|t| t.name() != table.name());
        self.tables.push(table);
        self
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// All registered tables, in registration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }
}

/// Per-query execution limits: a deadline, an externally fireable
/// cancel token, and a bound on queueing.
///
/// The default is unlimited on every axis and costs one branch per
/// cancellation poll (the token stays the allocation-free
/// [`CancelToken::none`]).
///
/// ```
/// use std::time::Duration;
/// use mcs_engine::QueryOptions;
///
/// let opts = QueryOptions::default()
///     .with_timeout(Duration::from_millis(50))
///     .with_queue_timeout(Duration::from_millis(10));
/// assert!(opts.deadline.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Absolute point in time after which the query gives up, surfacing
    /// [`EngineError::DeadlineExceeded`]. Polled at every phase boundary
    /// and inside the long loops (every
    /// [`CHECK_INTERVAL`](mcs_core::CHECK_INTERVAL) iterations).
    pub deadline: Option<Instant>,
    /// Longest a query may wait behind earlier items of its worker in
    /// [`Session::run_concurrent`] (or for the server's admission permit)
    /// before being shed with [`EngineError::Overloaded`]. `None` queues
    /// unboundedly.
    pub queue_timeout: Option<Duration>,
    /// A token the caller can fire from another thread to abandon the
    /// query ([`EngineError::Cancelled`]). Combined with
    /// [`deadline`](QueryOptions::deadline) when both are set: whichever
    /// fires first wins.
    pub cancel: CancelToken,
}

impl QueryOptions {
    /// Set an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> QueryOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Set the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> QueryOptions {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Bound queueing (see
    /// [`queue_timeout`](QueryOptions::queue_timeout)).
    pub fn with_queue_timeout(mut self, timeout: Duration) -> QueryOptions {
        self.queue_timeout = Some(timeout);
        self
    }

    /// Attach an externally fireable cancel token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> QueryOptions {
        self.cancel = cancel;
        self
    }

    /// The single token the pipeline polls: the caller's token tightened
    /// by the deadline, a fresh deadline-only token, or the free
    /// [`CancelToken::none`] when neither limit is set.
    pub(crate) fn effective_token(&self) -> CancelToken {
        match (self.cancel.is_live(), self.deadline) {
            (true, Some(d)) => {
                let t = self.cancel.clone();
                t.set_deadline(d);
                t
            }
            (true, None) => self.cancel.clone(),
            (false, Some(d)) => CancelToken::with_deadline(d),
            (false, None) => CancelToken::none(),
        }
    }
}

/// A query-serving context over a shared [`Database`]: one engine
/// config, one pool of working memory, any number of (possibly
/// concurrent) queries.
///
/// ```
/// use mcs_columnar::{Column, Table};
/// use mcs_engine::{Database, EngineConfig, Query, OrderKey, Session};
///
/// let mut t = Table::new("sales");
/// t.add_column(Column::from_u64s("qty", 4, [3u64, 1, 2]));
/// let mut db = Database::new();
/// db.register(t);
///
/// let session = Session::new(&db, EngineConfig::default());
/// let mut q = Query::named("by_qty");
/// q.order_by = vec![OrderKey::asc("qty")];
/// q.select = vec!["qty".into()];
/// let prepared = session.prepare("sales", &q)?;   // checks the columns
/// let r = prepared.execute(&session)?;            // plans and runs
/// assert_eq!(r.column_required("qty")?, vec![1, 2, 3]);
/// # Ok::<(), mcs_engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    cfg: EngineConfig,
    /// Pooled working memory: each query pops a workspace (or starts a
    /// fresh one when the pool is empty, e.g. under new peak concurrency)
    /// and pushes it back when done, so buffers are reused across queries
    /// without blocking concurrent executions on each other.
    workspaces: Mutex<Vec<Workspace>>,
    /// Shared budget of *extra* intra-query morsel workers (see
    /// [`WorkerPool`]).
    workers: WorkerPool,
}

impl<'db> Session<'db> {
    /// A session over `db` running every query under `cfg`.
    pub fn new(db: &'db Database, cfg: EngineConfig) -> Session<'db> {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cap = cores.max(cfg.exec.threads);
        Session {
            db,
            cfg,
            workspaces: Mutex::new(Vec::new()),
            workers: WorkerPool::new(cap),
        }
    }

    /// [`Session::new`]; the capacity is ignored, since no plan is
    /// cached. Kept for the benchmark under `spine/`, which calls it; it
    /// goes with ROADMAP item 3(c).
    pub fn with_cache_capacity(
        db: &'db Database,
        cfg: EngineConfig,
        _capacity: usize,
    ) -> Session<'db> {
        Session::new(db, cfg)
    }

    /// Override the session-wide worker cap (see [`WorkerPool`]). The
    /// default is `available_parallelism().max(cfg.exec.threads)`; the
    /// server sizes it from its `batch_threads_cap` so one pool governs
    /// both batch fan-out and per-query morsel workers.
    pub fn with_worker_cap(mut self, cap: usize) -> Session<'db> {
        self.workers = WorkerPool::new(cap);
        self
    }

    /// The shared intra-query worker pool (its cap and currently free
    /// extra slots).
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.workers
    }

    /// The shared database this session serves queries from.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// The engine configuration every query in this session runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Aggregate [`ExecArena`](mcs_core::ExecArena) reuse counters across
    /// the session's pool: `grows`/`reuses` sum every execution's
    /// accounting, `bytes_peak` sums the per-arena high-water marks (the
    /// pool's total held memory at peak). Arenas borrowed by in-flight
    /// queries are not counted until they return.
    pub fn arena_stats(&self) -> ArenaStats {
        let workspaces = self.lock_workspaces();
        let mut total = ArenaStats::default();
        for ws in workspaces.iter() {
            let s = ws.arena.stats();
            total.bytes_peak += s.bytes_peak;
            total.grows += s.grows;
            total.reuses += s.reuses;
        }
        total
    }

    /// A poisoned pool mutex only means a query panicked while
    /// popping/pushing; the `Vec` stays consistent, so keep serving.
    fn lock_workspaces(&self) -> MutexGuard<'_, Vec<Workspace>> {
        self.workspaces.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn resolve(&self, table: &str) -> Result<&'db Table, EngineError> {
        self.db
            .table(table)
            .ok_or_else(|| EngineError::UnknownTable {
                table: table.to_string(),
            })
    }

    /// Check `query` against `table` and return a handle that executes
    /// it. The checks are the ones every execution makes before any
    /// work, so a query every execution would reject fails here with the
    /// same error: an unknown table, an unknown column anywhere in the
    /// query (filter, sort key, SELECT, GROUP BY, aggregate, ORDER BY
    /// label), or a window key wider than 64 bits. Runs no filter scan
    /// and no plan search: each execution plans its own instance.
    pub fn prepare(&self, table: &str, query: &Query) -> Result<PreparedQuery, EngineError> {
        validate(self.resolve(table)?, query)?;
        Ok(PreparedQuery {
            table: table.to_string(),
            query: query.clone(),
        })
    }

    /// Execute `query` against `table` in the session's pooled working
    /// memory, under `opts`' deadline / cancel token — **the** query
    /// entry point.
    ///
    /// The default [`QueryOptions`] is unlimited on every axis and adds
    /// no overhead; with a deadline or token set, the pipeline polls at
    /// every phase boundary and inside the long loops, surfacing
    /// [`DeadlineExceeded`](EngineError::DeadlineExceeded) or
    /// [`Cancelled`](EngineError::Cancelled). An already-expired deadline
    /// returns without executing any phase. On every outcome — including
    /// cancellation — the borrowed workspace is restored and returned to
    /// the pool, so the session keeps serving.
    ///
    /// `opts.queue_timeout` has no effect here (nothing queues on the
    /// single-query path); see [`Session::run_concurrent`].
    ///
    /// When `cfg.exec.threads > 1` the query borrows its extra morsel
    /// workers from the session's shared [`WorkerPool`] without
    /// blocking: under concurrent load it runs with however many extras
    /// were free (down to fully serial), so intra-query parallelism
    /// composes with [`run_concurrent`](Session::run_concurrent) instead
    /// of multiplying with it.
    pub fn query(
        &self,
        table: &str,
        query: &Query,
        opts: QueryOptions,
    ) -> Result<QueryResult, EngineError> {
        let mut ws = self.lock_workspaces().pop().unwrap_or_default();
        let result = self.query_in(&mut ws, table, query, opts);
        // Return the workspace even on error: the executor restores its
        // buffers on every exit path, so it stays reusable.
        self.lock_workspaces().push(ws);
        result
    }

    /// [`Session::query`] in the caller's workspace.
    fn query_in(
        &self,
        ws: &mut Workspace,
        table: &str,
        query: &Query,
        opts: QueryOptions,
    ) -> Result<QueryResult, EngineError> {
        let t = self.resolve(table)?;
        let token = opts.effective_token();
        let want = self.cfg.exec.threads.max(1);
        let extras = self.workers.try_take(want - 1);
        let threads = 1 + extras;
        let result = if token.is_live() || threads != self.cfg.exec.threads {
            // The token and thread grant travel inside the exec config,
            // which every layer (executor, budgeted partition, segmented
            // sort, merge) already threads.
            let mut cfg = self.cfg.clone();
            cfg.exec.sort.cancel = token;
            cfg.exec.threads = threads;
            run_pipeline(t, query, &cfg, ws)
        } else {
            run_pipeline(t, query, &self.cfg, ws)
        };
        // Return the borrowed workers even on error.
        self.workers.put(extras);
        result
    }

    /// Execute independent prepared queries concurrently over the shared
    /// database on at most `threads` worker threads, returning results in
    /// input order.
    ///
    /// The batch is dealt out statically: worker `w` of `T =
    /// min(threads, queries)` runs items `w, w + T, w + 2T, …` in turn,
    /// with no shared queue, in one workspace of the session's pool that
    /// is taken before the workers start and returned after they join —
    /// so a batch holds exactly `T` workspaces, and once the pool holds
    /// `T` of them a batch draws no fresh one. Queries are independent:
    /// each gets its own
    /// [`QueryResult`] or [`EngineError`]; one query's failure (or
    /// degradation) does not affect the others. A panicking worker
    /// propagates after the scope joins.
    ///
    /// Every query runs with `opts`' deadline/cancel token. An item's
    /// [`QueryTimings::queue_ns`](crate::QueryTimings::queue_ns) is the
    /// time from the batch's start to its own. When `opts.queue_timeout`
    /// is set, an item that waited behind an earlier one of its worker for
    /// longer than that is **shed** with
    /// [`Overloaded`](EngineError::Overloaded) instead of running —
    /// counted by the `engine.shed` telemetry counter.
    pub fn run_concurrent(
        &self,
        prepared: &[PreparedQuery],
        threads: usize,
        opts: QueryOptions,
    ) -> Vec<Result<QueryResult, EngineError>> {
        let t0 = Instant::now();
        let opts = &opts;
        let workers = threads.max(1).min(prepared.len());
        let run = |ws: &mut Workspace, turn: usize, p: &PreparedQuery| {
            let queue_ns = t0.elapsed().as_nanos() as u64;
            let late = opts
                .queue_timeout
                .is_some_and(|limit| turn > 0 && u128::from(queue_ns) > limit.as_nanos());
            if late {
                if telemetry::is_enabled() {
                    telemetry::counter_add("engine.shed", 1);
                    telemetry::record_span(
                        "engine.shed",
                        queue_ns,
                        vec![("query", p.query.name.clone().into())],
                    );
                }
                return Err(EngineError::Overloaded {
                    waited_ns: queue_ns,
                });
            }
            let mut r = self.query_in(ws, &p.table, &p.query, opts.clone())?;
            r.timings.queue_ns = queue_ns;
            Ok(r)
        };
        let mut spaces: Vec<Workspace> = {
            let mut pool = self.lock_workspaces();
            (0..workers)
                .map(|_| pool.pop().unwrap_or_default())
                .collect()
        };
        let mut shares: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = spaces
                .iter_mut()
                .enumerate()
                .map(|(w, ws)| {
                    let run = &run;
                    let share = prepared.iter().skip(w).step_by(workers);
                    s.spawn(move || {
                        share
                            .enumerate()
                            .map(|(turn, p)| run(ws, turn, p))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(share) => Vec::into_iter(share),
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        self.lock_workspaces().extend(spaces);
        // Item `i` is turn `i / T` of worker `i % T`.
        let results = (0..prepared.len())
            .map_while(|i| shares[i % workers].next())
            .collect();
        if telemetry::is_enabled() {
            telemetry::record_span(
                "session.run_concurrent",
                t0.elapsed().as_nanos() as u64,
                vec![
                    ("queries", prepared.len().into()),
                    ("threads", threads.max(1).into()),
                ],
            );
        }
        results
    }
}

/// A query the owning [`Session`] has checked: its table, and every
/// column it names. Cheap to clone; reusable across
/// [`run_concurrent`](Session::run_concurrent) batches.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    table: String,
    query: Query,
}

impl PreparedQuery {
    /// The table this query runs against.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Execute in `session`'s pooled working memory, planning this
    /// execution's own instance.
    pub fn execute(&self, session: &Session<'_>) -> Result<QueryResult, EngineError> {
        session.query(&self.table, &self.query, QueryOptions::default())
    }
}

/// A session-wide budget of *extra* intra-query morsel workers, shared
/// by every query the session runs (single-shot, concurrent batches,
/// and the server's batch path alike).
///
/// The protocol is non-blocking by design: every query always keeps one
/// implicit worker — admission control is the [`AdmissionGate`]'s job,
/// not the pool's, so a query never waits here — and asks the pool for
/// up to `cfg.exec.threads - 1` extras. Whatever fraction is free is
/// granted atomically and returned when the query finishes. A pool with
/// cap `C` therefore bounds the session's total *extra* workers at
/// `C - 1` no matter how many queries are in flight: a saturated
/// concurrent batch degrades each query toward serial execution instead
/// of oversubscribing the machine with `threads × queries` workers.
#[derive(Debug)]
pub struct WorkerPool {
    /// Free extra-worker slots, `cap - 1` when idle.
    extra: AtomicUsize,
    cap: usize,
}

impl WorkerPool {
    /// A pool for `cap` total workers (at least one), i.e. `cap - 1`
    /// grantable extras.
    pub fn new(cap: usize) -> WorkerPool {
        let cap = cap.max(1);
        WorkerPool {
            extra: AtomicUsize::new(cap - 1),
            cap,
        }
    }

    /// The total worker cap this pool was built with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Extra-worker slots currently free (`cap - 1` when no query holds
    /// any). Advisory: concurrent grants may change it immediately.
    pub fn available(&self) -> usize {
        self.extra.load(Ordering::Acquire)
    }

    /// Take up to `want` extra slots without blocking; returns how many
    /// were granted (possibly zero). Pair with [`put`](WorkerPool::put).
    pub fn try_take(&self, want: usize) -> usize {
        let mut free = self.extra.load(Ordering::Acquire);
        loop {
            let take = want.min(free);
            if take == 0 {
                return 0;
            }
            match self.extra.compare_exchange_weak(
                free,
                free - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(now) => free = now,
            }
        }
    }

    /// Return `n` previously granted slots.
    pub fn put(&self, n: usize) {
        if n > 0 {
            self.extra.fetch_add(n, Ordering::AcqRel);
        }
    }
}

/// A dependency-free counting semaphore bounding concurrent query
/// admission (Mutex + Condvar; permits are RAII).
///
/// ## Wakeup and fairness semantics
///
/// Releasing a permit calls `notify_all`, not `notify_one`: with
/// [`acquire_timeout`](AdmissionGate::acquire_timeout) in the mix, a
/// single notification can land on a waiter that is concurrently timing
/// out — it returns [`Overloaded`](EngineError::Overloaded) without
/// consuming the permit or re-notifying, stranding a free permit while
/// every other waiter sleeps. Waking everyone lets all waiters race for
/// the freed permit; the losers go straight back to sleep. Gates are
/// small (a handful of threads), so the thundering herd is cheap, and
/// the broadcast guarantees progress: **some** waiter always wins a
/// freed permit.
///
/// Admission order is therefore *not* strictly FIFO — whichever woken
/// waiter reacquires the mutex first wins, which tracks OS scheduling.
/// What is guaranteed: no waiter is stranded while a permit is free, no
/// waiter waits longer than its timeout before a typed rejection, and
/// every waiter eventually admits under a finite workload (each of the
/// bounded permit-holders releases exactly once). The fairness test in
/// this module pins the no-stranding property with mixed timed/untimed
/// waiters.
#[derive(Debug)]
pub struct AdmissionGate {
    permits: Mutex<usize>,
    available: Condvar,
}

impl AdmissionGate {
    /// A gate admitting at most `permits` holders at once.
    pub fn new(permits: usize) -> AdmissionGate {
        AdmissionGate {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    /// Block until a permit is free and take it; released on drop.
    pub fn acquire(&self) -> GatePermit<'_> {
        let mut free = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        while *free == 0 {
            free = self.available.wait(free).unwrap_or_else(|e| e.into_inner());
        }
        *free -= 1;
        GatePermit { gate: self }
    }

    /// Wait at most `timeout` for a permit. On expiry the caller is
    /// **shed** with a typed [`Overloaded`](EngineError::Overloaded)
    /// carrying how long it waited — the overload-control contract:
    /// under saturation, callers get a fast rejection instead of an
    /// unbounded queue.
    pub fn acquire_timeout(&self, timeout: Duration) -> Result<GatePermit<'_>, EngineError> {
        let t0 = Instant::now();
        let free = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        let (mut free, _timed_out) = self
            .available
            .wait_timeout_while(free, timeout, |f| *f == 0)
            .unwrap_or_else(|e| e.into_inner());
        // Judge by the predicate, not the timeout flag: a permit freed
        // at the same instant the wait expired is still a permit.
        if *free == 0 {
            return Err(EngineError::Overloaded {
                waited_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        *free -= 1;
        Ok(GatePermit { gate: self })
    }
}

/// An admission permit; dropping it readmits the next waiter.
#[must_use = "dropping the permit immediately readmits the next waiter"]
#[derive(Debug)]
pub struct GatePermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut free = self.gate.permits.lock().unwrap_or_else(|e| e.into_inner());
        *free += 1;
        // notify_all, not notify_one: a single notification can be
        // consumed by a timed waiter that is already giving up, which
        // would strand this permit while untimed waiters sleep forever
        // (see the fairness notes on `AdmissionGate`).
        self.gate.available.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::query::OrderKey;
    use mcs_columnar::Column;

    fn db_with_sales() -> Database {
        let mut t = Table::new("sales");
        t.add_column(Column::from_u64s("nation", 2, [1u64, 0, 1, 0, 2, 2]));
        t.add_column(Column::from_u64s("ship_date", 3, [5u64, 2, 5, 1, 3, 3]));
        t.add_column(Column::from_u64s("price", 8, [40u64, 30, 10, 20, 50, 60]));
        let mut db = Database::new();
        db.register(t);
        db
    }

    fn orderby_query() -> Query {
        let mut q = Query::named("by_keys");
        q.order_by = vec![OrderKey::asc("nation"), OrderKey::asc("ship_date")];
        q.select = vec!["price".into()];
        q
    }

    #[test]
    fn register_replaces_same_named_table() {
        let mut db = db_with_sales();
        assert_eq!(db.table("sales").unwrap().rows(), 6);
        let mut t2 = Table::new("sales");
        t2.add_column(Column::from_u64s("nation", 2, [1u64]));
        db.register(t2);
        assert_eq!(db.tables().len(), 1);
        assert_eq!(db.table("sales").unwrap().rows(), 1);
        assert!(db.table("ghost").is_none());
    }

    #[test]
    fn unknown_table_is_a_typed_error() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let err = session.prepare("ghost", &orderby_query()).unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownTable {
                table: "ghost".into()
            }
        );
    }

    #[test]
    fn session_reuses_its_arena_across_executions() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        assert!(session.arena_stats().is_empty(), "nothing executed yet");
        let prepared = session.prepare("sales", &orderby_query()).unwrap();
        let first = prepared.execute(&session).unwrap();
        assert!(
            !first.timings.mcs_stats.arena.is_empty(),
            "session executions run through the arena"
        );
        for _ in 0..3 {
            prepared.execute(&session).unwrap();
        }
        let stats = session.arena_stats();
        assert_eq!(stats.grows + stats.reuses, 4, "one accounting per run");
        assert!(stats.reuses >= 3, "identical reruns reuse capacity");
        assert!(stats.bytes_peak > 0);
    }

    #[test]
    fn session_results_match_run_query() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let q = orderby_query();
        let via_session = session.query("sales", &q, QueryOptions::default()).unwrap();
        let one_shot = crate::run_query(db.table("sales").unwrap(), &q, session.config()).unwrap();
        assert_eq!(via_session.columns, one_shot.columns);
    }

    #[test]
    fn run_concurrent_returns_per_query_results_in_order() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let good = session.prepare("sales", &orderby_query()).unwrap();
        // A prepared query can also be built for a table that later
        // fails resolution only at execute; simulate a per-query error
        // with an unknown SELECT column instead.
        let mut bad_q = orderby_query();
        bad_q.select = vec!["ghost".into()];
        let bad = PreparedQuery {
            table: "sales".into(),
            query: bad_q,
        };
        let batch = vec![good.clone(), bad, good];
        let results = session.run_concurrent(&batch, 4, QueryOptions::default());
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1].as_ref().unwrap_err(),
            EngineError::UnknownColumn { .. }
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn expired_deadline_fails_fast_without_executing_any_phase() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let opts = QueryOptions::default().with_deadline(Instant::now());
        let err = session.query("sales", &orderby_query(), opts).unwrap_err();
        assert_eq!(err, EngineError::DeadlineExceeded);
        // Nothing executed: no arena accounting — the entry check fired
        // before every phase.
        assert!(session.arena_stats().is_empty());
        // The same session still answers the same query afterwards.
        let r = session
            .query("sales", &orderby_query(), QueryOptions::default())
            .unwrap();
        assert_eq!(
            r.column_required("price").unwrap(),
            vec![20, 30, 40, 10, 50, 60]
        );
    }

    // `prepare` rejects an unknown column wherever the query names it,
    // as every execute does.
    fn assert_prepare_rejects(q: &Query, column: &str, context: &'static str) {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let want = EngineError::UnknownColumn {
            column: column.into(),
            context,
        };
        assert_eq!(session.prepare("sales", q).unwrap_err(), want);
        let executed = session.query("sales", q, QueryOptions::default());
        assert_eq!(executed.unwrap_err(), want);
    }

    #[test]
    fn prepare_rejects_an_unknown_select_column() {
        let mut q = orderby_query();
        q.select = vec!["price".into(), "ghost".into()];
        assert_prepare_rejects(&q, "ghost", "SELECT");
    }

    #[test]
    fn prepare_rejects_an_unknown_aggregate_column() {
        use crate::query::{Agg, AggKind};
        let mut q = Query::named("g");
        q.group_by = vec!["nation".into()];
        q.aggregates = vec![Agg::new(AggKind::Max("ghost".into()), "m")];
        assert_prepare_rejects(&q, "ghost", "aggregate");
    }

    #[test]
    fn prepare_rejects_an_unknown_group_by_column() {
        use crate::query::{Agg, AggKind};
        let mut q = Query::named("g");
        q.group_by = vec!["nation".into(), "ghost".into()];
        q.aggregates = vec![Agg::new(AggKind::Count, "c")];
        assert_prepare_rejects(&q, "ghost", "sort key");
    }

    // `prepare` rejects what every execute rejects before sorting: a
    // window key wider than one machine word fails with the same typed
    // error.
    #[test]
    fn prepare_rejects_a_too_wide_window_key_before_planning() {
        let mut t = Table::new("wide");
        t.add_column(Column::from_u64s("p", 2, [0u64, 1, 0, 1]));
        t.add_column(Column::from_u64s("a", 40, [7u64, 5, 3, 1]));
        t.add_column(Column::from_u64s("b", 40, [1u64, 2, 3, 4]));
        let mut db = Database::new();
        db.register(t);
        let session = Session::new(&db, EngineConfig::default());
        let mut q = Query::named("w");
        q.partition_by = vec!["p".into()];
        q.window_order = vec![OrderKey::asc("a"), OrderKey::asc("b")];
        q.select = vec!["p".into()];
        let want = EngineError::WindowKeyTooWide { bits: 80 };
        assert_eq!(session.prepare("wide", &q).unwrap_err(), want);
        let executed = session.query("wide", &q, QueryOptions::default());
        assert_eq!(executed.unwrap_err(), want);
    }

    #[test]
    fn fired_cancel_token_surfaces_as_cancelled() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let token = CancelToken::new();
        token.cancel();
        let opts = QueryOptions::default().with_cancel(token);
        let err = session.query("sales", &orderby_query(), opts).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
    }

    #[test]
    fn default_options_match_the_plain_path() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let q = orderby_query();
        let plain = session.query("sales", &q, QueryOptions::default()).unwrap();
        // A generous deadline changes nothing.
        let relaxed = session
            .query(
                "sales",
                &q,
                QueryOptions::default().with_timeout(Duration::from_secs(3600)),
            )
            .unwrap();
        assert_eq!(plain.columns, relaxed.columns);
    }

    #[test]
    fn worker_pool_grants_extras_without_blocking() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.cap(), 4);
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.try_take(2), 2);
        assert_eq!(pool.try_take(5), 1, "grants what is free, not more");
        assert_eq!(pool.try_take(1), 0, "empty pool grants zero, never waits");
        pool.put(3);
        assert_eq!(pool.available(), 3);
        // Degenerate caps still leave the implicit worker.
        assert_eq!(WorkerPool::new(0).cap(), 1);
        assert_eq!(WorkerPool::new(1).available(), 0);
    }

    #[test]
    fn queries_return_borrowed_workers_on_every_outcome() {
        let db = db_with_sales();
        let mut cfg = EngineConfig::default();
        cfg.exec.threads = 4;
        let session = Session::new(&db, cfg).with_worker_cap(4);
        let q = orderby_query();
        session.query("sales", &q, QueryOptions::default()).unwrap();
        assert_eq!(
            session.worker_pool().available(),
            3,
            "extras returned after success"
        );
        let err = session
            .query("ghost_table", &q, QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownTable { .. }));
        assert_eq!(
            session.worker_pool().available(),
            3,
            "extras returned after failure"
        );
        // A saturated pool degrades to serial execution but still
        // answers correctly — intra-query parallelism is best-effort.
        let hog = session.worker_pool().try_take(3);
        assert_eq!(hog, 3);
        let r = session.query("sales", &q, QueryOptions::default()).unwrap();
        assert_eq!(
            r.column_required("price").unwrap(),
            vec![20, 30, 40, 10, 50, 60]
        );
        session.worker_pool().put(hog);
    }

    #[test]
    fn acquire_timeout_sheds_when_saturated() {
        let gate = AdmissionGate::new(2);
        let held_a = gate.acquire();
        let held_b = gate.acquire();
        for ms in [0, 10] {
            let err = gate
                .acquire_timeout(Duration::from_millis(ms))
                .expect_err("saturated gate must shed");
            match err {
                EngineError::Overloaded { waited_ns } => {
                    assert!(
                        waited_ns >= ms * 1_000_000,
                        "shed early after {waited_ns} ns"
                    );
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        drop(held_a);
        let reacquired = gate.acquire_timeout(Duration::from_secs(5));
        assert!(reacquired.is_ok(), "freed permit admits a bounded waiter");
        drop(reacquired);
        drop(held_b);
    }

    // The wakeup-audit pin: a 1-permit gate with mixed timed and untimed
    // waiters must admit every one of them — no permit may be stranded
    // by a wakeup landing on a waiter that gave up (the notify_all
    // contract documented on `AdmissionGate`).
    #[test]
    fn mixed_timed_and_untimed_waiters_all_admit() {
        use std::sync::atomic::AtomicUsize;
        let gate = AdmissionGate::new(1);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..6 {
                let gate = &gate;
                let admitted = &admitted;
                s.spawn(move || {
                    let _permit = if i % 2 == 0 {
                        gate.acquire()
                    } else {
                        gate.acquire_timeout(Duration::from_secs(30))
                            .expect("long-timeout waiter must admit, not shed")
                    };
                    admitted.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        assert_eq!(admitted.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn run_concurrent_sheds_overflow_and_times_queueing() {
        let db = db_with_sales();
        let session = Session::new(&db, EngineConfig::default());
        let good = session.prepare("sales", &orderby_query()).unwrap();
        let batch = vec![good; 8];
        // Unbounded queueing (the default): nobody sheds.
        let results = session.run_concurrent(&batch, 2, QueryOptions::default());
        assert!(results.iter().all(|r| r.is_ok()));
        // A generous queue timeout on a tiny workload: still nobody
        // sheds, and a later turn reports a later start than a first.
        let opts = QueryOptions::default().with_queue_timeout(Duration::from_secs(30));
        let results = session.run_concurrent(&batch, 2, opts);
        let queued: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().unwrap().timings.queue_ns)
            .collect();
        assert!(queued[6] > queued[0], "{queued:?}");
        // No queueing allowed: each worker's first item runs, every later
        // one has waited behind it and is shed.
        let opts = QueryOptions::default().with_queue_timeout(Duration::ZERO);
        let results = session.run_concurrent(&batch, 2, opts);
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(_) => assert!(i < 2, "item {i} ran"),
                Err(EngineError::Overloaded { waited_ns }) => assert!(i >= 2 && *waited_ns > 0),
                Err(e) => panic!("item {i}: {e}"),
            }
        }
    }

    #[test]
    fn admission_gate_bounds_in_flight_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let gate = AdmissionGate::new(2);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.acquire();
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate admitted too many");
    }
}
