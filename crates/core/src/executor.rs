//! The multi-column sort executor.
//!
//! Runs a [`MassagePlan`] over a set of sort-key columns, reproducing the
//! paper's execution structure (Figure 2): massage → per round
//! (lookup-permute → segmented SIMD-sort → boundary scan), with per-phase
//! timings matching the cost model's `T_massage` / `T_lookup` / `T_sort` /
//! `T_scan` decomposition.

use std::time::Instant;

use mcs_cancel::CancelCause;
use mcs_columnar::CodeVec;
use mcs_simd_sort::{
    for_each_chunk, sort_pairs_in_groups, GroupBounds, MergeCounters, MorselCounts, PhaseTimes,
    SortConfig, SortKernel, SortableKey,
};
use mcs_telemetry as telemetry;

use crate::arena::{lease_footprint_bytes, ArenaStats, ExecArena, Lease, Order};
use crate::massage::{
    decode_column_into, massage_rows_into, width_mask, MassageProgram, RoundKeys,
};
use crate::plan::{MassagePlan, PlanError, SortSpec};

/// Why a [`multi_column_sort`] invocation was rejected before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// The massage plan fails [`MassagePlan::validate`] for the given
    /// total key width.
    InvalidPlan(PlanError),
    /// `inputs` and `specs` have different lengths.
    ColumnCountMismatch {
        /// Number of input columns.
        inputs: usize,
        /// Number of sort specs.
        specs: usize,
    },
    /// No sort columns were given.
    NoColumns,
    /// An input column holds a different number of rows than the first.
    ColumnLengthMismatch {
        /// Index of the offending column.
        column: usize,
        /// Its row count.
        len: usize,
        /// The first column's row count.
        expected: usize,
    },
    /// A row id in the caller's row list lies past the columns' rows.
    RowOutOfRange {
        /// The largest row id given.
        row: u32,
        /// The columns' row count.
        rows: usize,
    },
    /// The row count does not fit the u32 oid space
    /// (`u32::MAX` is reserved as the padding sentinel).
    TooManyRows(usize),
    /// A parallel-sort worker thread panicked mid-round. The panic was
    /// contained at the thread boundary; the output buffers were
    /// discarded.
    WorkerPanicked {
        /// Round (0-based) whose sort lost a worker.
        round: usize,
        /// Index of the dead worker within that round's sort.
        worker: usize,
    },
    /// A fault-injection point fired (chaos testing only; carries the
    /// fault-point name from [`mcs_faults::points`]).
    Injected(&'static str),
    /// The query's [`CancelToken`](mcs_cancel::CancelToken) fired —
    /// manual cancel or an elapsed deadline — while the sort was running.
    /// The arena was restored; deliberately *not* recoverable by the
    /// degradation ladder (a cancelled query must never re-run its work).
    Cancelled(CancelCause),
}

impl core::fmt::Display for SortError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SortError::InvalidPlan(e) => write!(f, "invalid massage plan: {e}"),
            SortError::ColumnCountMismatch { inputs, specs } => {
                write!(f, "{inputs} input columns but {specs} sort specs")
            }
            SortError::NoColumns => write!(f, "need at least one sort column"),
            SortError::ColumnLengthMismatch {
                column,
                len,
                expected,
            } => write!(
                f,
                "input column {column} holds {len} rows, the first holds {expected}"
            ),
            SortError::RowOutOfRange { row, rows } => {
                write!(f, "row id {row} lies past the columns' {rows} rows")
            }
            SortError::TooManyRows(n) => {
                write!(f, "{n} rows exceed the u32 oid space")
            }
            SortError::WorkerPanicked { round, worker } => {
                write!(f, "sort worker panicked in round {round}, chunk {worker}")
            }
            SortError::Injected(name) => write!(f, "injected fault: {name}"),
            SortError::Cancelled(cause) => write!(f, "sort {cause}"),
        }
    }
}

impl std::error::Error for SortError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SortError::InvalidPlan(e) => Some(e),
            SortError::Cancelled(c) => Some(c),
            _ => None,
        }
    }
}

impl From<PlanError> for SortError {
    fn from(e: PlanError) -> Self {
        SortError::InvalidPlan(e)
    }
}

impl From<CancelCause> for SortError {
    fn from(c: CancelCause) -> Self {
        SortError::Cancelled(c)
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// SIMD-sort tuning.
    pub sort: SortConfig,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Whether the final grouping (ties on all keys) must be produced —
    /// needed by GROUP BY / PARTITION BY, skippable for pure ORDER BY.
    pub want_final_groups: bool,
    /// The sort columns whose codes the caller wants back in output
    /// order, as a bit set: bit `c` names `inputs[c]` (a column past the
    /// 64th cannot be named). The executor decodes each named column from
    /// the sorted round keys into [`MultiColumnSortOutput::keys`], so a
    /// SELECT of a sort key reads nothing through the oids. 0 (the
    /// default) names none.
    pub want_keys: u64,
    /// Optional heap-allocation counter probe (e.g. the count of
    /// allocations on the current thread). When set, the executor samples
    /// it immediately before and after the round loop and reports the
    /// difference in [`ExecStats::round_loop_allocs`] — the allocation
    /// budget the [`ExecArena`] is designed to drive to zero when warm.
    pub alloc_probe: Option<fn() -> u64>,
    /// Resident-memory budget for one sort, in bytes. `None` (the
    /// default) always sorts in memory. When set and the leased footprint
    /// ([`crate::lease_footprint_bytes`]) would exceed it,
    /// [`multi_column_sort`] partitions the rows by key range and sorts
    /// one budget-sized bucket at a time, with byte-identical output.
    pub memory_budget_bytes: Option<usize>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            sort: SortConfig::default(),
            threads: 1,
            want_final_groups: true,
            want_keys: 0,
            alloc_probe: None,
            memory_budget_bytes: None,
        }
    }
}

impl ExecConfig {
    /// Whether [`want_keys`](Self::want_keys) names sort column `col`.
    pub fn wants_key(&self, col: usize) -> bool {
        col < 64 && (self.want_keys >> col) & 1 == 1
    }

    /// The [`MultiColumnSortOutput::keys`] layout for `cols` sort
    /// columns: `column(c)` for each column [`want_keys`](Self::want_keys)
    /// names, an empty vector for the others, and no vector at all when
    /// it names none.
    pub fn wanted_keys(
        &self,
        cols: usize,
        mut column: impl FnMut(usize) -> Vec<u64>,
    ) -> Vec<Vec<u64>> {
        let mut keys = Vec::new();
        for c in (0..cols).filter(|&c| self.wants_key(c)) {
            keys.resize_with(cols, Vec::new);
            keys[c] = column(c);
        }
        keys
    }
}

/// Per-round telemetry (Figure 4b's `N_sort`, `N_group`, `N̄_code`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundStats {
    /// ns spent permuting this round's keys by the incoming oid order;
    /// for round 1 of an identity plan, materializing the round keys
    /// (which is not massage: `P_0` has no massage phase).
    pub lookup_ns: u64,
    /// ns spent in the segmented SIMD sort; in the last round under
    /// [`SortKernel::MergeSort`], also in putting full-key ties back in
    /// row order.
    pub sort_ns: u64,
    /// ns spent scanning for refined group boundaries.
    pub scan_ns: u64,
    /// SIMD-sort invocations (`N_sort`: groups with > 1 row).
    pub invocations: usize,
    /// Codes actually sorted this round.
    pub codes_sorted: usize,
    /// Groups fed into this round.
    pub groups_in: usize,
    /// Groups after this round's refinement (`N_group`).
    pub groups_out: usize,
    /// Largest group fed to this round's segmented sort.
    pub max_group: usize,
    /// Per-kernel times (merge-sort in-register / in-cache / multiway,
    /// radix, small sorts), summed over this round's sort invocations.
    pub phases: PhaseTimes,
    /// Loser-tree comparison counters of this round's out-of-cache merge
    /// passes (always counted, independent of features).
    pub merge: MergeCounters,
    /// Parallel scheduler counters summed over this round's phases
    /// (lookup gather + segmented sort + boundary scan); all zero at
    /// `threads == 1` or below the parallel cutoff.
    pub morsels: MorselCounts,
}

impl RoundStats {
    /// Add another execution's stats of the same round (ns and counters
    /// sum; `max_group` takes the max).
    fn add(&mut self, r: &RoundStats) {
        self.lookup_ns += r.lookup_ns;
        self.sort_ns += r.sort_ns;
        self.scan_ns += r.scan_ns;
        self.invocations += r.invocations;
        self.codes_sorted += r.codes_sorted;
        self.groups_in += r.groups_in;
        self.groups_out += r.groups_out;
        self.max_group = self.max_group.max(r.max_group);
        self.phases.add(r.phases);
        self.merge.add(r.merge);
        self.morsels.add(r.morsels);
    }
}

/// Whole-execution telemetry.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// ns spent massaging (0 for identity plans on all-ASC columns).
    pub massage_ns: u64,
    /// ns spent decoding the key columns [`ExecConfig::want_keys`] names
    /// from the sorted round keys (0 when it names none). Part of
    /// [`total_ns`](Self::total_ns), but SELECT work, not sorting: the
    /// engine charges it to its gather time.
    pub decode_ns: u64,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// End-to-end ns.
    pub total_ns: u64,
    /// Heap allocations observed across the round loop (summed over the
    /// buckets of a budgeted sort), when [`ExecConfig::alloc_probe`] was
    /// set (`Some(0)` on a warm [`ExecArena`] with `threads == 1`).
    pub round_loop_allocs: Option<u64>,
    /// Reuse counters of the [`ExecArena`] that served this execution.
    pub arena: ArenaStats,
    /// Parallel scheduler counters of the massage phase (the round
    /// phases report theirs in [`RoundStats::morsels`]).
    pub massage_morsels: MorselCounts,
    /// Buckets the memory budget split the sort into, each sorted in
    /// memory in turn (a key range too small to sort counts as one); 0
    /// when the sort ran in memory whole.
    pub buckets: u64,
    /// The most rows a bucket may hold under the budget; 0 when no
    /// partition ran.
    pub bucket_rows: usize,
}

impl ExecStats {
    /// Sum of sort times across rounds.
    pub fn sort_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.sort_ns).sum()
    }

    /// Sum of lookup times across rounds.
    pub fn lookup_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.lookup_ns).sum()
    }

    /// Sum of scan times across rounds.
    pub fn scan_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.scan_ns).sum()
    }

    /// Morsel scheduler counters summed over the whole execution
    /// (massage + every round's gather/sort/scan).
    pub fn morsel_counts(&self) -> MorselCounts {
        let mut total = self.massage_morsels;
        for r in &self.rounds {
            total.add(r.morsels);
        }
        total
    }
}

/// Result of a multi-column sort.
#[derive(Debug, Clone)]
pub struct MultiColumnSortOutput {
    /// Rearranged object identifiers: position `p` holds original row
    /// `oids[p]`; this is the "ordered list of object identifiers" whose
    /// validity Lemma 1 guarantees.
    pub oids: Vec<u32>,
    /// Grouping by ties on all sort keys (the trivial single group if
    /// `want_final_groups` was false).
    pub groups: GroupBounds,
    /// The sort columns [`ExecConfig::want_keys`] names, in output order:
    /// `keys[c][p]` is the code of `inputs[c]` at row `oids[p]`. A column
    /// not named is empty, and so is `keys` when no column is named.
    pub keys: Vec<Vec<u64>>,
    /// Telemetry.
    pub stats: ExecStats,
}

/// The lookup: row `i` of `dst` is row `oids[i]` of `src`. One body over
/// a row range, which `threads` splits into equal ranges (serially, one
/// range on the caller, allocation-free). Every row of `dst` is written,
/// so it may hold anything on entry. Returns the scheduler counters.
fn gather<T: Copy + Send + Sync>(
    src: &[T],
    oids: &[u32],
    dst: &mut [T],
    threads: usize,
) -> MorselCounts {
    for_each_chunk(dst, threads, |start, rows| {
        let oids = &oids[start..start + rows.len()];
        for (d, &o) in rows.iter_mut().zip(oids) {
            *d = src[o as usize];
        }
    })
}

/// Sort the rows `rows` lists of `inputs` (one column per [`SortSpec`];
/// every row, in order, when `rows` is `None`) under `plan`, drawing all
/// working memory from `arena`. This is the one sort entry point.
///
/// Returns the permutation of object identifiers, the final grouping
/// when `cfg.want_final_groups` asks for it, and the key columns
/// `cfg.want_keys` names. The oids are row ids of `inputs`, a
/// permutation of `rows`; they satisfy the `ORDER BY` comparator
/// `t_a ≺ t_b` of §3 for every pair of consecutive output positions, and
/// by Lemma 1 this holds for *any* valid massage plan. Rows that tie on
/// every key keep their order in `rows`. Each key column is read through
/// the list where it lies, and nothing is gathered into a copy.
///
/// The arena grows monotonically to the high-water mark of the
/// executions it has served, so repeated calls (a session replaying a
/// prepared query) run the whole round loop without heap allocation when
/// `cfg.threads == 1`. The arena is restored on every exit path,
/// including injected faults and worker panics, so a failed execution
/// never poisons it. [`ExecStats::arena`] carries its reuse counters.
///
/// When `cfg.memory_budget_bytes` is set and the in-memory sort's leased
/// footprint ([`crate::lease_footprint_bytes`]) exceeds it, the rows are
/// range-partitioned on the key, one byte per level, into buckets that
/// each fit the budget, and the buckets are sorted in memory one at a
/// time ([`ExecStats::buckets`], [`ExecStats::bucket_rows`]). The output
/// is byte-identical to the in-memory sort's.
///
/// Fails with a [`SortError`] (instead of running or panicking) when the
/// plan does not cover the concatenated key width, when the inputs are
/// malformed, or when `cfg.sort.cancel` fires.
pub fn multi_column_sort(
    inputs: &[&CodeVec],
    rows: Option<&[u32]>,
    specs: &[SortSpec],
    plan: &MassagePlan,
    cfg: &ExecConfig,
    arena: &mut ExecArena,
) -> Result<MultiColumnSortOutput, SortError> {
    let n = check_inputs(inputs, rows, specs, plan)?;

    // Entry check: an already-fired token (e.g. an expired deadline)
    // returns before any phase runs — no lease is taken, nothing to undo.
    cfg.sort.cancel.check()?;

    let t0 = Instant::now();
    let job = Job {
        inputs,
        specs,
        plan,
        cfg,
        prog: MassageProgram::compile(specs, plan),
    };
    let mut out = MultiColumnSortOutput {
        oids: vec![0; n],
        groups: GroupBounds {
            offsets: Vec::new(),
        },
        keys: cfg.wanted_keys(inputs.len(), |_| vec![0; n]),
        stats: ExecStats {
            rounds: Vec::with_capacity(plan.rounds.len()),
            round_loop_allocs: cfg.alloc_probe.map(|_| 0),
            ..ExecStats::default()
        },
    };
    let budget = cfg
        .memory_budget_bytes
        .filter(|&b| lease_footprint_bytes(plan, n, cfg) > b);
    let result = match budget {
        None => job.sort_into(rows, arena, &mut out, 0),
        Some(budget_bytes) => crate::budget::sort(&job, rows, budget_bytes, arena, &mut out),
    };
    if telemetry::is_enabled() {
        record_spans(&job, n, &out.stats, result.is_ok());
        record_arena_counters(arena);
    }
    result?;

    // No rows, no offsets written: an empty partition emits no bucket.
    if !cfg.want_final_groups || n == 0 {
        out.groups = GroupBounds::whole(n);
    }
    out.stats.arena = arena.stats();
    out.stats.total_ns = t0.elapsed().as_nanos() as u64;
    Ok(out)
}

/// Surface the arena's counter growth since the last execution to
/// telemetry — on the error path too.
fn record_arena_counters(arena: &mut ExecArena) {
    let (grows, reuses, peak_growth) = arena.take_counter_deltas();
    for (name, delta) in [
        ("exec.arena.grow", grows),
        ("exec.arena.reuse", reuses),
        ("exec.arena.bytes_peak", peak_growth),
    ] {
        if delta > 0 {
            telemetry::counter_add(name, delta);
        }
    }
}

/// The checks the sort door makes once per call, before it reads a
/// column: one spec per column, at least one column, a plan that covers
/// the concatenated key, columns of one length, a row list inside them,
/// and an oid space that holds every sorted row. Returns the number of
/// rows to sort.
fn check_inputs(
    inputs: &[&CodeVec],
    rows: Option<&[u32]>,
    specs: &[SortSpec],
    plan: &MassagePlan,
) -> Result<usize, SortError> {
    if inputs.len() != specs.len() {
        return Err(SortError::ColumnCountMismatch {
            inputs: inputs.len(),
            specs: specs.len(),
        });
    }
    let Some(first) = inputs.first() else {
        return Err(SortError::NoColumns);
    };
    let total_width: u32 = specs.iter().map(|s| s.width).sum();
    plan.validate(total_width)?;
    let expected = first.len();
    if let Some((column, c)) = inputs.iter().enumerate().find(|(_, c)| c.len() != expected) {
        return Err(SortError::ColumnLengthMismatch {
            column,
            len: c.len(),
            expected,
        });
    }
    let n = match rows {
        None => expected,
        Some(rows) => {
            if let Some(&row) = rows.iter().max().filter(|&&r| r as usize >= expected) {
                return Err(SortError::RowOutOfRange {
                    row,
                    rows: expected,
                });
            }
            rows.len()
        }
    };
    if n >= u32::MAX as usize {
        return Err(SortError::TooManyRows(n));
    }
    Ok(n)
}

/// One checked call of the sort door: what every in-memory execution
/// under it reads — the whole sort, or each bucket of a budgeted one.
pub(crate) struct Job<'a> {
    pub inputs: &'a [&'a CodeVec],
    pub specs: &'a [SortSpec],
    pub plan: &'a MassagePlan,
    pub cfg: &'a ExecConfig,
    /// The massage program of `specs` and `plan`, compiled once per call.
    pub prog: MassageProgram,
}

impl Job<'_> {
    /// Sort the rows `rows` lists (every row when `None`) in memory and
    /// write them into rows `at..` of `out`: their oids, their group
    /// offsets (rebased) when final groups are wanted, and the key columns
    /// [`ExecConfig::want_keys`] names. The execution's stats add to
    /// `out.stats`.
    pub(crate) fn sort_into(
        &self,
        rows: Option<&[u32]>,
        arena: &mut ExecArena,
        out: &mut MultiColumnSortOutput,
        at: usize,
    ) -> Result<(), SortError> {
        let Job {
            inputs,
            plan,
            cfg,
            prog,
            ..
        } = self;
        let n = rows.map_or_else(|| inputs[0].len(), <[u32]>::len);
        let stats = &mut out.stats;
        let mut lease = arena.lease(plan, n);

        // Step 1: massage (Figure 2b step 1), emitted straight into the
        // leased bank-native round buffers. Identity plans on ascending
        // columns still materialize round keys; that time is charged to
        // round 1's lookup (below) rather than to massage, matching the
        // paper's P_0, which has no massage phase.
        mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_MASSAGE);
        let tm = Instant::now();
        let massage_morsels = massage_rows_into(
            inputs,
            rows,
            prog,
            plan,
            cfg.threads,
            &mut lease.rounds,
            &cfg.sort.cancel,
        );
        stats.massage_morsels.add(massage_morsels);
        let massage_elapsed = tm.elapsed().as_nanos() as u64;
        if !prog.is_identity() {
            stats.massage_ns += massage_elapsed;
        }

        // The round loop proper, bracketed by the allocation probe: on a
        // warm arena with `threads == 1` this window performs zero heap
        // allocations (telemetry emission is deferred to the door for
        // that reason).
        let before = cfg.alloc_probe.map(|p| p());
        // Phase boundary: a token fired during massage left partially
        // massaged round buffers — skip the rounds and unwind through the
        // arena restore below.
        let result = match cfg.sort.cancel.check() {
            Err(cause) => Err(SortError::Cancelled(cause)),
            Ok(()) => run_rounds(cfg, &mut lease, stats),
        };
        if let (Some(p), Some(b)) = (cfg.alloc_probe, before) {
            *stats.round_loop_allocs.get_or_insert(0) += p() - b;
        }
        if prog.is_identity() {
            if let Some(first) = stats.rounds.first_mut() {
                first.lookup_ns += massage_elapsed;
            }
        }

        // Write the outputs out of the lease — positions in `rows`
        // composed into the row ids they name, and the named key columns
        // decoded from the round keys — then restore the arena, on the
        // error path too, so a failed round never poisons it.
        //
        // The decode is exact (Lemma 1): massaging only moves bits between
        // rounds, and round `k`'s buffer stays right position by position
        // to the end. It was sorted together with the oids; every later
        // round permutes only within groups equal on rounds ≤ k; a later
        // round's lookup swaps with its bank's spare, never with round
        // `k`'s buffer; and `canonicalize_ties` permutes only full-key
        // ties.
        let written = result.map(|()| {
            let oids = &mut out.oids[at..at + n];
            match rows {
                None => oids.copy_from_slice(&lease.order.oids),
                Some(rows) => {
                    for (o, &p) in oids.iter_mut().zip(&lease.order.oids) {
                        *o = rows[p as usize];
                    }
                }
            }
            if cfg.want_final_groups {
                push_groups(&mut out.groups.offsets, at, &lease.order.groups.offsets);
            }
            let td = Instant::now();
            for c in (0..inputs.len()).filter(|&c| cfg.wants_key(c)) {
                decode_column_into(&lease.rounds, prog, c, &mut out.keys[c][at..at + n]);
            }
            out.stats.decode_ns += td.elapsed().as_nanos() as u64;
        });
        arena.restore(lease);
        written
    }
}

/// Append the group offsets of the rows starting at output row `at`
/// (`offsets`, relative to `at`) to the output's `ends`. Their first
/// offset is the last one already there, unless these rows open the
/// output.
pub(crate) fn push_groups(ends: &mut Vec<u32>, at: usize, offsets: &[u32]) {
    let skip = usize::from(!ends.is_empty());
    ends.extend(offsets[skip..].iter().map(|&o| at as u32 + o));
}

/// The per-sort telemetry, emitted by the door once the sort is done:
/// span emission allocates attribute vectors, so none happens inside the
/// audited round loop. The massage span and the per-round spans replay
/// the stats summed over every execution of the call (one, or one per
/// bucket). Rounds completed before a failure still get their spans; the
/// whole-sort counters only count successes.
fn record_spans(job: &Job<'_>, n: usize, stats: &ExecStats, ok: bool) {
    let Job {
        plan, cfg, prog, ..
    } = job;
    telemetry::record_span(
        "mcs.massage",
        stats.massage_ns,
        vec![
            ("rows", n.into()),
            ("rounds", plan.rounds.len().into()),
            ("identity", prog.is_identity().into()),
            ("plan", plan.notation().into()),
        ],
    );
    let last = plan.rounds.len() - 1;
    for (k, rs) in stats.rounds.iter().enumerate() {
        record_round_spans(k, &plan.rounds[k], rs, k < last || cfg.want_final_groups);
        telemetry::histogram_record("mcs.round.max_group", rs.max_group as u64);
    }
    if ok {
        telemetry::counter_add("mcs.sorts", 1);
        telemetry::counter_add("mcs.rounds", stats.rounds.len() as u64);
    }
    let m = stats.morsel_counts();
    for (name, delta) in [
        ("exec.morsel.dispatched", m.dispatched),
        ("exec.morsel.split", m.split),
    ] {
        if delta > 0 {
            telemetry::counter_add(name, delta);
        }
    }
}

/// The per-round pipeline (Figure 2a): lookup-permute → segmented SIMD
/// sort → boundary scan, entirely on leased buffers. Allocation-free on
/// a warm lease when `cfg.threads == 1`.
fn run_rounds(cfg: &ExecConfig, lease: &mut Lease, stats: &mut ExecStats) -> Result<(), SortError> {
    let Lease {
        rounds,
        spare16,
        spare32,
        spare64,
        order,
    } = lease;
    let last = rounds.len() - 1;
    for (k, keys) in rounds.iter_mut().enumerate() {
        let rs = match keys {
            RoundKeys::B16(v) => order.round(cfg, k, k == last, v, spare16),
            RoundKeys::B32(v) => order.round(cfg, k, k == last, v, spare32),
            RoundKeys::B64(v) => order.round(cfg, k, k == last, v, spare64),
        }?;
        // The buckets of a budgeted sort add up, round by round.
        match stats.rounds.get_mut(k) {
            Some(sum) => sum.add(&rs),
            None => stats.rounds.push(rs),
        }
    }
    Ok(())
}

impl Order {
    /// Round `k` on its keys in bank type `K`: the lookup permutes them by
    /// the current order (Figure 2a step 2a) into the bank's `spare` and
    /// swaps it in (round 1 is already in row order); the segmented sort
    /// sorts them with the oids within each group (steps 1/3); the scan
    /// refines the groups by them (step 2b), skipped after the last round
    /// unless the caller needs the final grouping. The lookup and the scan
    /// are each one body over a row range, which the thread count splits.
    fn round<K: SortableKey>(
        &mut self,
        cfg: &ExecConfig,
        k: usize,
        last: bool,
        keys: &mut Vec<K>,
        spare: &mut Vec<K>,
    ) -> Result<RoundStats, SortError> {
        // Round boundary: bail before permuting or sorting this round.
        mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_ROUND);
        cfg.sort.cancel.check()?;
        let mut rs = RoundStats {
            groups_in: self.groups.num_groups(),
            ..RoundStats::default()
        };

        if k > 0 {
            let tl = Instant::now();
            rs.morsels.add(gather(keys, &self.oids, spare, cfg.threads));
            core::mem::swap(keys, spare);
            rs.lookup_ns = tl.elapsed().as_nanos() as u64;
        }

        if mcs_faults::fault_point!(mcs_faults::points::CORE_ROUND_SORT) {
            return Err(SortError::Injected(mcs_faults::points::CORE_ROUND_SORT));
        }
        let ts = Instant::now();
        let sstats = sort_pairs_in_groups(
            keys,
            &mut self.oids,
            &self.groups,
            cfg.threads,
            &cfg.sort,
            &mut self.workers,
        )
        .map_err(|p| SortError::WorkerPanicked {
            round: k,
            worker: p.worker,
        })?;
        // A token fired inside the segmented sort made it exit early with
        // partially sorted keys; surface the cancellation before the scan
        // reads (and canonicalize publishes) that garbage.
        cfg.sort.cancel.check()?;
        rs.sort_ns = ts.elapsed().as_nanos() as u64;
        rs.invocations = sstats.invocations;
        rs.codes_sorted = sstats.codes_sorted;
        rs.max_group = sstats.max_group;
        rs.phases = sstats.phases;
        rs.merge = sstats.merge;
        rs.morsels.add(sstats.morsels);

        if !last || cfg.want_final_groups {
            let tc = Instant::now();
            let counts = self
                .groups
                .refine_into(keys, &mut self.spare_offsets, cfg.threads);
            core::mem::swap(&mut self.groups.offsets, &mut self.spare_offsets);
            rs.morsels.add(counts);
            rs.scan_ns = tc.elapsed().as_nanos() as u64;
        }
        rs.groups_out = self.groups.num_groups();

        // Tie order: every `Auto` kernel is stable, and every round enters
        // with each group's oids ascending (round 1 with the identity), so
        // `Auto` already emits rows equal on the full key in row order. The
        // merge-sort's sorting networks are not stable: its ties come out
        // in an order that varies with the plan, the thread count, and
        // (under a memory budget) the bucketing. Restoring row order within
        // each tie group makes every execution strategy — any valid plan,
        // any thread count, the scalar fallback, and the budgeted bucket
        // sort — emit byte-identical output, which is what the
        // differential oracle asserts. Allocation free: `sort_unstable` on
        // `u32` sub-slices sorts in place. It finishes the last round's
        // sort, so its time is that round's.
        if last && cfg.sort.kernel == SortKernel::MergeSort {
            let tc = Instant::now();
            canonicalize_ties(keys, &mut self.oids, &self.groups);
            rs.sort_ns += tc.elapsed().as_nanos() as u64;
        }
        Ok(rs)
    }
}

/// Sort oids ascending within every maximal run of equal last-round keys
/// inside each group. Entering this function, `groups` refines the key
/// prefix of all rounds before the last, so rows with equal `keys` within
/// one group are exactly the ties on the full concatenated key (when the
/// final scan already ran, each group is itself one such run).
fn canonicalize_ties<K: mcs_simd_sort::Key>(keys: &[K], oids: &mut [u32], groups: &GroupBounds) {
    for g in groups.iter() {
        let mut i = g.start;
        while i < g.end {
            let k = keys[i].to_u64();
            let mut j = i + 1;
            while j < g.end && keys[j].to_u64() == k {
                j += 1;
            }
            if j - i > 1 {
                oids[i..j].sort_unstable();
            }
            i = j;
        }
    }
}

/// Emit the per-round telemetry spans: one lookup span (rounds after the
/// first), one sort span with its per-kernel sub-spans (the three
/// merge-sort phases, radix, small sorts), and one boundary-scan span
/// when the scan ran. Aggregated per round — the
/// segmented sort may cover thousands of groups, so spans are recorded
/// from the already-measured [`RoundStats`] rather than per group.
fn record_round_spans(k: usize, round: &crate::plan::Round, rs: &RoundStats, scanned: bool) {
    let base = |rs: &RoundStats| {
        vec![
            ("round", k.into()),
            ("width", round.width.into()),
            ("bank", u64::from(round.bank.bits()).into()),
            ("groups_in", rs.groups_in.into()),
        ]
    };
    if k > 0 {
        telemetry::record_span("mcs.round.lookup", rs.lookup_ns, base(rs));
    }
    let mut sort_attrs = base(rs);
    sort_attrs.push(("invocations", rs.invocations.into()));
    sort_attrs.push(("codes_sorted", rs.codes_sorted.into()));
    telemetry::record_span("mcs.round.sort", rs.sort_ns, sort_attrs);
    for (name, ns) in [
        ("mcs.round.sort.in_register", rs.phases.in_register_ns),
        ("mcs.round.sort.in_cache_merge", rs.phases.in_cache_merge_ns),
        ("mcs.round.sort.radix", rs.phases.radix_ns),
        ("mcs.round.sort.small", rs.phases.small_sort_ns),
    ] {
        telemetry::record_span(name, ns, vec![("round", k.into())]);
    }
    telemetry::record_span(
        "mcs.round.sort.multiway_merge",
        rs.phases.multiway_merge_ns,
        vec![
            ("round", k.into()),
            ("comparisons", rs.merge.comparisons.into()),
        ],
    );
    if scanned {
        let mut scan_attrs = base(rs);
        scan_attrs.push(("groups_out", rs.groups_out.into()));
        telemetry::record_span("mcs.round.scan", rs.scan_ns, scan_attrs);
    }
}

/// The §3 `ORDER BY` comparator: `a ≺ b` over the raw input columns.
/// Used by tests and the exhaustive plan-search oracle.
pub fn tuple_cmp(inputs: &[&CodeVec], specs: &[SortSpec], a: u32, b: u32) -> core::cmp::Ordering {
    for (c, s) in inputs.iter().zip(specs) {
        let mut va = c.get(a as usize);
        let mut vb = c.get(b as usize);
        if s.descending {
            va ^= width_mask(s.width);
            vb ^= width_mask(s.width);
        }
        match va.cmp(&vb) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// Assert that `out` is a correct result for the given sort instance:
/// oids form a permutation, consecutive tuples are non-decreasing under
/// the ORDER BY comparator, and (if present) groups partition exactly the
/// tie ranges. Panics with diagnostics otherwise. Test/verification aid.
pub fn verify_sorted(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    out: &MultiColumnSortOutput,
    check_groups: bool,
) {
    let n = inputs[0].len();
    assert_eq!(out.oids.len(), n);
    let mut seen = vec![false; n];
    for &o in &out.oids {
        assert!(!seen[o as usize], "oid {o} repeated");
        seen[o as usize] = true;
    }
    for w in out.oids.windows(2) {
        let ord = tuple_cmp(inputs, specs, w[0], w[1]);
        assert_ne!(
            ord,
            core::cmp::Ordering::Greater,
            "tuples out of order: {} before {}",
            w[0],
            w[1]
        );
    }
    if check_groups {
        assert_eq!(out.groups.num_rows(), n);
        for r in out.groups.iter() {
            // All rows within a group tie on every key.
            for i in r.start + 1..r.end {
                assert_eq!(
                    tuple_cmp(inputs, specs, out.oids[r.start], out.oids[i]),
                    core::cmp::Ordering::Equal,
                    "non-tied rows grouped"
                );
            }
            // Adjacent groups differ.
            if r.end < n {
                assert_ne!(
                    tuple_cmp(inputs, specs, out.oids[r.end - 1], out.oids[r.end]),
                    core::cmp::Ordering::Equal,
                    "tie split across groups"
                );
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mcs_simd_sort::{runs_serially, PARALLEL_CUTOFF_ROWS as CUTOFF};

    fn col(width: u32, vals: &[u64]) -> CodeVec {
        CodeVec::from_u64s(width, vals.iter().copied())
    }

    /// The door over every row, on a fresh arena.
    fn sort(
        inputs: &[&CodeVec],
        specs: &[SortSpec],
        plan: &MassagePlan,
        cfg: &ExecConfig,
    ) -> Result<MultiColumnSortOutput, SortError> {
        multi_column_sort(inputs, None, specs, plan, cfg, &mut ExecArena::new())
    }

    /// Deterministic xorshift so parity tests need no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Row counts around the parallel cutoff, where a row phase switches
    /// from one range on the caller to one range per worker.
    const EDGE_ROWS: [usize; 5] = [0, 1, CUTOFF - 1, CUTOFF, 20_000];

    /// The ranges a row phase over `n` rows dispatches at `threads`.
    fn ranges(n: usize, threads: usize) -> u64 {
        u64::from(!runs_serially(threads, n)) * threads as u64
    }

    #[test]
    fn boundary_scan_matches_at_every_thread_count() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for n in EDGE_ROWS {
            // Groups of 1–512 rows, keys sorted inside each with plenty of
            // duplicates, and empty groups: the first and last offsets and
            // about every fifth other one repeated.
            let (mut offsets, mut pos) = (vec![0u32, 0], 0);
            while pos < n {
                pos = (pos + 1 + xorshift(&mut state) as usize % 512).min(n);
                offsets.push(pos as u32);
                if xorshift(&mut state).is_multiple_of(5) || pos == n {
                    offsets.push(pos as u32);
                }
            }
            let mut keys: Vec<u32> = (0..n).map(|_| (xorshift(&mut state) % 7) as u32).collect();
            for w in offsets.windows(2) {
                keys[w[0] as usize..w[1] as usize].sort_unstable();
            }
            // By definition: 0, each group start or key change, then `n`.
            let cut = |i: u32| offsets.contains(&i) || keys[i as usize] != keys[i as usize - 1];
            let mut want = vec![0];
            want.extend((1..n as u32).filter(|&i| cut(i)));
            want.push(n as u32);
            let groups = GroupBounds { offsets };
            for threads in [1, 2, 4, 8] {
                let at = format!("n={n} threads={threads}");
                let mut got = vec![u32::MAX; 3];
                let counts = groups.refine_into(&keys, &mut got, threads);
                assert_eq!(got, want, "{at}");
                assert_eq!(counts.dispatched, ranges(n, threads), "{at}");
            }
        }
    }

    #[test]
    fn lookup_gather_matches_at_every_thread_count() {
        let mut state = 0xdeadbeefcafef00du64;
        for n in EDGE_ROWS {
            let src: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            // Deterministic shuffle via sort by hash.
            oids.sort_by_key(|&o| xorshift(&mut (o as u64 + 1)));
            let want: Vec<u64> = oids.iter().map(|&o| src[o as usize]).collect();
            for threads in [1, 2, 4, 8] {
                let at = format!("n={n} threads={threads}");
                // A stale destination: every row must be written.
                let mut got: Vec<u64> = want.iter().map(|&v| !v).collect();
                let counts = gather(&src, &oids, &mut got, threads);
                assert_eq!(got, want, "{at}");
                assert_eq!(counts.dispatched, ranges(n, threads), "{at}");
            }
        }
    }

    #[test]
    fn figure2_query_q1() {
        // nation_name (10-bit), ship_date (17-bit) from Figure 2.
        let nation = col(10, &[1, 0, 1, 0, 1]);
        let ship = col(17, &[1201, 301, 501, 301, 501]);
        let inputs = vec![&nation, &ship];
        let specs = vec![SortSpec::asc(10), SortSpec::asc(17)];

        for plan in [
            MassagePlan::column_at_a_time(&specs), // Figure 2a
            MassagePlan::from_widths(&[27]),       // Figure 2b (stitched)
            MassagePlan::from_widths(&[11, 16]),   // bit borrowing
        ] {
            let out =
                sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
            verify_sorted(&inputs, &specs, &out, true);
            // Groups: (0,301)x2, (1,501)x2, (1,1201).
            assert_eq!(out.groups.num_groups(), 3, "plan {plan}");
            let sizes: Vec<usize> = out.groups.iter().map(|r| r.len()).collect();
            assert_eq!(sizes, vec![2, 2, 1]);
        }
    }

    #[test]
    fn all_plans_agree_small_exhaustive() {
        // 6-bit + 5-bit columns, every composition of 11 bits is a plan.
        let n = 200usize;
        let a = col(
            6,
            &(0..n).map(|i| ((i * 37) % 64) as u64).collect::<Vec<_>>(),
        );
        let b = col(
            5,
            &(0..n).map(|i| ((i * 11) % 32) as u64).collect::<Vec<_>>(),
        );
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(6), SortSpec::asc(5)];

        // Reference final grouping from P0.
        let p0 = MassagePlan::column_at_a_time(&specs);
        let ref_out =
            sort(&inputs, &specs, &p0, &ExecConfig::default()).expect("valid sort instance");
        verify_sorted(&inputs, &specs, &ref_out, true);

        // All compositions of 11 into <= 4 parts (plus the 11-part one).
        let mut plans: Vec<Vec<u32>> = vec![vec![1; 11]];
        for w1 in 1..=11u32 {
            if w1 == 11 {
                plans.push(vec![11]);
                continue;
            }
            for w2 in 1..=(11 - w1) {
                if w1 + w2 == 11 {
                    plans.push(vec![w1, w2]);
                    continue;
                }
                let w3 = 11 - w1 - w2;
                plans.push(vec![w1, w2, w3]);
            }
        }
        for widths in plans {
            let plan = MassagePlan::from_widths(&widths);
            let out =
                sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
            verify_sorted(&inputs, &specs, &out, true);
            // Lemma 1: identical grouping structure regardless of plan.
            assert_eq!(
                out.groups.offsets, ref_out.groups.offsets,
                "plan {widths:?} grouping differs"
            );
        }
    }

    #[test]
    fn figure5_desc_complement() {
        // ORDER BY A ASC, B DESC on Figure 5's input.
        let a = col(3, &[2, 2, 7]);
        let b = col(3, &[5, 1, 4]);
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(3), SortSpec::desc(3)];
        // Stitched plan must complement B first; expected output order is
        // the input order (x, y, z) per the paper.
        let plan = MassagePlan::from_widths(&[6]);
        let out =
            sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(out.oids, vec![0, 1, 2]);
        // And the wrong (no-complement) order would have been 1,0,2: check
        // the column-at-a-time plan agrees with the stitched one.
        let p0 = MassagePlan::column_at_a_time(&specs);
        let out0 = sort(&inputs, &specs, &p0, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(out0.oids, out.oids);
    }

    #[test]
    fn round_stats_populated() {
        let n = 5000usize;
        let a = col(
            13,
            &(0..n)
                .map(|i| ((i * 2654435761) % 8192) as u64)
                .collect::<Vec<_>>(),
        );
        let b = col(
            17,
            &(0..n)
                .map(|i| ((i * 40503) % 131072) as u64)
                .collect::<Vec<_>>(),
        );
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(13), SortSpec::asc(17)];
        let p0 = MassagePlan::column_at_a_time(&specs);
        let out = sort(&inputs, &specs, &p0, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(out.stats.rounds.len(), 2);
        assert_eq!(out.stats.massage_ns, 0, "P0 ascending pays no massage");
        // Round 1 radix-sorts all 5,000 rows as one group; phase times are
        // measured in every build.
        assert!(out.stats.rounds[0].phases.radix_ns > 0);
        let r2 = &out.stats.rounds[1];
        assert!(r2.groups_in > 1);
        assert!(r2.groups_out >= r2.groups_in);
        assert!(r2.invocations <= r2.groups_in);
        // Massaged plan records massage time.
        let p = MassagePlan::from_widths(&[16, 14]);
        let out2 = sort(&inputs, &specs, &p, &ExecConfig::default()).expect("valid sort instance");
        assert!(out2.stats.massage_ns > 0);
        verify_sorted(&inputs, &specs, &out2, true);
    }

    #[test]
    fn identity_plan_charges_key_materialization_to_round_one_lookup() {
        // Round 1 reads its keys in row order, so only materializing them
        // can put time into its lookup: at 2^16 rows that is measurable.
        let n = 1usize << 16;
        let mut state = 0x1D_u64;
        let vals: Vec<u64> = (0..n).map(|_| xorshift(&mut state) & 0xFFF).collect();
        let a = col(12, &vals);
        let b = col(20, &vals.iter().map(|v| v * 97).collect::<Vec<_>>());
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(12), SortSpec::asc(20)];
        let p0 = MassagePlan::column_at_a_time(&specs);
        let out = sort(&inputs, &specs, &p0, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(out.stats.massage_ns, 0, "P0 ascending pays no massage");
        assert!(out.stats.rounds[0].lookup_ns > 0);
        verify_sorted(&inputs, &specs, &out, true);
    }

    #[test]
    fn inconsistent_inputs_return_typed_errors() {
        let a = col(10, &[3, 1, 2]);
        let b = col(17, &[30, 10, 20]);
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(10), SortSpec::asc(17)];
        let cfg = ExecConfig::default();

        // Plan covers 30 bits but the key is 27: width mismatch.
        let short = MassagePlan::from_widths(&[15, 15]);
        let err = sort(&inputs, &specs, &short, &cfg).unwrap_err();
        assert_eq!(
            err,
            SortError::InvalidPlan(crate::plan::PlanError::WidthMismatch {
                got: 30,
                expected: 27
            })
        );
        assert!(err.to_string().contains("invalid massage plan"));
        // The error chain surfaces the underlying PlanError.
        assert!(std::error::Error::source(&err).is_some());

        // One spec too few.
        let p0 = MassagePlan::column_at_a_time(&specs);
        let err = sort(&inputs, &specs[..1], &p0, &cfg).unwrap_err();
        assert_eq!(
            err,
            SortError::ColumnCountMismatch {
                inputs: 2,
                specs: 1
            }
        );

        // No columns at all.
        let err = sort(&[], &[], &p0, &cfg).unwrap_err();
        assert_eq!(err, SortError::NoColumns);

        // Columns of unequal length.
        let short = col(17, &[30, 10]);
        let err = sort(&[&a, &short], &specs, &p0, &cfg).unwrap_err();
        assert_eq!(
            err,
            SortError::ColumnLengthMismatch {
                column: 1,
                len: 2,
                expected: 3
            }
        );
        assert!(err.to_string().contains("holds 2 rows"));

        // A row id past the columns.
        let mut arena = ExecArena::new();
        let err =
            multi_column_sort(&inputs, Some(&[2, 3]), &specs, &p0, &cfg, &mut arena).unwrap_err();
        assert_eq!(err, SortError::RowOutOfRange { row: 3, rows: 3 });
        assert!(err.to_string().contains("row id 3"));
    }

    #[test]
    fn single_column_and_single_row() {
        let a = col(12, &[7]);
        let inputs = vec![&a];
        let specs = vec![SortSpec::asc(12)];
        let p0 = MassagePlan::column_at_a_time(&specs);
        let out = sort(&inputs, &specs, &p0, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(out.oids, vec![0]);
        assert_eq!(out.groups.num_groups(), 1);
    }

    #[test]
    fn wide_keys_over_64_bits() {
        // Three columns totalling 90 bits: no single round can hold them.
        let n = 300usize;
        let a = col(
            30,
            &(0..n)
                .map(|i| ((i * 77) % (1 << 30)) as u64)
                .collect::<Vec<_>>(),
        );
        let b = col(
            30,
            &(0..n).map(|i| ((i * 13) % 7) as u64).collect::<Vec<_>>(),
        );
        let c = col(30, &(0..n).map(|i| (i % 3) as u64).collect::<Vec<_>>());
        let inputs = vec![&a, &b, &c];
        let specs = vec![SortSpec::asc(30), SortSpec::asc(30), SortSpec::asc(30)];
        for plan in [
            MassagePlan::column_at_a_time(&specs),
            MassagePlan::from_widths(&[45, 45]),
            MassagePlan::from_widths(&[32, 32, 26]),
            MassagePlan::from_widths(&[64, 26]),
        ] {
            let out =
                sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
            verify_sorted(&inputs, &specs, &out, true);
        }
    }

    #[test]
    fn arena_reuse_matches_fresh_and_reports_stats() {
        let n = 8_000usize;
        let a = col(
            13,
            &(0..n)
                .map(|i| ((i * 2654435761) % 8192) as u64)
                .collect::<Vec<_>>(),
        );
        let b = col(
            17,
            &(0..n)
                .map(|i| ((i * 40503) % 131072) as u64)
                .collect::<Vec<_>>(),
        );
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(13), SortSpec::asc(17)];
        let cfg = ExecConfig::default();

        let mut arena = ExecArena::new();
        for plan in [
            MassagePlan::column_at_a_time(&specs),
            MassagePlan::from_widths(&[16, 14]),
            MassagePlan::from_widths(&[30]),
        ] {
            let fresh = sort(&inputs, &specs, &plan, &cfg).expect("valid sort instance");
            for _ in 0..2 {
                let warm = multi_column_sort(&inputs, None, &specs, &plan, &cfg, &mut arena)
                    .expect("valid sort instance");
                assert_eq!(warm.oids, fresh.oids, "plan {plan}");
                assert_eq!(warm.groups.offsets, fresh.groups.offsets, "plan {plan}");
                assert!(!warm.stats.arena.is_empty());
            }
        }
        let stats = arena.stats();
        assert_eq!(stats.grows + stats.reuses, 6);
        assert!(stats.reuses >= 3, "repeat executions must reuse: {stats:?}");
        assert!(stats.bytes_peak > 0);

        // Stale buffers: a lease sizes its buffers without clearing them.
        // Fill every bank with all-ones keys over more rows (a 64-bit round
        // among them), then sort smaller instances on the arena — DESC
        // keys, a row list, two threads, a binding budget, the key columns
        // decoded — each byte-identical to a fresh arena.
        let ones: Vec<CodeVec> = [16, 32, 64]
            .map(|w| col(w, &vec![width_mask(w); n + 4_000]))
            .into();
        let wide: Vec<SortSpec> = [16, 32, 64].map(SortSpec::asc).into();
        let wide_plan = MassagePlan::column_at_a_time(&wide);
        let mut runs = vec![(ones.iter().collect(), None, wide, wide_plan, cfg.clone())];
        let list: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
        let mut in_b64 = MassagePlan::from_widths(&[13, 17]);
        in_b64
            .rounds
            .iter_mut()
            .for_each(|r| r.bank = mcs_simd_sort::Bank::B64);
        for (desc, rows, threads, budget) in [
            ([true, false], None, 1, false),
            ([false, true], Some(&list[..]), 1, false),
            ([true, true], None, 2, false),
            ([true, false], Some(&list[..]), 2, false),
            ([false, true], None, 1, true),
        ] {
            let spec = |width, descending| SortSpec { width, descending };
            let specs = vec![spec(13, desc[0]), spec(17, desc[1])];
            let p0 = MassagePlan::column_at_a_time(&specs);
            for plan in [p0, MassagePlan::from_widths(&[16, 14]), in_b64.clone()] {
                let quarter = lease_footprint_bytes(&plan, n, &ExecConfig::default()) / 4;
                let cfg = ExecConfig {
                    threads,
                    want_keys: 0b11,
                    memory_budget_bytes: budget.then_some(quarter),
                    ..ExecConfig::default()
                };
                runs.push((inputs.clone(), rows, specs.clone(), plan, cfg));
            }
        }
        for (inputs, rows, specs, plan, cfg) in &runs {
            let label = format!("{plan} {specs:?} rows {:?} {cfg:?}", rows.map(<[u32]>::len));
            let run = |arena: &mut ExecArena| {
                multi_column_sort(inputs, *rows, specs, plan, cfg, arena)
                    .expect("valid sort instance")
            };
            let (fresh, warm) = (run(&mut ExecArena::new()), run(&mut arena));
            assert_eq!(warm.oids, fresh.oids, "{label}");
            assert_eq!(warm.groups.offsets, fresh.groups.offsets, "{label}");
            assert_eq!(warm.keys, fresh.keys, "{label}");
            assert!(
                warm.stats.buckets > 1 || cfg.memory_budget_bytes.is_none(),
                "{label}"
            );
        }

        // A fresh arena reports its one grow.
        let plainest = sort(
            &inputs,
            &specs,
            &MassagePlan::column_at_a_time(&specs),
            &cfg,
        )
        .expect("valid sort instance");
        assert_eq!(plainest.stats.arena.grows, 1);
    }

    #[test]
    fn alloc_probe_reports_round_loop_allocations() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A fake probe: the executor only subtracts two samples, so a
        // monotone counter stands in for a real allocation count.
        static TICKS: AtomicU64 = AtomicU64::new(0);
        fn probe() -> u64 {
            TICKS.fetch_add(3, Ordering::Relaxed)
        }
        let a = col(10, &[3, 1, 2, 1]);
        let inputs = vec![&a];
        let specs = vec![SortSpec::asc(10)];
        let plan = MassagePlan::column_at_a_time(&specs);
        let cfg = ExecConfig {
            alloc_probe: Some(probe),
            ..ExecConfig::default()
        };
        let out = sort(&inputs, &specs, &plan, &cfg).expect("valid sort instance");
        assert_eq!(out.stats.round_loop_allocs, Some(3));
        let no_probe =
            sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
        assert_eq!(no_probe.stats.round_loop_allocs, None);
    }

    #[test]
    fn threads_do_not_change_result_structure() {
        let n = 20_000usize;
        let a = col(
            11,
            &(0..n).map(|i| ((i * 31) % 2048) as u64).collect::<Vec<_>>(),
        );
        let b = col(
            21,
            &(0..n)
                .map(|i| ((i * 7_919) % (1 << 21)) as u64)
                .collect::<Vec<_>>(),
        );
        let inputs = vec![&a, &b];
        let specs = vec![SortSpec::asc(11), SortSpec::asc(21)];
        let plan = MassagePlan::from_widths(&[16, 16]);
        let s1 = sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("valid sort instance");
        let s4 = sort(
            &inputs,
            &specs,
            &plan,
            &ExecConfig {
                threads: 4,
                ..ExecConfig::default()
            },
        )
        .expect("valid sort instance");
        verify_sorted(&inputs, &specs, &s4, true);
        assert_eq!(s1.groups.offsets, s4.groups.offsets);
    }
}
